//! Chunk-duration study (extension) — §2 notes the dataset's two chunk
//! durations (2 s FFmpeg, 5 s YouTube) "allow us to investigate the impact
//! of chunk duration on the performance of ABR streaming".
//!
//! A controlled version of that comparison: the *same content* (same scene
//! process, same ladder, same encoder settings) chunked at 1, 2, 5, and
//! 10 s — the commercial range §2 cites — streamed by CAVA and RobustMPC
//! over the LTE traces. Shorter chunks mean finer adaptation (more
//! decisions, faster reaction) but more per-chunk variability reaching the
//! scheduler; longer chunks smooth VBR variability into each chunk but
//! react sluggishly.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::{PlayerConfig, TcpConfig};
use sim_report::{CsvWriter, TextTable};
use std::io;
use vbr_video::encoder::{EncoderConfig, EncoderSource};
use vbr_video::{Genre, Ladder, Video};

/// Chunk durations to test (seconds) — the §2 commercial range.
pub const DURATION_SWEEP: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("ext: chunk duration", "Same content chunked at 1/2/5/10 s");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    let ladder = Ladder::ffmpeg_h264();

    let path = results_dir().join("exp_chunk_duration.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "scheme", "chunk_s", "q4", "all", "low_pct", "rebuf_s", "qchange",
        ],
    )?;
    let mut table = TextTable::new(vec![
        "scheme",
        "chunk (s)",
        "Q4 qual",
        "all qual",
        "low-q %",
        "rebuf (s)",
        "qual chg",
    ]);
    for scheme in [SchemeKind::Cava, SchemeKind::RobustMpc] {
        for delta in DURATION_SWEEP {
            let n_chunks = (600.0 / delta).round() as usize;
            let name = format!("ED-chunk{delta}s");
            let video = engine::video_with(&name, || {
                Video::synthesize(
                    name.clone(),
                    Genre::Animation,
                    n_chunks,
                    delta,
                    &ladder,
                    &EncoderConfig::capped_2x(EncoderSource::FFmpeg, 101),
                    101,
                )
            });
            let sessions = run_scheme(scheme, &video, &traces, &qoe, &player);
            table.add_row(vec![
                scheme.name().to_string(),
                format!("{delta:.0}"),
                format!("{:.1}", crate::mean_of(Metric::Q4Quality, &sessions)),
                format!("{:.1}", crate::mean_of(Metric::AllQuality, &sessions)),
                format!("{:.1}", crate::mean_of(Metric::LowQualityPct, &sessions)),
                format!("{:.1}", crate::mean_of(Metric::RebufferS, &sessions)),
                format!("{:.2}", crate::mean_of(Metric::QualityChange, &sessions)),
            ]);
            csv.write_str_row(&[
                scheme.name(),
                &format!("{delta}"),
                &format!("{:.2}", crate::mean_of(Metric::Q4Quality, &sessions)),
                &format!("{:.2}", crate::mean_of(Metric::AllQuality, &sessions)),
                &format!("{:.2}", crate::mean_of(Metric::LowQualityPct, &sessions)),
                &format!("{:.2}", crate::mean_of(Metric::RebufferS, &sessions)),
                &format!("{:.3}", crate::mean_of(Metric::QualityChange, &sessions)),
            ])?;
        }
        table.add_separator();
    }
    csv.flush()?;
    print!("{table}");
    println!("short chunks adapt faster but expose more VBR variability per decision;");
    println!("CAVA's windowed filter (W seconds, not W chunks) keeps it stable across durations");

    // Second pass: with the TCP slow-start model, the per-request ramp taxes
    // short chunks — the transport-level reason behind §2's 2-10 s range.
    let tcp_player = PlayerConfig {
        tcp: Some(TcpConfig::default()),
        ..PlayerConfig::default()
    };
    let mut tcp_table = TextTable::new(vec![
        "chunk (s), CAVA + TCP model",
        "all qual",
        "rebuf (s)",
        "realized/link throughput",
    ]);
    let path_tcp = results_dir().join("exp_chunk_duration_tcp.csv");
    let mut csv_tcp = CsvWriter::create(
        &path_tcp,
        &["chunk_s", "all_quality", "rebuf_s", "throughput_ratio"],
    )?;
    for delta in DURATION_SWEEP {
        let n_chunks = (600.0 / delta).round() as usize;
        let name = format!("ED-chunk{delta}s");
        // Cache hit: the first pass already synthesized this video.
        let video = engine::video_with(&name, || {
            Video::synthesize(
                name.clone(),
                Genre::Animation,
                n_chunks,
                delta,
                &ladder,
                &EncoderConfig::capped_2x(EncoderSource::FFmpeg, 101),
                101,
            )
        });
        let sessions =
            crate::harness::run_scheme(SchemeKind::Cava, &video, &traces, &qoe, &tcp_player);
        // Proxy for ramp tax: avg delivered bitrate over avg trace mean.
        let mean_trace_bw: f64 =
            traces.iter().map(|t| t.mean_bps()).sum::<f64>() / traces.len() as f64;
        let ratio = sessions.iter().map(|m| m.avg_bitrate_bps).sum::<f64>()
            / sessions.len() as f64
            / mean_trace_bw;
        tcp_table.add_row(vec![
            format!("{delta:.0}"),
            format!("{:.1}", crate::mean_of(Metric::AllQuality, &sessions)),
            format!("{:.1}", crate::mean_of(Metric::RebufferS, &sessions)),
            format!("{ratio:.2}"),
        ]);
        csv_tcp.write_str_row(&[
            &format!("{delta}"),
            &format!("{:.2}", crate::mean_of(Metric::AllQuality, &sessions)),
            &format!("{:.2}", crate::mean_of(Metric::RebufferS, &sessions)),
            &format!("{ratio:.3}"),
        ])?;
    }
    csv_tcp.flush()?;
    print!("{tcp_table}");
    println!(
        "the slow-start ramp (50 ms RTT, IW10, cold start per request) taxes 1 s chunks hardest"
    );
    println!("wrote {} and {}", path.display(), path_tcp.display());
    Ok(())
}
