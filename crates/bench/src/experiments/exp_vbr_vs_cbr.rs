//! VBR vs CBR (extension) — the §1 motivation quantified.
//!
//! The paper motivates VBR with "the ability to realize better video quality
//! for the same average bitrate" than CBR. We encode the same content at the
//! same ladder averages both ways, stream both with CAVA over the LTE
//! traces, and compare delivered quality per byte. CBR's loss concentrates
//! exactly where the paper says it does: complex scenes, which CBR starves
//! much harder than capped VBR.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::{CsvWriter, TextTable};
use std::io;
use vbr_video::classify::{ChunkClass, Classification};

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: VBR vs CBR",
        "Same content, same average bitrates, two encodings",
    );
    let vbr = engine::video("ED-ffmpeg-h264");
    let cbr = engine::video("ED-ffmpeg-h264-cbr");

    // Encoding-level comparison at the middle track.
    let track = vbr.n_tracks() / 2;
    let classes = Classification::from_video(&vbr);
    let mut enc = TextTable::new(vec![
        "encoding",
        "track CoV",
        "Q1 mean VMAF(phone)",
        "Q4 mean VMAF(phone)",
        "all mean",
    ]);
    for video in [&vbr, &cbr] {
        let mean_of_class = |class: Option<ChunkClass>| {
            let pos: Vec<usize> = match class {
                Some(c) => classes.positions_of(c),
                None => (0..video.n_chunks()).collect(),
            };
            pos.iter()
                .map(|&i| video.quality(track, i).vmaf_phone)
                .sum::<f64>()
                / pos.len() as f64
        };
        enc.add_row(vec![
            video.name().to_string(),
            format!("{:.2}", video.track(track).bitrate_cov()),
            format!("{:.1}", mean_of_class(Some(ChunkClass::Q1))),
            format!("{:.1}", mean_of_class(Some(ChunkClass::Q4))),
            format!("{:.1}", mean_of_class(None)),
        ]);
    }
    print!("{enc}");
    println!("paper §1: VBR gives better quality at the same average bitrate than CBR");

    // Streaming-level comparison: CAVA on both encodings.
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    let path = results_dir().join("exp_vbr_vs_cbr.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "encoding", "q4", "q13", "all", "low_pct", "rebuf_s", "data_mb",
        ],
    )?;
    let mut table = TextTable::new(vec![
        "encoding (CAVA)",
        "Q4 qual",
        "Q1-3 qual",
        "all qual",
        "low-q %",
        "rebuf (s)",
        "data (MB)",
    ]);
    for video in [&vbr, &cbr] {
        let sessions = run_scheme(SchemeKind::Cava, video, &traces, &qoe, &player);
        table.add_row(vec![
            video.name().to_string(),
            format!("{:.1}", mean_of(Metric::Q4Quality, &sessions)),
            format!("{:.1}", mean_of(Metric::Q13Quality, &sessions)),
            format!("{:.1}", mean_of(Metric::AllQuality, &sessions)),
            format!("{:.1}", mean_of(Metric::LowQualityPct, &sessions)),
            format!("{:.1}", mean_of(Metric::RebufferS, &sessions)),
            format!("{:.0}", mean_of(Metric::DataUsageMb, &sessions)),
        ]);
        csv.write_str_row(&[
            video.name(),
            &format!("{:.2}", mean_of(Metric::Q4Quality, &sessions)),
            &format!("{:.2}", mean_of(Metric::Q13Quality, &sessions)),
            &format!("{:.2}", mean_of(Metric::AllQuality, &sessions)),
            &format!("{:.2}", mean_of(Metric::LowQualityPct, &sessions)),
            &format!("{:.2}", mean_of(Metric::RebufferS, &sessions)),
            &format!("{:.1}", mean_of(Metric::DataUsageMb, &sessions)),
        ])?;
    }
    csv.flush()?;
    print!("{table}");
    println!("wrote {}", path.display());
    Ok(())
}
