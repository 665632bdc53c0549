//! §3.3 + §6.6 — the 4×-capped encoding of Elephant Dream (FFmpeg, H.264).
//!
//! Characterization (§3.3): even with a 4× cap, Q4 chunks stay clearly
//! below Q1–Q3 quality at the 480p track (paper's phone-model medians:
//! 79 vs 88/88/85) — complex scenes are *inherently* hard to encode.
//!
//! Streaming (§6.6): the same comparison as Fig. 8/Table 1 on the higher-
//! variability encoding — paper: CAVA's Q4 quality averages 65, 8 and 7
//! above RobustMPC and PANDA max-min; quality change 42 %/68 % lower;
//! rebuffering ≈90 % lower; low-quality chunks 39 %/57 % fewer.

use crate::engine;
use crate::experiments::{banner, pct_delta};
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::table::arrow_delta;
use sim_report::{Cdf, CsvWriter, TextTable};
use std::io;
use vbr_video::classify::{ChunkClass, Classification};

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("§3.3/§6.6", "4x-capped VBR: characterization and streaming");
    let video = engine::video("ED-ffmpeg-h264-cap4x");

    // ---- §3.3 characterization: 480p quality medians per class ----
    let classification = Classification::from_video(&video);
    let track = video.n_tracks() / 2;
    let mut table = TextTable::new(vec!["class", "median VMAF (phone)", "median VMAF (TV)"]);
    let path_q = results_dir().join("exp_cap4x_quality.csv");
    let mut csv_q = CsvWriter::create(&path_q, &["class", "median_phone", "median_tv"])?;
    for class in ChunkClass::ALL {
        let pos = classification.positions_of(class);
        let phone: Vec<f64> = pos
            .iter()
            .map(|&i| video.quality(track, i).vmaf_phone)
            .collect();
        let tv: Vec<f64> = pos
            .iter()
            .map(|&i| video.quality(track, i).vmaf_tv)
            .collect();
        let med = |xs: &[f64]| Cdf::new(xs).expect("non-empty").quantile(0.5);
        table.add_row(vec![
            class.label().to_string(),
            format!("{:.1}", med(&phone)),
            format!("{:.1}", med(&tv)),
        ]);
        csv_q.write_str_row(&[
            class.label(),
            &format!("{:.2}", med(&phone)),
            &format!("{:.2}", med(&tv)),
        ])?;
    }
    csv_q.flush()?;
    print!("{table}");
    println!("paper §3.3 (phone, 480p): Q1-Q3 ≈ 88/88/85, Q4 ≈ 79 — the gap persists at 4x");

    // ---- §6.6 streaming comparison ----
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    let schemes = [
        SchemeKind::Cava,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxMin,
    ];
    let results: Vec<_> = schemes
        .iter()
        .map(|&s| run_scheme(s, &video, &traces, &qoe, &player))
        .collect();
    let path = results_dir().join("exp_cap4x_streaming.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["scheme", "q4", "low_pct", "rebuf_s", "qchange", "data_mb"],
    )?;
    let mut table = TextTable::new(vec![
        "scheme",
        "Q4 quality",
        "low-qual %",
        "rebuffer (s)",
        "qual change",
        "data (MB)",
    ]);
    for (scheme, sessions) in schemes.iter().zip(&results) {
        table.add_row(vec![
            scheme.name().to_string(),
            format!("{:.1}", mean_of(Metric::Q4Quality, sessions)),
            format!("{:.1}", mean_of(Metric::LowQualityPct, sessions)),
            format!("{:.1}", mean_of(Metric::RebufferS, sessions)),
            format!("{:.2}", mean_of(Metric::QualityChange, sessions)),
            format!("{:.0}", mean_of(Metric::DataUsageMb, sessions)),
        ]);
        csv.write_str_row(&[
            scheme.name(),
            &format!("{:.2}", mean_of(Metric::Q4Quality, sessions)),
            &format!("{:.2}", mean_of(Metric::LowQualityPct, sessions)),
            &format!("{:.2}", mean_of(Metric::RebufferS, sessions)),
            &format!("{:.3}", mean_of(Metric::QualityChange, sessions)),
            &format!("{:.1}", mean_of(Metric::DataUsageMb, sessions)),
        ])?;
    }
    csv.flush()?;
    print!("{table}");
    let d_q4 = |i: usize| {
        mean_of(Metric::Q4Quality, &results[0]) - mean_of(Metric::Q4Quality, &results[i])
    };
    let d = |m: Metric, i: usize| pct_delta(mean_of(m, &results[0]), mean_of(m, &results[i]));
    println!(
        "CAVA vs RobustMPC / PANDA max-min: Q4 {}, {}; qchg {}, {}; rebuf {}, {}; low-qual {}, {}",
        arrow_delta(d_q4(1), "", 0),
        arrow_delta(d_q4(2), "", 0),
        arrow_delta(d(Metric::QualityChange, 1), "%", 0),
        arrow_delta(d(Metric::QualityChange, 2), "%", 0),
        arrow_delta(d(Metric::RebufferS, 1), "%", 0),
        arrow_delta(d(Metric::RebufferS, 2), "%", 0),
        arrow_delta(d(Metric::LowQualityPct, 1), "%", 0),
        arrow_delta(d(Metric::LowQualityPct, 2), "%", 0),
    );
    println!("paper §6.6: Q4 65 (↑8, ↑7); qchg ↓42%, ↓68%; rebuf ↓90%, ↓89%; low-qual ↓39%, ↓57%");
    println!("wrote {} and {}", path_q.display(), path.display());
    Ok(())
}
