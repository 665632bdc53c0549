//! Table 1 — CAVA's deltas against RobustMPC and PANDA/CQ max-min across the
//! 8 YouTube videos under LTE traces and the 4 Xiph YouTube videos under
//! FCC traces.
//!
//! Cell convention (as in the paper): two values per cell — CAVA relative to
//! RobustMPC, then CAVA relative to PANDA/CQ max-min. Q4 quality is an
//! absolute VMAF delta (↑ better); the other four metrics are percentage
//! changes (↓ better).

use crate::engine;
use crate::experiments::{banner, pct_delta};
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::table::arrow_delta;
use sim_report::{CsvWriter, TextTable};
use std::io;

/// The Table 1 video grid: `(video, trace set)`.
pub fn grid() -> Vec<(String, NetworkRegime)> {
    let mut rows = Vec::new();
    for name in [
        "BBB-youtube-h264",
        "ED-youtube-h264",
        "Sintel-youtube-h264",
        "ToS-youtube-h264",
        "Animal-youtube-h264",
        "Nature-youtube-h264",
        "Sports-youtube-h264",
        "Action-youtube-h264",
    ] {
        rows.push((name.to_string(), NetworkRegime::Lte));
    }
    for name in [
        "BBB-youtube-h264",
        "ED-youtube-h264",
        "Sintel-youtube-h264",
        "ToS-youtube-h264",
    ] {
        rows.push((name.to_string(), NetworkRegime::Fcc));
    }
    rows
}

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "Table 1",
        "Performance comparison — YouTube videos (LTE + FCC)",
    );
    let mut table = TextTable::new(vec![
        "set",
        "video",
        "Q4 quality",
        "low-qual %",
        "stall %",
        "qual chg %",
        "data %",
    ]);
    let path = results_dir().join("table1_youtube.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "trace_set",
            "video",
            "scheme",
            "q4_quality",
            "low_quality_pct",
            "rebuffer_s",
            "quality_change",
            "data_mb",
        ],
    )?;
    let player = PlayerConfig::default();
    let mut prev_set = NetworkRegime::Lte;
    for (video_name, set) in grid() {
        if set != prev_set {
            table.add_separator();
            prev_set = set;
        }
        let video = engine::video(&video_name);
        let traces = engine::traces(set);
        let qoe = set.corpus_qoe();
        let schemes = [
            SchemeKind::Cava,
            SchemeKind::RobustMpc,
            SchemeKind::PandaMaxMin,
        ];
        let results: Vec<_> = schemes
            .iter()
            .map(|&s| run_scheme(s, &video, &traces, &qoe, &player))
            .collect();
        for (scheme, sessions) in schemes.iter().zip(&results) {
            csv.write_str_row(&[
                set.label(),
                &video_name,
                scheme.name(),
                &format!("{:.2}", mean_of(Metric::Q4Quality, sessions)),
                &format!("{:.2}", mean_of(Metric::LowQualityPct, sessions)),
                &format!("{:.2}", mean_of(Metric::RebufferS, sessions)),
                &format!("{:.3}", mean_of(Metric::QualityChange, sessions)),
                &format!("{:.1}", mean_of(Metric::DataUsageMb, sessions)),
            ])?;
        }
        let cell = |metric: Metric, absolute: bool| -> String {
            let cava = mean_of(metric, &results[0]);
            let deltas: Vec<String> = (1..3)
                .map(|i| {
                    let other = mean_of(metric, &results[i]);
                    if absolute {
                        arrow_delta(cava - other, "", 0)
                    } else {
                        arrow_delta(pct_delta(cava, other), "%", 0)
                    }
                })
                .collect();
            deltas.join(", ")
        };
        let short = video_name.trim_end_matches("-youtube-h264");
        table.add_row(vec![
            set.label().to_string(),
            short.to_string(),
            cell(Metric::Q4Quality, true),
            cell(Metric::LowQualityPct, false),
            cell(Metric::RebufferS, false),
            cell(Metric::QualityChange, false),
            cell(Metric::DataUsageMb, false),
        ]);
    }
    csv.flush()?;
    print!("{table}");
    println!("cells: CAVA vs RobustMPC, CAVA vs PANDA/CQ max-min (paper's convention)");
    println!("paper LTE ranges: Q4 ↑8-18/↑3-9; low-qual ↓4-75%; stall ↓62-95%; qchg ↓25-48%; data ↓2-11%");
    println!("wrote {}", path.display());
    Ok(())
}
