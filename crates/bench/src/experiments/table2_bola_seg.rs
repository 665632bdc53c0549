//! Table 2 — CAVA versus BOLA-E (seg) in the dash.js setting (§6.8), four
//! YouTube videos under LTE traces.
//!
//! Paper: CAVA's Q4 quality is 10–21 VMAF higher, low-quality chunks
//! 73–87 % fewer, rebuffering 15–65 % lower, quality changes 24–45 % lower —
//! while BOLA-E (seg) uses less data (the paper reports CAVA using 25–56 %
//! more).

use crate::engine;
use crate::experiments::{banner, pct_delta};
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::table::arrow_delta;
use sim_report::{CsvWriter, TextTable};
use std::io;

/// Table 2's four videos.
pub const VIDEOS: [&str; 4] = [
    "BBB-youtube-h264",
    "ED-youtube-h264",
    "Sports-youtube-h264",
    "ToS-youtube-h264",
];

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("Table 2", "CAVA versus BOLA-E (seg) in the dash.js setting");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    let mut table = TextTable::new(vec![
        "video",
        "Q4 quality",
        "low-qual %",
        "stall %",
        "qual chg %",
        "data %",
    ]);
    let path = results_dir().join("table2_bola_seg.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "video",
            "scheme",
            "q4_quality",
            "low_quality_pct",
            "rebuffer_s",
            "quality_change",
            "data_mb",
        ],
    )?;
    for video_name in VIDEOS {
        let video = engine::video(video_name);
        let cava = run_scheme(SchemeKind::Cava, &video, &traces, &qoe, &player);
        let bola = run_scheme(SchemeKind::BolaESeg, &video, &traces, &qoe, &player);
        for (scheme, sessions) in [(SchemeKind::Cava, &cava), (SchemeKind::BolaESeg, &bola)] {
            csv.write_str_row(&[
                video_name,
                scheme.name(),
                &format!("{:.2}", mean_of(Metric::Q4Quality, sessions)),
                &format!("{:.2}", mean_of(Metric::LowQualityPct, sessions)),
                &format!("{:.2}", mean_of(Metric::RebufferS, sessions)),
                &format!("{:.3}", mean_of(Metric::QualityChange, sessions)),
                &format!("{:.1}", mean_of(Metric::DataUsageMb, sessions)),
            ])?;
        }
        let short = video_name.trim_end_matches("-youtube-h264");
        table.add_row(vec![
            short.to_string(),
            arrow_delta(
                mean_of(Metric::Q4Quality, &cava) - mean_of(Metric::Q4Quality, &bola),
                "",
                0,
            ),
            arrow_delta(
                pct_delta(
                    mean_of(Metric::LowQualityPct, &cava),
                    mean_of(Metric::LowQualityPct, &bola),
                ),
                "%",
                0,
            ),
            arrow_delta(
                pct_delta(
                    mean_of(Metric::RebufferS, &cava),
                    mean_of(Metric::RebufferS, &bola),
                ),
                "%",
                0,
            ),
            arrow_delta(
                pct_delta(
                    mean_of(Metric::QualityChange, &cava),
                    mean_of(Metric::QualityChange, &bola),
                ),
                "%",
                0,
            ),
            arrow_delta(
                pct_delta(
                    mean_of(Metric::DataUsageMb, &cava),
                    mean_of(Metric::DataUsageMb, &bola),
                ),
                "%",
                0,
            ),
        ]);
    }
    csv.flush()?;
    print!("{table}");
    println!("paper: Q4 ↑10-21; low-qual ↓73-87%; stall ↓15-65%; qchg ↓24-45%; data ↑25-56%");
    println!("wrote {}", path.display());
    Ok(())
}
