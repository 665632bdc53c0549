//! §6.5 (text) — codec impact: the H.265 encodings under LTE traces.
//!
//! Paper findings: every scheme improves under H.265 (its lower bitrate
//! requirement relieves the network), and CAVA still leads — Q4 quality
//! 7–12 higher than RobustMPC / PANDA max-min, low-quality chunks 51–82 %
//! fewer, rebuffering 52–91 % lower, quality change 27–72 % lower, data
//! usage comparable.

use crate::engine;
use crate::experiments::{banner, pct_delta};
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::table::arrow_delta;
use sim_report::{CsvWriter, TextTable};
use std::io;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("§6.5", "Codec impact: H.265 encodings (LTE traces)");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    let path = results_dir().join("exp_codec_h265.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "video", "scheme", "q4", "low_pct", "rebuf_s", "qchange", "data_mb",
        ],
    )?;
    let mut table = TextTable::new(vec![
        "video (H.265)",
        "Q4 quality",
        "low-qual %",
        "stall %",
        "qual chg %",
        "data %",
    ]);
    let mut h264_vs_h265 = TextTable::new(vec![
        "video",
        "CAVA Q4 h264",
        "CAVA Q4 h265",
        "rebuf h264",
        "rebuf h265",
    ]);
    for base in ["ED", "BBB", "ToS", "Sintel"] {
        let v265 = engine::video(&format!("{base}-ffmpeg-h265"));
        let v264 = engine::video(&format!("{base}-ffmpeg-h264"));
        let schemes = [
            SchemeKind::Cava,
            SchemeKind::RobustMpc,
            SchemeKind::PandaMaxMin,
        ];
        let results: Vec<_> = schemes
            .iter()
            .map(|&s| run_scheme(s, &v265, &traces, &qoe, &player))
            .collect();
        for (scheme, sessions) in schemes.iter().zip(&results) {
            csv.write_str_row(&[
                v265.name(),
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
            (1..3)
                .map(|i| {
                    let other = mean_of(metric, &results[i]);
                    if absolute {
                        arrow_delta(cava - other, "", 0)
                    } else {
                        arrow_delta(pct_delta(cava, other), "%", 0)
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        table.add_row(vec![
            base.to_string(),
            cell(Metric::Q4Quality, true),
            cell(Metric::LowQualityPct, false),
            cell(Metric::RebufferS, false),
            cell(Metric::QualityChange, false),
            cell(Metric::DataUsageMb, false),
        ]);

        // "Performance under H.265 is better than under H.264" — verify for
        // CAVA.
        let cava264 = run_scheme(SchemeKind::Cava, &v264, &traces, &qoe, &player);
        h264_vs_h265.add_row(vec![
            base.to_string(),
            format!("{:.1}", mean_of(Metric::Q4Quality, &cava264)),
            format!("{:.1}", mean_of(Metric::Q4Quality, &results[0])),
            format!("{:.1}", mean_of(Metric::RebufferS, &cava264)),
            format!("{:.1}", mean_of(Metric::RebufferS, &results[0])),
        ]);
    }
    csv.flush()?;
    print!("{table}");
    println!("cells: CAVA vs RobustMPC, CAVA vs PANDA/CQ max-min");
    println!("paper: Q4 ↑7-12; low-qual ↓51-82%; rebuf ↓52-91%; qchg ↓27-72%; data similar");
    println!();
    print!("{h264_vs_h265}");
    println!("paper: every scheme does better under H.265 (lower bitrate requirement)");
    println!("wrote {}", path.display());
    Ok(())
}
