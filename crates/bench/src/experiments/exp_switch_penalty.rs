//! Switch-penalty ablation (extension) — §5.3's design discussion, measured.
//!
//! Eq. 3's second term penalizes track changes. The paper argues for
//! `(r(ℓ_t) − r(ℓ_{t−1}))²` over two alternatives it names: the raw level
//! index (`ℓ_t − ℓ_{t−1}`, "whose unit is however different from that of the
//! first term") and per-chunk bitrates (`R_t(ℓ_t) − R_{t−1}(ℓ_{t−1})`,
//! "not meaningful for VBR videos since even chunks in the same track can
//! have highly dynamic bitrate"). This experiment runs all four forms
//! (including no penalty) and shows the argument empirically: per-chunk
//! bitrates inject VBR noise into the penalty and oscillate; no penalty
//! oscillates most.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_with_factory, Metric, NetworkRegime};
use crate::results_dir;
use abr_sim::PlayerConfig;
use cava_core::{Cava, CavaConfig, SwitchPenaltyMode};
use sim_report::{CsvWriter, TextTable};
use std::io;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: switch penalty",
        "Eq. 3 track-change penalty forms (§5.3)",
    );
    let video = engine::video("ED-ffmpeg-h264");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    let modes = [
        (
            "declared bitrate (paper)",
            SwitchPenaltyMode::DeclaredBitrate,
        ),
        ("level index", SwitchPenaltyMode::LevelIndex),
        ("per-chunk bitrate", SwitchPenaltyMode::PerChunkBitrate),
        ("none", SwitchPenaltyMode::None),
    ];
    let path = results_dir().join("exp_switch_penalty.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "mode",
            "q4",
            "qchange",
            "level_switches",
            "rebuf_s",
            "data_mb",
        ],
    )?;
    let mut table = TextTable::new(vec![
        "penalty form",
        "Q4 qual",
        "qual chg",
        "level switches",
        "rebuf (s)",
        "data (MB)",
    ]);
    for (label, mode) in modes {
        let config = CavaConfig {
            switch_penalty: mode,
            ..CavaConfig::paper_default()
        };
        let sessions = run_with_factory(
            &move || Box::new(Cava::new(config)),
            &video,
            &traces,
            &qoe,
            &player,
        );
        let switches = sessions
            .iter()
            .map(|m| m.level_switches as f64)
            .sum::<f64>()
            / sessions.len() as f64;
        table.add_row(vec![
            label.to_string(),
            format!("{:.1}", crate::mean_of(Metric::Q4Quality, &sessions)),
            format!("{:.2}", crate::mean_of(Metric::QualityChange, &sessions)),
            format!("{switches:.0}"),
            format!("{:.1}", crate::mean_of(Metric::RebufferS, &sessions)),
            format!("{:.0}", crate::mean_of(Metric::DataUsageMb, &sessions)),
        ]);
        csv.write_str_row(&[
            label,
            &format!("{:.2}", crate::mean_of(Metric::Q4Quality, &sessions)),
            &format!("{:.3}", crate::mean_of(Metric::QualityChange, &sessions)),
            &format!("{switches:.1}"),
            &format!("{:.2}", crate::mean_of(Metric::RebufferS, &sessions)),
            &format!("{:.1}", crate::mean_of(Metric::DataUsageMb, &sessions)),
        ])?;
    }
    csv.flush()?;
    print!("{table}");
    println!("paper §5.3: declared-average bitrates are the right units; per-chunk bitrates");
    println!("import VBR noise into the penalty and level indices are mis-scaled");
    println!("wrote {}", path.display());
    Ok(())
}
