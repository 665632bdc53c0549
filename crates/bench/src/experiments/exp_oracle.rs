//! Oracle-prediction headroom (extension) — the flip side of §6.7.
//!
//! §6.7 injects *errors* into the bandwidth estimate; this experiment
//! removes them entirely: the estimate becomes the true mean bandwidth of
//! the next 20 s of the trace — an upper bound on what learned predictors
//! (the paper's CS2P and Oboe citations) could deliver. The
//! question: how much of each scheme's deficit is *prediction* (fixable by
//! better forecasting) versus *decision structure* (what CAVA's principles
//! address)? If CAVA-with-harmonic-mean already sits near CAVA-with-oracle,
//! its advantage is structural — the paper's §6.7 interpretation, measured
//! from the other side.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::{CsvWriter, TextTable};
use std::io;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: oracle",
        "Perfect bandwidth prediction vs harmonic mean",
    );
    let video = engine::video("ED-ffmpeg-h264");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();

    let path = results_dir().join("exp_oracle.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["scheme", "predictor", "q4", "all", "rebuf_s", "low_pct"],
    )?;
    let mut table = TextTable::new(vec![
        "scheme",
        "predictor",
        "Q4 qual",
        "all qual",
        "rebuf (s)",
        "low-q %",
    ]);
    for scheme in [
        SchemeKind::Cava,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxMin,
    ] {
        for (label, player) in [
            ("harmonic-5", PlayerConfig::default()),
            (
                "oracle-20s",
                PlayerConfig {
                    oracle_horizon_s: Some(20.0),
                    ..PlayerConfig::default()
                },
            ),
        ] {
            let sessions = run_scheme(scheme, &video, &traces, &qoe, &player);
            table.add_row(vec![
                scheme.name().to_string(),
                label.to_string(),
                format!("{:.1}", mean_of(Metric::Q4Quality, &sessions)),
                format!("{:.1}", mean_of(Metric::AllQuality, &sessions)),
                format!("{:.1}", mean_of(Metric::RebufferS, &sessions)),
                format!("{:.1}", mean_of(Metric::LowQualityPct, &sessions)),
            ]);
            csv.write_str_row(&[
                scheme.name(),
                label,
                &format!("{:.2}", mean_of(Metric::Q4Quality, &sessions)),
                &format!("{:.2}", mean_of(Metric::AllQuality, &sessions)),
                &format!("{:.2}", mean_of(Metric::RebufferS, &sessions)),
                &format!("{:.2}", mean_of(Metric::LowQualityPct, &sessions)),
            ])?;
        }
        table.add_separator();
    }
    csv.flush()?;
    print!("{table}");
    println!("small oracle deltas = the scheme's behaviour is structural, not prediction-bound");
    println!("wrote {}", path.display());
    Ok(())
}
