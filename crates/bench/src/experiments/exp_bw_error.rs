//! §6.7 — impact of bandwidth-prediction error.
//!
//! The predicted bandwidth is replaced by `C_t · U(1 − err, 1 + err)` with
//! `err ∈ {0, 25 %, 50 %}`. Paper findings: CAVA is insensitive (the PID
//! loop keeps correcting the buffer error regardless of what the predictor
//! claims), while MPC rebuffers and over-downloads significantly at 50 %,
//! and PANDA/CQ max-min rebuffers noticeably more.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::{CsvWriter, TextTable};
use std::io;

/// The §6.7 error grid.
pub const ERROR_SWEEP: [f64; 3] = [0.0, 0.25, 0.50];

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("§6.7", "Impact of bandwidth prediction error");
    let video = engine::video("ED-ffmpeg-h264");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();

    let schemes = [
        SchemeKind::Cava,
        SchemeKind::Mpc,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxMin,
    ];
    let path = results_dir().join("exp_bw_error.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["scheme", "err", "q4", "low_pct", "rebuf_s", "data_mb"],
    )?;
    let mut table = TextTable::new(vec![
        "scheme",
        "err",
        "Q4 quality",
        "low-qual %",
        "rebuffer (s)",
        "data (MB)",
    ]);
    for scheme in schemes {
        for err in ERROR_SWEEP {
            let player = PlayerConfig {
                bandwidth_error: if err > 0.0 { Some((err, 1234)) } else { None },
                ..PlayerConfig::default()
            };
            let sessions = run_scheme(scheme, &video, &traces, &qoe, &player);
            table.add_row(vec![
                scheme.name().to_string(),
                format!("{:.0}%", err * 100.0),
                format!("{:.1}", mean_of(Metric::Q4Quality, &sessions)),
                format!("{:.1}", mean_of(Metric::LowQualityPct, &sessions)),
                format!("{:.1}", mean_of(Metric::RebufferS, &sessions)),
                format!("{:.0}", mean_of(Metric::DataUsageMb, &sessions)),
            ]);
            csv.write_str_row(&[
                scheme.name(),
                &format!("{err}"),
                &format!("{:.2}", mean_of(Metric::Q4Quality, &sessions)),
                &format!("{:.2}", mean_of(Metric::LowQualityPct, &sessions)),
                &format!("{:.2}", mean_of(Metric::RebufferS, &sessions)),
                &format!("{:.1}", mean_of(Metric::DataUsageMb, &sessions)),
            ])?;
        }
        table.add_separator();
    }
    csv.flush()?;
    print!("{table}");
    println!("paper: CAVA's metrics at err=50% ≈ err=0 (control-theoretic underpinning);");
    println!("       MPC rebuffers and uses much more data at 50%; PANDA max-min rebuffers noticeably more");
    println!("wrote {}", path.display());
    Ok(())
}
