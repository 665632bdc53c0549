//! §6.2 (text) — impact of the outer-controller window size `W′`.
//!
//! The paper: "the amount of rebuffering decreases as W′ increases since the
//! controller reacts more proactively …; for some videos the amount of
//! rebuffering may start to increase as W′ increases further" (very long
//! windows average the variability away, Eq. 5's increment vanishes).
//! `W′ = 200 s` is the chosen value.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_with_factory, Metric, NetworkRegime};
use crate::results_dir;
use abr_sim::PlayerConfig;
use cava_core::{Cava, CavaConfig};
use sim_report::{CsvWriter, TextTable};
use std::io;

/// W′ sweep grid in seconds (0 disables the proactive adjustment).
pub const OUTER_SWEEP_S: [f64; 6] = [0.0, 40.0, 100.0, 200.0, 400.0, 600.0];

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("§6.2", "Impact of outer controller window size W'");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    let path = results_dir().join("exp_outer_window.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["video", "w_prime_s", "rebuf_mean", "rebuf_p90", "q4_mean"],
    )?;
    for video in [
        engine::video("ED-ffmpeg-h264"),
        engine::video("ED-youtube-h264"),
    ] {
        println!("--- {}", video.name());
        let mut table = TextTable::new(vec![
            "W' (s)",
            "rebuffer mean (s)",
            "rebuffer p90 (s)",
            "Q4 quality mean",
        ]);
        for w in OUTER_SWEEP_S {
            let config = CavaConfig {
                outer_window_s: w,
                enable_proactive: w > 0.0,
                ..CavaConfig::paper_default()
            };
            let sessions = run_with_factory(
                &move || Box::new(Cava::new(config)),
                &video,
                &traces,
                &qoe,
                &player,
            );
            let rebuf = crate::harness::metric_cdf(Metric::RebufferS, &sessions);
            let q4 = crate::harness::mean_of(Metric::Q4Quality, &sessions);
            table.add_row(vec![
                format!("{w:.0}"),
                format!("{:.2}", rebuf.mean()),
                format!("{:.2}", rebuf.quantile(0.90)),
                format!("{q4:.1}"),
            ]);
            csv.write_str_row(&[
                video.name(),
                &format!("{w:.0}"),
                &format!("{:.4}", rebuf.mean()),
                &format!("{:.4}", rebuf.quantile(0.90)),
                &format!("{q4:.2}"),
            ])?;
        }
        print!("{table}");
    }
    csv.flush()?;
    println!("paper: rebuffering falls as W' grows, then can rise again for very large W'");
    println!("wrote {}", path.display());
    Ok(())
}
