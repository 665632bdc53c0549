//! Fig. 7 — impact of the inner-controller window size `W` (Elephant Dream,
//! FFmpeg, H.264, LTE traces).
//!
//! The paper's finding: as `W` grows, Q4 quality first improves sharply
//! (averaging smooths bitrate, letting higher levels through for large
//! chunks) then flattens; rebuffering rises slightly and then sharply
//! (CAVA stops reacting to bitrate swings). `W = 40 s` is the chosen
//! tradeoff.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_with_factory, Metric, NetworkRegime};
use crate::results_dir;
use abr_sim::PlayerConfig;
use cava_core::{Cava, CavaConfig};
use sim_report::{AsciiChart, CsvWriter, Series, TextTable};
use std::io;

/// The sweep grid (seconds), matching the figure's 2–160 s axis.
pub const WINDOW_SWEEP_S: [f64; 7] = [2.0, 10.0, 20.0, 40.0, 80.0, 120.0, 160.0];

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("Fig. 7", "Impact of inner controller window size W");
    let video = engine::video("ED-ffmpeg-h264");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    let mut table = TextTable::new(vec![
        "W (s)",
        "Q4 quality mean",
        "Q4 p10",
        "Q4 p90",
        "rebuffer mean (s)",
        "rebuffer p10",
        "rebuffer p90",
    ]);
    let path = results_dir().join("fig07_inner_window.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "w_s",
            "q4_mean",
            "q4_p10",
            "q4_p90",
            "rebuf_mean",
            "rebuf_p10",
            "rebuf_p90",
        ],
    )?;
    let mut q4_series = Vec::new();
    let mut rebuf_series = Vec::new();
    for w in WINDOW_SWEEP_S {
        let config = CavaConfig {
            inner_window_s: w,
            ..CavaConfig::paper_default()
        };
        let sessions = run_with_factory(
            &move || Box::new(Cava::new(config)),
            &video,
            &traces,
            &qoe,
            &player,
        );
        let q4 = crate::harness::metric_cdf(Metric::Q4Quality, &sessions);
        let rebuf = crate::harness::metric_cdf(Metric::RebufferS, &sessions);
        table.add_row(vec![
            format!("{w:.0}"),
            format!("{:.1}", q4.mean()),
            format!("{:.1}", q4.quantile(0.10)),
            format!("{:.1}", q4.quantile(0.90)),
            format!("{:.1}", rebuf.mean()),
            format!("{:.1}", rebuf.quantile(0.10)),
            format!("{:.1}", rebuf.quantile(0.90)),
        ]);
        csv.write_numeric_row(&[
            w,
            q4.mean(),
            q4.quantile(0.10),
            q4.quantile(0.90),
            rebuf.mean(),
            rebuf.quantile(0.10),
            rebuf.quantile(0.90),
        ])?;
        q4_series.push((w, q4.mean()));
        rebuf_series.push((w, rebuf.mean()));
    }
    csv.flush()?;
    print!("{table}");
    println!("paper: Q4 quality rises then flattens; rebuffering grows sharply at large W");

    let mut chart = AsciiChart::new("W sweep (q = Q4 quality, r = rebuffering s)", 70, 16)
        .x_label("window size W (s)");
    chart.add_series(Series::new("Q4 quality", 'q', q4_series));
    chart.add_series(Series::new("rebuffering", 'r', rebuf_series));
    print!("{chart}");
    println!("wrote {}", path.display());
    Ok(())
}
