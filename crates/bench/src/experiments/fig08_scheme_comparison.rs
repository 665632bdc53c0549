//! Fig. 8 — the main comparison: CAVA vs MPC, RobustMPC, and both PANDA/CQ
//! variants on Elephant Dream (FFmpeg, H.264) across the LTE traces, as
//! CDFs over the five §6.1 metrics (data usage is plotted relative to CAVA,
//! as in the paper's panel (e)).

use crate::engine::{self, PreparedVideo};
use crate::experiments::banner;
use crate::harness::{metric_cdf, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::metrics::QoeMetrics;
use abr_sim::PlayerConfig;
use sim_report::{AsciiChart, Cdf, CsvWriter, Series, TextTable};
use std::collections::BTreeMap;
use std::io;

/// Run the Fig. 8 grid — all five schemes × all LTE traces as one flattened
/// task queue on the engine — and return per-scheme session metrics (shared
/// with Fig. 9, which plots different columns of the same runs). Ordered
/// map: iteration order is deterministic (abr-lint rule R2).
pub fn run_grid(video: &PreparedVideo) -> BTreeMap<SchemeKind, Vec<QoeMetrics>> {
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    engine::run_grid(&SchemeKind::FIG8, video, &traces, &qoe, &player)
}

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "Fig. 8",
        "Performance comparison (ED, FFmpeg, H.264) under LTE traces",
    );
    let video = engine::video("ED-ffmpeg-h264");
    let grid = run_grid(&video);
    let cava = &grid[&SchemeKind::Cava];

    // Summary table over the five panels.
    let mut table = TextTable::new(vec![
        "scheme",
        "Q4 quality (mean)",
        "Q4 good % (>60)",
        "low-qual % (mean)",
        "traces w/o rebuf %",
        "rebuffer mean (s)",
        "qual change (mean)",
        "data rel CAVA (MB, mean)",
    ]);
    let cava_data: Vec<f64> = cava
        .iter()
        .map(|m| m.data_usage_bytes as f64 / 1.0e6)
        .collect();
    for scheme in SchemeKind::FIG8 {
        let sessions = &grid[&scheme];
        let no_rebuf =
            sessions.iter().filter(|m| m.rebuffer_s == 0.0).count() as f64 / sessions.len() as f64;
        let q4_good = sessions.iter().map(|m| m.q4_good_pct).sum::<f64>() / sessions.len() as f64;
        let rel_data: f64 = sessions
            .iter()
            .zip(&cava_data)
            .map(|(m, c)| m.data_usage_bytes as f64 / 1.0e6 - c)
            .sum::<f64>()
            / sessions.len() as f64;
        table.add_row(vec![
            scheme.name().to_string(),
            format!("{:.1}", crate::mean_of(Metric::Q4Quality, sessions)),
            format!("{q4_good:.0}%"),
            format!("{:.1}", crate::mean_of(Metric::LowQualityPct, sessions)),
            format!("{:.0}%", 100.0 * no_rebuf),
            format!("{:.1}", crate::mean_of(Metric::RebufferS, sessions)),
            format!("{:.2}", crate::mean_of(Metric::QualityChange, sessions)),
            format!("{rel_data:+.1}"),
        ]);
    }
    print!("{table}");
    println!("paper: CAVA leads on Q4 quality / rebuffering / quality change;");
    println!(
        "       85% of traces rebuffer-free under CAVA vs 20% (RobustMPC), 68% (PANDA max-min)"
    );

    // Statistical support (beyond the paper): paired sign tests and 95%
    // bootstrap CIs for CAVA's per-trace advantage.
    let cava_q4: Vec<f64> = cava.iter().map(|m| m.q4_quality_mean).collect();
    let cava_rebuf: Vec<f64> = cava.iter().map(|m| m.rebuffer_s).collect();
    let mut sig = TextTable::new(vec![
        "CAVA vs",
        "ΔQ4 95% CI",
        "ΔQ4 sign-test p",
        "Δrebuf 95% CI (s)",
        "Δrebuf sign-test p",
    ]);
    for scheme in SchemeKind::FIG8.iter().skip(1) {
        let other_q4: Vec<f64> = grid[scheme].iter().map(|m| m.q4_quality_mean).collect();
        let other_rebuf: Vec<f64> = grid[scheme].iter().map(|m| m.rebuffer_s).collect();
        let fmt_ci = |ci: Option<(f64, f64)>| match ci {
            Some((lo, hi)) => format!("[{lo:+.1}, {hi:+.1}]"),
            None => "-".to_string(),
        };
        let fmt_p = |p: Option<f64>| match p {
            Some(p) => format!("{p:.1e}"),
            None => "-".to_string(),
        };
        sig.add_row(vec![
            scheme.name().to_string(),
            fmt_ci(sim_report::stats::bootstrap_mean_diff_ci(
                &cava_q4, &other_q4, 0.95, 2000, 7,
            )),
            fmt_p(sim_report::stats::paired_sign_test(&cava_q4, &other_q4)),
            fmt_ci(sim_report::stats::bootstrap_mean_diff_ci(
                &cava_rebuf,
                &other_rebuf,
                0.95,
                2000,
                7,
            )),
            fmt_p(sim_report::stats::paired_sign_test(
                &cava_rebuf,
                &other_rebuf,
            )),
        ]);
    }
    print!("{sig}");
    println!("positive ΔQ4 / negative Δrebuf favor CAVA; CIs from 2000 paired bootstrap resamples");

    // CSVs: one file per panel with (scheme, value, cdf) rows.
    for (metric, fname) in [
        (Metric::Q4Quality, "fig08a_q4_quality"),
        (Metric::LowQualityPct, "fig08b_low_quality_pct"),
        (Metric::RebufferS, "fig08c_rebuffering"),
        (Metric::QualityChange, "fig08d_quality_change"),
    ] {
        let path = results_dir().join(format!("{fname}.csv"));
        let mut csv = CsvWriter::create(&path, &["scheme", "value", "cdf"])?;
        for scheme in SchemeKind::FIG8 {
            let cdf = metric_cdf(metric, &grid[&scheme]);
            for (x, fx) in cdf.points_downsampled(100) {
                csv.write_str_row(&[scheme.name(), &format!("{x:.4}"), &format!("{fx:.4}")])?;
            }
        }
        csv.flush()?;
    }
    // Panel (e): relative data usage.
    let path = results_dir().join("fig08e_relative_data_usage.csv");
    let mut csv = CsvWriter::create(&path, &["scheme", "value_mb", "cdf"])?;
    for scheme in SchemeKind::FIG8 {
        let rel: Vec<f64> = grid[&scheme]
            .iter()
            .zip(&cava_data)
            .map(|(m, c)| m.data_usage_bytes as f64 / 1.0e6 - c)
            .collect();
        let cdf = Cdf::new(&rel).expect("non-empty");
        for (x, fx) in cdf.points_downsampled(100) {
            csv.write_str_row(&[scheme.name(), &format!("{x:.4}"), &format!("{fx:.4}")])?;
        }
    }
    csv.flush()?;

    // ASCII: panel (a).
    let mut chart = AsciiChart::new("CDF of Q4 chunk quality", 80, 18)
        .x_label("Q4 quality (VMAF, phone)")
        .y_label("CDF");
    for (scheme, glyph) in [
        (SchemeKind::Cava, 'c'),
        (SchemeKind::RobustMpc, 'R'),
        (SchemeKind::PandaMaxMin, 'p'),
    ] {
        let cdf = metric_cdf(Metric::Q4Quality, &grid[&scheme]);
        chart.add_series(Series::new(scheme.name(), glyph, cdf.points()));
    }
    print!("{chart}");
    println!("wrote {}", results_dir().join("fig08*.csv").display());
    Ok(())
}
