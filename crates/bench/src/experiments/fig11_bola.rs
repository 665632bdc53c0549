//! Fig. 11 — the dash.js study (§6.8): CAVA against the three BOLA-E
//! variants (declared-average, declared-peak, and actual-segment-size
//! bitrate views) on Big Buck Bunny (YouTube, H.264) under LTE traces.
//!
//! Paper findings this reproduces: BOLA-E (peak) is the most conservative,
//! BOLA-E (avg) the most aggressive, BOLA-E (seg) in between but with the
//! heaviest quality oscillation ("simply plugging in the individual chunk
//! sizes is insufficient"); CAVA wins every metric except raw data usage.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{metric_cdf, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::{AsciiChart, CsvWriter, Series, TextTable};
use std::io;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "Fig. 11",
        "CAVA vs BOLA-E variants (BBB, YouTube, H.264, LTE)",
    );
    let video = engine::video("BBB-youtube-h264");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    // §6.8 runs in dash.js: same startup threshold and buffer cap as the
    // simulation study, so the default player config applies.
    let player = PlayerConfig::default();

    let mut table = TextTable::new(vec![
        "scheme",
        "Q4 quality",
        "Q1-Q3 quality",
        "low-qual %",
        "rebuffer (s)",
        "qual change",
        "data (MB)",
    ]);
    let metrics = [
        (Metric::Q4Quality, "fig11a_q4_quality"),
        (Metric::Q13Quality, "fig11b_q13_quality"),
        (Metric::LowQualityPct, "fig11c_low_quality_pct"),
        (Metric::RebufferS, "fig11d_rebuffering"),
        (Metric::QualityChange, "fig11e_quality_change"),
        (Metric::DataUsageMb, "fig11f_data_usage"),
    ];
    let mut all_sessions = Vec::new();
    for scheme in SchemeKind::FIG11 {
        let sessions = run_scheme(scheme, &video, &traces, &qoe, &player);
        table.add_row(vec![
            scheme.name().to_string(),
            format!("{:.1}", crate::mean_of(Metric::Q4Quality, &sessions)),
            format!("{:.1}", crate::mean_of(Metric::Q13Quality, &sessions)),
            format!("{:.1}", crate::mean_of(Metric::LowQualityPct, &sessions)),
            format!("{:.1}", crate::mean_of(Metric::RebufferS, &sessions)),
            format!("{:.2}", crate::mean_of(Metric::QualityChange, &sessions)),
            format!("{:.0}", crate::mean_of(Metric::DataUsageMb, &sessions)),
        ]);
        all_sessions.push((scheme, sessions));
    }
    print!("{table}");
    println!("paper: CAVA wins all metrics except data usage; seg > avg > peak on oscillation;");
    println!("       peak view most conservative, avg most aggressive");

    for (metric, fname) in metrics {
        let path = results_dir().join(format!("{fname}.csv"));
        let mut csv = CsvWriter::create(&path, &["scheme", "value", "cdf"])?;
        for (scheme, sessions) in &all_sessions {
            let cdf = metric_cdf(metric, sessions);
            for (x, fx) in cdf.points_downsampled(100) {
                csv.write_str_row(&[scheme.name(), &format!("{x:.4}"), &format!("{fx:.4}")])?;
            }
        }
        csv.flush()?;
    }

    let mut chart = AsciiChart::new(
        "CDF of Q4 quality (c = CAVA, s = BOLA-E seg, p = peak)",
        80,
        16,
    )
    .x_label("Q4 quality (VMAF, phone)")
    .y_label("CDF");
    for (scheme, glyph) in [
        (SchemeKind::Cava, 'c'),
        (SchemeKind::BolaESeg, 's'),
        (SchemeKind::BolaEPeak, 'p'),
    ] {
        let sessions = &all_sessions
            .iter()
            .find(|(s, _)| *s == scheme)
            .expect("scheme in FIG11")
            .1;
        chart.add_series(Series::new(
            scheme.name(),
            glyph,
            metric_cdf(Metric::Q4Quality, sessions).points(),
        ));
    }
    print!("{chart}");
    println!("wrote {}", results_dir().join("fig11*.csv").display());
    Ok(())
}
