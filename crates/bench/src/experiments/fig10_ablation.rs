//! Fig. 10 — contribution of each design principle (§6.4): CAVA-p1 (non-
//! myopic only), CAVA-p12 (+differential treatment), CAVA-p123 (all three).
//!
//! Panel (a): per-Q4-chunk quality of p12/p123 *relative to p1*, pooled
//! across traces — the paper sees ≈ 40 % of Q4 chunks improve and only ≈ 5 %
//! degrade. Panel (b): per-trace rebuffering of p123 relative to p12 over
//! the traces where either variant rebuffers — p123 reduces rebuffering in
//! a majority of them (up to 20 s in the paper's example).

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_sessions, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::metrics::chunk_qualities;
use abr_sim::PlayerConfig;
use sim_report::{Cdf, CsvWriter, TextTable};
use std::io;
use vbr_video::Classification;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "Fig. 10",
        "Impact of the design principles (CAVA-p1 / p12 / p123)",
    );
    let video = engine::video("ED-ffmpeg-h264");
    let classification = Classification::from_video(&video);
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    let variants = [SchemeKind::CavaP1, SchemeKind::CavaP12, SchemeKind::Cava];
    let sessions: Vec<_> = variants
        .iter()
        .map(|&s| run_sessions(s, &video, &traces, &qoe, &player))
        .collect();

    // Panel (a): per-Q4-chunk quality deltas vs p1, pooled across traces.
    let q4_positions: Vec<usize> = (0..video.n_chunks())
        .filter(|&i| classification.is_q4(i))
        .collect();
    let per_chunk = |variant: usize| -> Vec<Vec<f64>> {
        sessions[variant]
            .iter()
            .map(|s| chunk_qualities(s, &video, qoe.vmaf_model))
            .collect()
    };
    let base = per_chunk(0);
    let mut table = TextTable::new(vec![
        "variant",
        "Q4 chunks improved %",
        "Q4 chunks degraded %",
        "median delta of improved",
    ]);
    let path_a = results_dir().join("fig10a_relative_q4_quality.csv");
    let mut csv_a = CsvWriter::create(&path_a, &["variant", "delta", "cdf"])?;
    for (vi, name) in [(1usize, "CAVA-p12"), (2, "CAVA-p123")] {
        let qs = per_chunk(vi);
        let mut deltas = Vec::new();
        for (trace_idx, trace_qs) in qs.iter().enumerate() {
            for &pos in &q4_positions {
                deltas.push(trace_qs[pos] - base[trace_idx][pos]);
            }
        }
        let improved: Vec<f64> = deltas.iter().cloned().filter(|&d| d > 1.0).collect();
        let degraded = deltas.iter().filter(|&&d| d < -1.0).count();
        let mut imp_sorted = improved.clone();
        imp_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        table.add_row(vec![
            name.to_string(),
            format!(
                "{:.0}%",
                100.0 * improved.len() as f64 / deltas.len() as f64
            ),
            format!("{:.0}%", 100.0 * degraded as f64 / deltas.len() as f64),
            if imp_sorted.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", imp_sorted[imp_sorted.len() / 2])
            },
        ]);
        let cdf = Cdf::new(&deltas).expect("non-empty");
        for (x, fx) in cdf.points_downsampled(200) {
            csv_a.write_str_row(&[name, &format!("{x:.3}"), &format!("{fx:.4}")])?;
        }
    }
    csv_a.flush()?;
    print!("{table}");
    println!("paper: ≈40% of Q4 chunks improve under p12/p123; only ≈5% degrade");

    // Panel (b): rebuffering of p123 relative to p12, on traces where either
    // rebuffers.
    let rebuf_p12: Vec<f64> = sessions[1].iter().map(|s| s.total_stall_s).collect();
    let rebuf_p123: Vec<f64> = sessions[2].iter().map(|s| s.total_stall_s).collect();
    let mut deltas_b = Vec::new();
    for (a, b) in rebuf_p12.iter().zip(&rebuf_p123) {
        if *a > 0.0 || *b > 0.0 {
            deltas_b.push(b - a);
        }
    }
    if deltas_b.is_empty() {
        println!("panel (b): no trace rebuffered under either variant — nothing to compare");
    } else {
        let improved = deltas_b.iter().filter(|&&d| d < 0.0).count();
        let max_cut = deltas_b.iter().cloned().fold(0.0f64, f64::min);
        println!(
            "panel (b): {} of {} rebuffering traces improve under p123 (largest cut {:.1} s)",
            improved,
            deltas_b.len(),
            -max_cut
        );
        println!("paper: p123 cuts rebuffering on 55% of such traces, by up to 20 s");
        let path_b = results_dir().join("fig10b_relative_rebuffering.csv");
        let mut csv_b = CsvWriter::create(&path_b, &["delta_s", "cdf"])?;
        let cdf = Cdf::new(&deltas_b).expect("non-empty");
        for (x, fx) in cdf.points() {
            csv_b.write_numeric_row(&[x, fx])?;
        }
        csv_b.flush()?;
    }
    println!("wrote {}", results_dir().join("fig10*.csv").display());
    Ok(())
}
