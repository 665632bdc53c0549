//! Fig. 4 — per-chunk quality timeline of two myopic schemes (BBA-1, RBA)
//! against CAVA on one LTE trace, with Q4 positions marked.
//!
//! The paper's illustration of the non-myopic principle: myopic schemes
//! "mechanically select very high (low) levels for chunks with small
//! (large) sizes — exactly the opposite to what is desirable"; in its
//! example the average Q4 VMAF is 49 (BBA-1) and 52 (RBA) versus 65 for
//! CAVA, with 6 s / 4 s / 0 s of rebuffering.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_sessions, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::metrics::chunk_qualities;
use abr_sim::PlayerConfig;
use sim_report::{AsciiChart, CsvWriter, Series, TextTable};
use std::io;
use vbr_video::Classification;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "Fig. 4",
        "Two myopic schemes and CAVA (per-chunk VMAF timeline)",
    );
    let video = engine::video("ED-youtube-h264");
    let classification = Classification::from_video(&video);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    // Pick a moderately constrained trace: mean bandwidth near the middle of
    // the ladder, so schemes must make real choices.
    let traces = engine::traces(NetworkRegime::Lte);
    let trace = traces
        .iter()
        .filter(|t| t.mean_bps() > 1.2e6 && t.mean_bps() < 2.5e6)
        .max_by(|a, b| a.mean_bps().partial_cmp(&b.mean_bps()).expect("finite"))
        .unwrap_or(&traces[0])
        .clone();
    println!(
        "trace {} (mean {:.2} Mbps)",
        trace.name(),
        trace.mean_bps() / 1e6
    );

    let schemes = [SchemeKind::Bba1, SchemeKind::Rba, SchemeKind::Cava];
    let mut table = TextTable::new(vec!["scheme", "avg Q4 VMAF", "rebuffering (s)"]);
    let mut timelines: Vec<(String, Vec<f64>)> = Vec::new();
    for scheme in schemes {
        let session = run_sessions(scheme, &video, std::slice::from_ref(&trace), &qoe, &player)
            .pop()
            .expect("one session");
        let qualities = chunk_qualities(&session, &video, qoe.vmaf_model);
        let q4: Vec<f64> = (0..video.n_chunks())
            .filter(|&i| classification.is_q4(i))
            .map(|i| qualities[i])
            .collect();
        let q4_mean = q4.iter().sum::<f64>() / q4.len() as f64;
        table.add_row(vec![
            scheme.name().to_string(),
            format!("{q4_mean:.1}"),
            format!("{:.1}", session.total_stall_s),
        ]);
        timelines.push((scheme.name().to_string(), qualities));
    }
    print!("{table}");
    println!("paper's example: BBA-1 49 / RBA 52 / CAVA 65; rebuffering 6s / 4s / 0s");

    // ASCII: CAVA vs RBA timelines, Q4 positions marked on the floor.
    let mut chart = AsciiChart::new(
        "per-chunk VMAF ('c' = CAVA, 'r' = RBA, '^' = Q4 position)",
        100,
        20,
    )
    .x_label("chunk index")
    .y_label("VMAF");
    let series_points = |qs: &[f64]| -> Vec<(f64, f64)> {
        qs.iter().enumerate().map(|(i, &q)| (i as f64, q)).collect()
    };
    chart.add_series(Series::new("RBA", 'r', series_points(&timelines[1].1)));
    chart.add_series(Series::new("CAVA", 'c', series_points(&timelines[2].1)));
    let q4_marks: Vec<(f64, f64)> = (0..video.n_chunks())
        .filter(|&i| classification.is_q4(i))
        .map(|i| (i as f64, 0.0))
        .collect();
    chart.add_series(Series::new("Q4 position", '^', q4_marks));
    print!("{chart}");

    // CSV.
    let path = results_dir().join("fig04_myopic.csv");
    let mut csv = CsvWriter::create(&path, &["chunk", "is_q4", "bba1", "rba", "cava"])?;
    for i in 0..video.n_chunks() {
        csv.write_numeric_row(&[
            i as f64,
            if classification.is_q4(i) { 1.0 } else { 0.0 },
            timelines[0].1[i],
            timelines[1].1[i],
            timelines[2].1[i],
        ])?;
    }
    csv.flush()?;
    println!("wrote {}", path.display());
    Ok(())
}
