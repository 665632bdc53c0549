//! Fig. 6(b) (illustration → measurement): the outer controller's dynamic
//! target buffer level rising *ahead of* clusters of large chunks, and the
//! actual buffer following it.
//!
//! The paper presents Fig. 6(b) as a schematic; with the instrumented CAVA
//! ([`cava_core::probe::InstrumentedCava`]) we can plot the real thing: per
//! decision, the reference-track chunk size, the dynamic target `x_r(t)`,
//! and the buffer level.

use crate::engine;
use crate::experiments::banner;
use crate::harness::NetworkRegime;
use crate::results_dir;
use abr_sim::Simulator;
use cava_core::probe::InstrumentedCava;
use cava_core::Cava;
use sim_report::{AsciiChart, CsvWriter, Series};
use std::io;
use vbr_video::Manifest;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "Fig. 6(b)",
        "Dynamic target buffer level vs upcoming chunk sizes",
    );
    let video = engine::video("ED-ffmpeg-h264");
    let manifest = Manifest::from_video(&video);
    let reference = manifest.n_tracks() / 2;

    // A mid-grade trace so the buffer actually has dynamics.
    let traces = engine::traces(NetworkRegime::Lte);
    let trace = traces
        .iter()
        .filter(|t| t.mean_bps() > 1.5e6 && t.mean_bps() < 3.0e6)
        .max_by(|a, b| a.mean_bps().partial_cmp(&b.mean_bps()).expect("finite"))
        .unwrap_or(&traces[0])
        .clone();
    println!(
        "trace {} (mean {:.2} Mbps)",
        trace.name(),
        trace.mean_bps() / 1e6
    );

    let mut probe = InstrumentedCava::new(Cava::paper_default());
    let session = Simulator::paper_default().run(&mut probe, &manifest, &trace);
    println!(
        "session: mean level {:.2}, rebuffering {:.1}s",
        session.mean_level(),
        session.total_stall_s
    );

    let base = probe.inner().config().base_target_buffer_s;
    let raised = probe
        .decisions()
        .iter()
        .filter(|d| d.target_buffer_s > base + 1.0)
        .count();
    println!(
        "target above base (60s) on {raised}/{} decisions — the preview at work",
        probe.decisions().len()
    );

    let mut chart = AsciiChart::new("target buffer (T) vs actual buffer (b), seconds", 100, 18)
        .x_label("chunk index")
        .y_label("seconds");
    chart.add_series(Series::new(
        "target",
        'T',
        probe
            .decisions()
            .iter()
            .map(|d| (d.chunk_index as f64, d.target_buffer_s))
            .collect(),
    ));
    chart.add_series(Series::new(
        "buffer",
        'b',
        probe
            .decisions()
            .iter()
            .map(|d| (d.chunk_index as f64, d.buffer_s))
            .collect(),
    ));
    print!("{chart}");

    let path = results_dir().join("fig06_target_preview.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "chunk",
            "ref_chunk_kb",
            "target_s",
            "buffer_s",
            "control_u",
            "level",
        ],
    )?;
    for d in probe.decisions() {
        csv.write_numeric_row(&[
            d.chunk_index as f64,
            manifest.chunk_bytes(reference, d.chunk_index) as f64 / 1e3,
            d.target_buffer_s,
            d.buffer_s,
            d.control_signal,
            d.level as f64,
        ])?;
    }
    csv.flush()?;
    println!("wrote {}", path.display());
    Ok(())
}
