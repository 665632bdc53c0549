//! Offline-optimal headroom (extension) — how close do CAVA and the
//! baselines get to the best any scheme could do?
//!
//! `OfflineOptimal` plans each trace with full knowledge (trace + quality
//! table), maximizing `Σ quality − λ·Σ|Δquality|` over stall-free
//! trajectories — an upper bound on the linear QoE objective. Per-trace
//! plans are computed in parallel, replayed through the same simulator, and
//! evaluated with the same metrics as everything else.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_baselines::{OfflineOptConfig, OfflineOptimal};
use abr_sim::metrics::{evaluate, LinearQoeWeights, QoeMetrics};
use abr_sim::{PlayerConfig, Simulator};
use sim_report::{CsvWriter, TextTable};
use std::io;
use vbr_video::{Classification, Manifest};

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: offline optimal",
        "Headroom above online schemes (DP upper bound)",
    );
    let video = engine::video("ED-ffmpeg-h264");
    let manifest = Manifest::from_video(&video);
    let classification = Classification::from_video(&video);
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    let opt_cfg = OfflineOptConfig::default();

    // Plan + replay OPT per trace, in parallel slabs.
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(traces.len());
    let chunk = traces.len().div_ceil(n_threads);
    let mut opt_sessions: Vec<Option<QoeMetrics>> = vec![None; traces.len()];
    std::thread::scope(|scope| {
        for (trace_slab, result_slab) in traces.chunks(chunk).zip(opt_sessions.chunks_mut(chunk)) {
            let video = &video;
            let manifest = &manifest;
            let classification = &classification;
            let qoe = &qoe;
            scope.spawn(move || {
                let sim = Simulator::new(player);
                for (trace, slot) in trace_slab.iter().zip(result_slab.iter_mut()) {
                    let mut opt = OfflineOptimal::plan(video, trace, &player, &opt_cfg);
                    let session = sim.run(&mut opt, manifest, trace);
                    *slot = Some(evaluate(&session, video, classification, qoe));
                }
            });
        }
    });
    let opt_metrics: Vec<QoeMetrics> = opt_sessions
        .into_iter()
        .map(|s| s.expect("filled"))
        .collect();

    let schemes = [
        SchemeKind::Cava,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxMin,
    ];
    let mut results: Vec<(String, Vec<QoeMetrics>)> =
        vec![("OPT (offline)".to_string(), opt_metrics)];
    for scheme in schemes {
        results.push((
            scheme.name().to_string(),
            run_scheme(scheme, &video, &traces, &qoe, &player),
        ));
    }

    let weights = LinearQoeWeights::default();
    let path = results_dir().join("exp_offline_opt.csv");
    let mut csv = CsvWriter::create(
        &path,
        &["scheme", "linear_qoe", "q4", "all", "rebuf_s", "qchange"],
    )?;
    let mut table = TextTable::new(vec![
        "scheme",
        "linear QoE",
        "Q4 qual",
        "all qual",
        "rebuf (s)",
        "qual chg",
    ]);
    let n_chunks = manifest.n_chunks();
    for (name, sessions) in &results {
        let linear = sessions
            .iter()
            .map(|m| m.linear_score(&weights, n_chunks))
            .sum::<f64>()
            / sessions.len() as f64;
        table.add_row(vec![
            name.clone(),
            format!("{linear:.1}"),
            format!("{:.1}", mean_of(Metric::Q4Quality, sessions)),
            format!("{:.1}", mean_of(Metric::AllQuality, sessions)),
            format!("{:.1}", mean_of(Metric::RebufferS, sessions)),
            format!("{:.2}", mean_of(Metric::QualityChange, sessions)),
        ]);
        csv.write_str_row(&[
            name,
            &format!("{linear:.2}"),
            &format!("{:.2}", mean_of(Metric::Q4Quality, sessions)),
            &format!("{:.2}", mean_of(Metric::AllQuality, sessions)),
            &format!("{:.2}", mean_of(Metric::RebufferS, sessions)),
            &format!("{:.3}", mean_of(Metric::QualityChange, sessions)),
        ])?;
    }
    csv.flush()?;
    print!("{table}");
    println!("OPT bounds the linear QoE objective; the gap to it is each scheme's headroom.");
    println!("note: OPT optimizes overall quality, not the paper's Q4-differential objective —");
    println!("CAVA may legitimately exceed OPT's *Q4 column* by sacrificing Q1-Q3.");
    println!("wrote {}", path.display());
    Ok(())
}
