//! Classification-proxy validation (extension) — §3.1.1's central claim,
//! tested end to end.
//!
//! The paper proposes *relative chunk size* as a deployable proxy for scene
//! complexity, with content-based SI/TI classification as the expensive
//! alternative real pipelines don't have. Two questions:
//!
//! 1. **Agreement** — across the whole dataset, how often do the two
//!    classifications assign the same class, and how well do their Q4 sets
//!    overlap?
//! 2. **Does it matter?** — stream with CAVA twice, once driven by each
//!    classification (CAVA gets the content-based classes through a wrapper
//!    that overrides its client-side computation). If the proxy is good,
//!    QoE should be nearly identical — which is exactly what makes the
//!    deployable variant sufficient.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{run_with_factory, Metric, NetworkRegime};
use crate::results_dir;
use abr_sim::{AbrAlgorithm, DecisionContext, PlayerConfig};
use cava_core::{Cava, CavaConfig, InnerController, InnerInputs, OuterController, PidController};
use sim_report::{CsvWriter, TextTable};
use std::io;
use vbr_video::classify::{agreement, classification_from_si_ti, ChunkClass, Classification};
use vbr_video::Dataset;

/// CAVA with an externally supplied complexity classification (the
/// content-based SI/TI one), bypassing the client-side size computation.
/// Everything else — PID, inner, outer — is the standard CAVA pipeline.
struct CavaWithOracleClasses {
    config: CavaConfig,
    pid: PidController,
    inner: InnerController,
    outer: OuterController,
    is_complex: Vec<bool>,
    last_wall_time_s: f64,
}

impl CavaWithOracleClasses {
    fn new(is_complex: Vec<bool>) -> CavaWithOracleClasses {
        let config = CavaConfig::paper_default();
        CavaWithOracleClasses {
            pid: PidController::new(&config),
            inner: InnerController::new(&config),
            outer: OuterController::new(&config),
            config,
            is_complex,
            last_wall_time_s: 0.0,
        }
    }
}

impl AbrAlgorithm for CavaWithOracleClasses {
    fn name(&self) -> &str {
        "CAVA (SI/TI classes)"
    }

    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        let target = self
            .outer
            .target_buffer_s(ctx.manifest, ctx.chunk_index, ctx.visible_chunks);
        // Same reachability clamp as the standard CAVA pipeline, so the two
        // arms of the experiment differ only in the classification source.
        let delta = ctx.manifest.chunk_duration();
        let reachable =
            ctx.visible_chunks.saturating_sub(ctx.chunk_index) as f64 * delta + ctx.buffer_s;
        let target = target.min((reachable - delta).max(2.0 * delta));
        let dt = (ctx.wall_time_s - self.last_wall_time_s).max(0.0);
        self.last_wall_time_s = ctx.wall_time_s;
        let u = self
            .pid
            .control(target, ctx.buffer_s, ctx.manifest.chunk_duration(), dt);
        let inputs = InnerInputs {
            manifest: ctx.manifest,
            chunk_index: ctx.chunk_index,
            u,
            estimated_bandwidth_bps: ctx.bandwidth_or_conservative(),
            last_level: ctx.last_level,
            buffer_s: ctx.buffer_s,
            visible_chunks: ctx.visible_chunks,
        };
        self.inner.select_level(&inputs, &self.is_complex)
    }

    fn reset(&mut self) {
        self.pid.reset();
        self.last_wall_time_s = 0.0;
        let _ = &self.config;
    }
}

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: proxy validation",
        "Size-based vs content-based (SI/TI) classification (§3.1.1)",
    );

    // Part 1: agreement across the whole dataset.
    let mut table = TextTable::new(vec!["video", "class agreement", "Q4 overlap"]);
    let path = results_dir().join("exp_classification_proxy.csv");
    let mut csv = CsvWriter::create(&path, &["video", "agreement", "q4_overlap"])?;
    let mut q4_overlaps = Vec::new();
    for video in Dataset::conext18() {
        let by_size = Classification::from_video(&video);
        let by_content = classification_from_si_ti(&video);
        let overall = agreement(&by_size, &by_content);
        let q4_size: std::collections::BTreeSet<usize> =
            by_size.positions_of(ChunkClass::Q4).into_iter().collect();
        let q4_content: std::collections::BTreeSet<usize> = by_content
            .positions_of(ChunkClass::Q4)
            .into_iter()
            .collect();
        let overlap = q4_size.intersection(&q4_content).count() as f64 / q4_size.len() as f64;
        q4_overlaps.push(overlap);
        table.add_row(vec![
            video.name().to_string(),
            format!("{:.0}%", overall * 100.0),
            format!("{:.0}%", overlap * 100.0),
        ]);
        csv.write_str_row(&[
            video.name(),
            &format!("{overall:.3}"),
            &format!("{overlap:.3}"),
        ])?;
    }
    print!("{table}");
    let mean_overlap = q4_overlaps.iter().sum::<f64>() / q4_overlaps.len() as f64;
    println!(
        "mean Q4 overlap {:.0}% — the paper's 'high accuracy' proxy claim",
        mean_overlap * 100.0
    );

    // Part 2: does the residual disagreement matter for QoE?
    let video = engine::video("ED-ffmpeg-h264");
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    let content_classes: Vec<bool> = {
        let c = classification_from_si_ti(&video);
        (0..video.n_chunks()).map(|i| c.is_q4(i)).collect()
    };
    let mut qoe_table = TextTable::new(vec![
        "classification",
        "Q4 qual",
        "Q1-3 qual",
        "rebuf (s)",
        "qual chg",
    ]);
    let runs: Vec<(&str, Vec<abr_sim::QoeMetrics>)> = vec![
        (
            "size-based (deployable)",
            run_with_factory(
                &|| Box::new(Cava::paper_default()),
                &video,
                &traces,
                &qoe,
                &player,
            ),
        ),
        (
            "SI/TI (content oracle)",
            run_with_factory(
                &|| Box::new(CavaWithOracleClasses::new(content_classes.clone())),
                &video,
                &traces,
                &qoe,
                &player,
            ),
        ),
    ];
    for (label, sessions) in &runs {
        qoe_table.add_row(vec![
            label.to_string(),
            format!("{:.1}", crate::mean_of(Metric::Q4Quality, sessions)),
            format!("{:.1}", crate::mean_of(Metric::Q13Quality, sessions)),
            format!("{:.1}", crate::mean_of(Metric::RebufferS, sessions)),
            format!("{:.2}", crate::mean_of(Metric::QualityChange, sessions)),
        ]);
    }
    csv.flush()?;
    print!("{qoe_table}");
    println!("near-identical rows = the deployable size proxy loses nothing (§3.2's argument)");
    println!("wrote {}", path.display());
    Ok(())
}
