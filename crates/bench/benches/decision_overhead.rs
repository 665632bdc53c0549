// This target sits outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

//! Per-decision and per-session runtime of every ABR scheme.
//!
//! §5.5 reports CAVA's dash.js prototype costing ≈ 56 ms for a whole
//! 10-minute video — "very light-weight". This bench establishes the same
//! property for the Rust implementation: a full CAVA session (300 decisions)
//! should cost well under a millisecond of ABR logic, and a single decision
//! is `O(N·|L|)` arithmetic.

use abr_baselines::{Bba1, Bola, BolaBitrateView, Mpc, PandaCq, Rba};
use abr_sim::{AbrAlgorithm, DecisionContext, Simulator};
use cava_core::Cava;
use criterion::{criterion_group, criterion_main, Criterion};
use net_trace::lte::{lte_trace, LteConfig};
use std::hint::black_box;
use vbr_video::quality::VmafModel;
use vbr_video::{Dataset, Manifest};

fn schemes(video: &vbr_video::Video) -> Vec<Box<dyn AbrAlgorithm>> {
    vec![
        Box::new(Cava::paper_default()),
        Box::new(Rba::paper_default()),
        Box::new(Bba1::paper_default()),
        Box::new(Mpc::mpc()),
        Box::new(Mpc::robust()),
        Box::new(PandaCq::max_sum(video, VmafModel::Phone)),
        Box::new(PandaCq::max_min(video, VmafModel::Phone)),
        Box::new(Bola::bola_e(BolaBitrateView::Segment)),
    ]
}

fn bench_single_decision(c: &mut Criterion) {
    let video = Dataset::ed_ffmpeg_h264();
    let manifest = Manifest::from_video(&video);
    let past = [2.0e6, 1.5e6, 2.5e6, 1.8e6, 2.2e6];
    let mut group = c.benchmark_group("single_decision");
    for mut algo in schemes(&video) {
        let ctx = DecisionContext {
            manifest: &manifest,
            chunk_index: 150,
            buffer_s: 35.0,
            estimated_bandwidth_bps: Some(2.0e6),
            last_level: Some(3),
            past_throughputs_bps: &past,
            wall_time_s: 300.0,
            startup_complete: true,
            visible_chunks: manifest.n_chunks(),
        };
        group.bench_function(algo.name().to_string(), |b| {
            b.iter(|| black_box(algo.choose_level(black_box(&ctx))))
        });
    }
    group.finish();
}

fn bench_full_session(c: &mut Criterion) {
    let video = Dataset::ed_ffmpeg_h264();
    let manifest = Manifest::from_video(&video);
    let trace = lte_trace(7, &LteConfig::default());
    let sim = Simulator::paper_default();
    let mut group = c.benchmark_group("full_session_10min_video");
    group.sample_size(20);
    for mut algo in schemes(&video) {
        group.bench_function(algo.name().to_string(), |b| {
            b.iter(|| black_box(sim.run(algo.as_mut(), &manifest, &trace)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_decision, bench_full_session);
criterion_main!(benches);
