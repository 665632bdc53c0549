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

/// One decision, timed in three contexts. `steady` is mid-video with a
/// deep buffer and a steady 2 Mbps, where the MPC family's constant seed
/// plans all but settle its search. `cold_start` is chunk 0 with an empty
/// buffer and no history. `hard` has 4 s of buffer and a bandwidth halfway
/// between the two middle tracks, so no constant plan is clearly best. The
/// same instance answers the same context again and again, so the MPC
/// family's shifted seed (which follows only the next chunk) never fires.
fn bench_single_decision(c: &mut Criterion) {
    let video = Dataset::ed_ffmpeg_h264();
    let manifest = Manifest::from_video(&video);
    let steady_past = [2.0e6, 1.5e6, 2.5e6, 1.8e6, 2.2e6];
    let mid = manifest.n_tracks() / 2;
    let between = 0.5 * (manifest.declared_bitrate(mid - 1) + manifest.declared_bitrate(mid));
    let hard_past = [0.9, 1.1, 0.95, 1.05, 1.0].map(|f| f * between);
    let steady = DecisionContext {
        manifest: &manifest,
        chunk_index: 150,
        buffer_s: 35.0,
        estimated_bandwidth_bps: Some(2.0e6),
        last_level: Some(3),
        past_throughputs_bps: &steady_past,
        wall_time_s: 300.0,
        startup_complete: true,
        visible_chunks: manifest.n_chunks(),
    };
    let contexts = [
        ("steady", steady),
        (
            "cold_start",
            DecisionContext {
                chunk_index: 0,
                buffer_s: 0.0,
                estimated_bandwidth_bps: None,
                last_level: None,
                past_throughputs_bps: &[],
                wall_time_s: 0.0,
                startup_complete: false,
                ..steady
            },
        ),
        (
            "hard",
            DecisionContext {
                buffer_s: 4.0,
                estimated_bandwidth_bps: Some(between),
                last_level: Some(mid - 1),
                past_throughputs_bps: &hard_past,
                ..steady
            },
        ),
    ];
    let mut group = c.benchmark_group("single_decision");
    for (context, ctx) in contexts {
        for mut algo in schemes(&video) {
            group.bench_function(format!("{context}/{}", algo.name()), |b| {
                b.iter(|| black_box(algo.choose_level(black_box(&ctx))))
            });
        }
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
