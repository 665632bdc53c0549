// Integration tests sit outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

//! Decision identity of the MPC family against exhaustive per-plan scoring.
//!
//! `Mpc` and `PandaCq` search their plans depth first, sharing each prefix's
//! partial state. The reference here scores every plan from the root, one
//! plan at a time, the way the schemes are specified. Both must pick the
//! same first level on every context, ties included.

use cava_suite::baselines::{Mpc, PandaCq};
use cava_suite::net::PredictionErrorTracker;
use cava_suite::sim::{AbrAlgorithm, DecisionContext};
use cava_suite::video::quality::VmafModel;
use cava_suite::video::{Dataset, Manifest, Video};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HORIZON: usize = 5;
const SAFETY_BUFFER_S: f64 = 4.0;

/// Contexts per (video, scheme) pair. The reference is slow unoptimized,
/// so debug builds check fewer.
const CASES: usize = if cfg!(debug_assertions) { 100 } else { 1000 };

/// Visit every level assignment of length `horizon` in lexicographic order.
fn for_each_plan(n_levels: usize, horizon: usize, mut f: impl FnMut(&[usize])) {
    let mut seq = vec![0usize; horizon];
    loop {
        f(&seq);
        let mut pos = horizon;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            seq[pos] += 1;
            if seq[pos] < n_levels {
                break;
            }
            seq[pos] = 0;
        }
    }
}

fn horizon_of(ctx: &DecisionContext) -> usize {
    let visible = ctx
        .visible_chunks
        .min(ctx.manifest.n_chunks())
        .max(ctx.chunk_index + 1);
    HORIZON.min(visible - ctx.chunk_index)
}

/// (Robust)MPC with the reference parameters, scoring plan by plan.
struct RefMpc {
    robust: bool,
    errors: PredictionErrorTracker,
    last_prediction: Option<f64>,
    n_observed: usize,
}

impl RefMpc {
    fn new(robust: bool) -> RefMpc {
        RefMpc {
            robust,
            errors: PredictionErrorTracker::new(5),
            last_prediction: None,
            n_observed: 0,
        }
    }

    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        if let (Some(pred), true) = (
            self.last_prediction,
            ctx.past_throughputs_bps.len() > self.n_observed,
        ) {
            self.errors
                .record(pred, *ctx.past_throughputs_bps.last().unwrap());
        }
        self.n_observed = ctx.past_throughputs_bps.len();
        let raw_bw = ctx.bandwidth_or_conservative();
        self.last_prediction = Some(raw_bw);
        let bw = if self.robust {
            raw_bw / (1.0 + self.errors.max_error())
        } else {
            raw_bw
        };

        let m = ctx.manifest;
        let start = ctx.chunk_index;
        let mu = m.declared_bitrate(m.top_level()) / 1.0e6;
        let lambda = 1.0;
        let prev_quality = ctx.last_level.map(|l| m.declared_bitrate(l) / 1.0e6);
        let mut best_seq0 = 0;
        let mut best_score = f64::NEG_INFINITY;
        for_each_plan(m.n_tracks(), horizon_of(ctx), |seq| {
            let mut buf = ctx.buffer_s;
            let mut rebuffer = 0.0;
            let mut quality_sum = 0.0;
            let mut smooth = 0.0;
            let mut prev_q = prev_quality;
            for (k, &level) in seq.iter().enumerate() {
                let q = m.declared_bitrate(level) / 1.0e6;
                quality_sum += q;
                if let Some(pq) = prev_q {
                    smooth += (q - pq).abs();
                }
                prev_q = Some(q);
                let dl = m.chunk_bits(level, start + k) / bw;
                if dl > buf {
                    rebuffer += dl - buf;
                    buf = 0.0;
                } else {
                    buf -= dl;
                }
                buf += m.chunk_duration();
            }
            let score = quality_sum - lambda * smooth - mu * rebuffer;
            if score > best_score {
                best_score = score;
                best_seq0 = seq[0];
            }
        });
        best_seq0
    }
}

/// PANDA/CQ with the reference parameters, scoring plan by plan.
fn ref_panda(video: &Video, model: VmafModel, max_min: bool, ctx: &DecisionContext) -> usize {
    let m = ctx.manifest;
    let bw = ctx.bandwidth_or_conservative();
    let start = ctx.chunk_index;
    let mut best_seq0 = 0;
    let mut best_key = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut fallback_seq0 = 0;
    let mut fallback_violation = f64::INFINITY;
    let mut any_safe = false;
    for_each_plan(m.n_tracks(), horizon_of(ctx), |seq| {
        let mut buf = ctx.buffer_s;
        let mut min_buf = f64::INFINITY;
        let mut q_sum = 0.0;
        let mut q_min = f64::INFINITY;
        for (k, &level) in seq.iter().enumerate() {
            buf -= m.chunk_bits(level, start + k) / bw;
            min_buf = min_buf.min(buf);
            buf = buf.max(0.0) + m.chunk_duration();
            let q = video.quality(level, start + k).vmaf(model);
            q_sum += q;
            q_min = q_min.min(q);
        }
        if min_buf >= SAFETY_BUFFER_S {
            any_safe = true;
            let key = if max_min {
                (q_min, q_sum)
            } else {
                (q_sum, q_min)
            };
            if key > best_key {
                best_key = key;
                best_seq0 = seq[0];
            }
        } else {
            let violation = SAFETY_BUFFER_S - min_buf;
            if violation < fallback_violation {
                fallback_violation = violation;
                fallback_seq0 = seq[0];
            }
        }
    });
    if any_safe {
        best_seq0
    } else {
        fallback_seq0
    }
}

/// A random decision context's owned parts. The chunk index, visible count
/// and bandwidth regime are drawn to hit the edges: the first step, a
/// missing estimate, live horizons just past the chunk, the last chunk, and
/// starved or rich bandwidth.
struct Case {
    chunk_index: usize,
    buffer_s: f64,
    estimate: Option<f64>,
    last_level: Option<usize>,
    visible_chunks: usize,
}

fn draw_case(rng: &mut StdRng, m: &Manifest) -> Case {
    let n = m.n_chunks();
    let chunk_index = match rng.gen_range(0..6) {
        0 => n - 1,
        1 => n - rng.gen_range(2..=HORIZON),
        2 => 0,
        _ => rng.gen_range(0..n),
    };
    let visible_chunks = match rng.gen_range(0..5) {
        0 => chunk_index + rng.gen_range(1..=3),
        1 => rng.gen_range(0..=chunk_index),
        _ => n,
    };
    let bw = match rng.gen_range(0..4) {
        0 => rng.gen_range(10.0e3..300.0e3),
        1 => rng.gen_range(50.0e6..1.0e9),
        _ => rng.gen_range(0.3e6..8.0e6),
    };
    Case {
        chunk_index,
        buffer_s: if rng.gen_bool(0.1) {
            0.0
        } else {
            rng.gen_range(0.0..60.0)
        },
        estimate: if rng.gen_bool(0.15) { None } else { Some(bw) },
        last_level: if rng.gen_bool(0.15) {
            None
        } else {
            Some(rng.gen_range(0..m.n_tracks()))
        },
        visible_chunks,
    }
}

fn ctx<'a>(m: &'a Manifest, case: &Case, past: &'a [f64]) -> DecisionContext<'a> {
    DecisionContext {
        manifest: m,
        chunk_index: case.chunk_index,
        buffer_s: case.buffer_s,
        estimated_bandwidth_bps: case.estimate,
        last_level: case.last_level,
        past_throughputs_bps: past,
        wall_time_s: 0.0,
        startup_complete: true,
        visible_chunks: case.visible_chunks,
    }
}

fn videos() -> [Video; 2] {
    [Dataset::ed_youtube_h264(), Dataset::ed_ffmpeg_h264()]
}

#[test]
fn mpc_and_robust_mpc_match_per_plan_scoring() {
    for (v, video) in videos().iter().enumerate() {
        let m = Manifest::from_video(video);
        for robust in [false, true] {
            let mut rng = StdRng::seed_from_u64(0x4d50_4300 + v as u64 * 2 + robust as u64);
            let mut mpc = if robust { Mpc::robust() } else { Mpc::mpc() };
            let mut reference = RefMpc::new(robust);
            // A growing throughput history feeds RobustMPC's error tracker;
            // some decisions see no new sample.
            let mut past = Vec::new();
            for case_no in 0..CASES {
                for _ in 0..rng.gen_range(0..=2) {
                    past.push(rng.gen_range(0.05e6..20.0e6));
                }
                let case = draw_case(&mut rng, &m);
                let c = ctx(&m, &case, &past);
                assert_eq!(
                    mpc.choose_level(&c),
                    reference.choose_level(&c),
                    "{} (robust {robust}) case {case_no}: chunk {} buffer {} bw {:?} last {:?} visible {}",
                    video.name(),
                    case.chunk_index,
                    case.buffer_s,
                    case.estimate,
                    case.last_level,
                    case.visible_chunks
                );
            }
        }
    }
}

#[test]
fn panda_cq_matches_per_plan_scoring() {
    for (v, video) in videos().iter().enumerate() {
        let m = Manifest::from_video(video);
        for (d, model) in [VmafModel::Phone, VmafModel::Tv].into_iter().enumerate() {
            for max_min in [false, true] {
                let seed = 0x5041_4e00 + (v * 4 + d * 2) as u64 + max_min as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut cq = if max_min {
                    PandaCq::max_min(video, model)
                } else {
                    PandaCq::max_sum(video, model)
                };
                for case_no in 0..CASES {
                    let case = draw_case(&mut rng, &m);
                    let c = ctx(&m, &case, &[]);
                    assert_eq!(
                        cq.choose_level(&c),
                        ref_panda(video, model, max_min, &c),
                        "{} {model:?} (max-min {max_min}) case {case_no}: chunk {} buffer {} bw {:?} visible {}",
                        video.name(),
                        case.chunk_index,
                        case.buffer_s,
                        case.estimate,
                        case.visible_chunks
                    );
                }
            }
        }
    }
}
