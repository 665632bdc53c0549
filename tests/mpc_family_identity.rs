// Integration tests sit outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

//! Decision identity of the MPC family against exhaustive per-plan scoring.
//!
//! `Mpc` and `PandaCq` search their plans depth first, sharing each prefix's
//! partial state and skipping prefixes whose bound cannot beat the best plan
//! so far or falls below the best seed plan walked before the search. The
//! reference here scores every plan from the root, one plan at a time, the
//! way the schemes are specified. Both must pick the same first level on
//! every context, ties included, and stream identical sessions.

use abr_bench::experiments::exp_plan_counts::{self, PlanCounts};
use cava_suite::baselines::{Mpc, MpcConfig, PandaCq};
use cava_suite::net::lte::{lte_trace, LteConfig};
use cava_suite::net::{PredictionErrorTracker, Trace};
use cava_suite::sim::{AbrAlgorithm, DecisionContext, SessionControl, Simulator};
use cava_suite::video::quality::VmafModel;
use cava_suite::video::{Dataset, Manifest, Video};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HORIZON: usize = 5;
const SAFETY_BUFFER_S: f64 = 4.0;

/// Contexts per (video, scheme) pair. The reference is slow unoptimized,
/// so debug builds check fewer.
const CASES: usize = if cfg!(debug_assertions) { 100 } else { 1000 };

/// LTE traces (seeds `1..=n`) in the session-replay corpus.
const REPLAY_TRACES: u64 = if cfg!(debug_assertions) { 2 } else { 16 };

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

fn horizon_of(ctx: &DecisionContext, horizon: usize) -> usize {
    let visible = ctx
        .visible_chunks
        .min(ctx.manifest.n_chunks())
        .max(ctx.chunk_index + 1);
    horizon.min(visible - ctx.chunk_index)
}

/// Keeps the best plan's first level under a strict `>`, and whether a plan
/// with another first level ties the final best.
struct Best<K> {
    key: K,
    seq0: usize,
    tied: bool,
}

impl<K: PartialOrd> Best<K> {
    fn offer(&mut self, key: K, seq0: usize) {
        if key > self.key {
            self.key = key;
            self.seq0 = seq0;
            self.tied = false;
        } else if key == self.key && seq0 != self.seq0 {
            self.tied = true;
        }
    }
}

/// (Robust)MPC under any [`MpcConfig`], scoring plan by plan.
struct RefMpc {
    config: MpcConfig,
    errors: PredictionErrorTracker,
    last_prediction: Option<f64>,
    n_observed: usize,
    /// Decisions whose best score a plan with another first level ties.
    ties: usize,
}

impl RefMpc {
    fn new(config: MpcConfig) -> RefMpc {
        RefMpc {
            config,
            errors: PredictionErrorTracker::new(config.error_window),
            last_prediction: None,
            n_observed: 0,
            ties: 0,
        }
    }
}

impl AbrAlgorithm for RefMpc {
    fn name(&self) -> &str {
        if self.config.robust {
            "RobustMPC"
        } else {
            "MPC"
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
        let bw = if self.config.robust {
            raw_bw / (1.0 + self.errors.max_error())
        } else {
            raw_bw
        };

        let m = ctx.manifest;
        let start = ctx.chunk_index;
        let mu = self
            .config
            .rebuffer_penalty
            .unwrap_or(m.declared_bitrate(m.top_level()) / 1.0e6);
        let lambda = self.config.smoothness_weight;
        let prev_quality = ctx.last_level.map(|l| m.declared_bitrate(l) / 1.0e6);
        let mut best = Best {
            key: f64::NEG_INFINITY,
            seq0: 0,
            tied: false,
        };
        for_each_plan(m.n_tracks(), horizon_of(ctx, self.config.horizon), |seq| {
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
            best.offer(quality_sum - lambda * smooth - mu * rebuffer, seq[0]);
        });
        self.ties += usize::from(best.tied);
        best.seq0
    }

    fn reset(&mut self) {
        self.errors.reset();
        self.last_prediction = None;
        self.n_observed = 0;
    }
}

/// PANDA/CQ with the reference parameters, scoring plan by plan.
struct RefPanda<'a> {
    video: &'a Video,
    model: VmafModel,
    max_min: bool,
    /// Decisions whose best key a safe plan with another first level ties.
    ties: usize,
}

impl<'a> RefPanda<'a> {
    fn new(video: &'a Video, model: VmafModel, max_min: bool) -> RefPanda<'a> {
        RefPanda {
            video,
            model,
            max_min,
            ties: 0,
        }
    }
}

impl AbrAlgorithm for RefPanda<'_> {
    fn name(&self) -> &str {
        if self.max_min {
            "PANDA/CQ max-min"
        } else {
            "PANDA/CQ max-sum"
        }
    }

    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        let m = ctx.manifest;
        let bw = ctx.bandwidth_or_conservative();
        let start = ctx.chunk_index;
        let mut best = Best {
            key: (f64::NEG_INFINITY, f64::NEG_INFINITY),
            seq0: 0,
            tied: false,
        };
        let mut fallback_seq0 = 0;
        let mut fallback_violation = f64::INFINITY;
        let mut any_safe = false;
        for_each_plan(m.n_tracks(), horizon_of(ctx, HORIZON), |seq| {
            let mut buf = ctx.buffer_s;
            let mut min_buf = f64::INFINITY;
            let mut q_sum = 0.0;
            let mut q_min = f64::INFINITY;
            for (k, &level) in seq.iter().enumerate() {
                buf -= m.chunk_bits(level, start + k) / bw;
                min_buf = min_buf.min(buf);
                buf = buf.max(0.0) + m.chunk_duration();
                let q = self.video.quality(level, start + k).vmaf(self.model);
                q_sum += q;
                q_min = q_min.min(q);
            }
            if min_buf >= SAFETY_BUFFER_S {
                any_safe = true;
                let key = if self.max_min {
                    (q_min, q_sum)
                } else {
                    (q_sum, q_min)
                };
                best.offer(key, seq[0]);
            } else {
                let violation = SAFETY_BUFFER_S - min_buf;
                if violation < fallback_violation {
                    fallback_violation = violation;
                    fallback_seq0 = seq[0];
                }
            }
        });
        if any_safe {
            self.ties += usize::from(best.tied);
            best.seq0
        } else {
            fallback_seq0
        }
    }

    fn reset(&mut self) {}
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

/// Step evaluations a search that prunes nothing makes for `ctx`:
/// `n + n² + … + n^h` over the context's horizon `h`.
fn exhaustive_steps(ctx: &DecisionContext, horizon: usize) -> u64 {
    let n = ctx.manifest.n_tracks() as u64;
    (1..=horizon_of(ctx, horizon) as u32)
        .map(|i| n.pow(i))
        .sum()
}

/// Feed `CASES` random contexts of `m`, drawn from `seed` and then adjusted
/// by `edit`, to `scheme` and `reference`, requiring the same choice on
/// each. A growing throughput history feeds RobustMPC's error tracker; some
/// decisions see no new sample. Returns what exhaustive search would cost
/// over these contexts, in step evaluations.
fn check_contexts(
    m: &Manifest,
    seed: u64,
    horizon: usize,
    scheme: &mut dyn AbrAlgorithm,
    reference: &mut dyn AbrAlgorithm,
    edit: impl Fn(&mut StdRng, &mut Case),
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut past = Vec::new();
    let mut exhaustive = 0;
    for case_no in 0..CASES {
        for _ in 0..rng.gen_range(0..=2) {
            past.push(rng.gen_range(0.05e6..20.0e6));
        }
        let mut case = draw_case(&mut rng, m);
        edit(&mut rng, &mut case);
        let c = ctx(m, &case, &past);
        exhaustive += exhaustive_steps(&c, horizon);
        assert_eq!(
            scheme.choose_level(&c),
            reference.choose_level(&c),
            "{} case {case_no}: chunk {} buffer {} bw {:?} last {:?} visible {}",
            scheme.name(),
            case.chunk_index,
            case.buffer_s,
            case.estimate,
            case.last_level,
            case.visible_chunks
        );
    }
    exhaustive
}

#[test]
fn mpc_and_robust_mpc_match_per_plan_scoring() {
    for (v, video) in videos().iter().enumerate() {
        let m = Manifest::from_video(video);
        for config in [MpcConfig::mpc(), MpcConfig::robust_mpc()] {
            let seed = 0x4d50_4300 + v as u64 * 2 + config.robust as u64;
            let mut mpc = Mpc::new(config);
            let mut reference = RefMpc::new(config);
            let exhaustive = check_contexts(&m, seed, HORIZON, &mut mpc, &mut reference, |_, _| {});
            assert!(mpc.plan_steps() < exhaustive);
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
                let mut cq = if max_min {
                    PandaCq::max_min(video, model)
                } else {
                    PandaCq::max_sum(video, model)
                };
                let mut reference = RefPanda::new(video, model, max_min);
                let exhaustive =
                    check_contexts(&m, seed, HORIZON, &mut cq, &mut reference, |_, _| {});
                assert!(cq.plan_steps() < exhaustive);
            }
        }
    }
}

/// Penalty weights at and past the edge of the bound's validity, and a
/// one-chunk horizon, which has no prefix to prune.
#[test]
fn mpc_edge_configs_match_per_plan_scoring() {
    let video = Dataset::ed_youtube_h264();
    let m = Manifest::from_video(&video);
    let configs = [
        // A negative weight lets a penalty raise the score: no pruning.
        (-0.5, None, 5, false),
        (1.0, Some(-2.0), 5, false),
        // Zero weights keep the bound valid.
        (0.0, None, 5, true),
        (1.0, Some(0.0), 5, true),
        (1.0, None, 1, false),
    ];
    for (i, &(lambda, mu, horizon, prunes)) in configs.iter().enumerate() {
        for robust in [false, true] {
            let config = MpcConfig {
                horizon,
                smoothness_weight: lambda,
                rebuffer_penalty: mu,
                robust,
                ..MpcConfig::mpc()
            };
            let seed = 0x4544_4745 + (i * 2) as u64 + robust as u64;
            let mut mpc = Mpc::new(config);
            let mut reference = RefMpc::new(config);
            let exhaustive = check_contexts(&m, seed, horizon, &mut mpc, &mut reference, |_, _| {});
            if prunes {
                assert!(mpc.plan_steps() < exhaustive, "{config:?}");
            } else {
                assert_eq!(mpc.plan_steps(), exhaustive, "{config:?}");
            }
        }
    }
}

/// Live streaming with one or two chunks published past the one decided:
/// horizons of one and two chunks, mid-video.
#[test]
fn live_edge_matches_per_plan_scoring() {
    let video = Dataset::ed_youtube_h264();
    let m = Manifest::from_video(&video);
    let live_edge = |rng: &mut StdRng, case: &mut Case| {
        case.visible_chunks = case.chunk_index + rng.gen_range(1..=2);
    };
    for (i, config) in [MpcConfig::mpc(), MpcConfig::robust_mpc()]
        .into_iter()
        .enumerate()
    {
        let mut mpc = Mpc::new(config);
        let mut reference = RefMpc::new(config);
        check_contexts(
            &m,
            0x4c49_5600 + i as u64,
            HORIZON,
            &mut mpc,
            &mut reference,
            live_edge,
        );
    }
    for max_min in [false, true] {
        let model = VmafModel::Phone;
        let mut cq = if max_min {
            PandaCq::max_min(&video, model)
        } else {
            PandaCq::max_sum(&video, model)
        };
        let mut reference = RefPanda::new(&video, model, max_min);
        let seed = 0x4c49_5610 + max_min as u64;
        check_contexts(&m, seed, HORIZON, &mut cq, &mut reference, live_edge);
    }
}

fn lte_corpus(traces: u64) -> Vec<Trace> {
    (1..=traces)
        .map(|seed| lte_trace(seed, &LteConfig::default()))
        .collect()
}

/// Whole sessions over an LTE corpus: the pruned schemes and the per-plan
/// references must stream identically, through decisions whose best plan
/// is tied by a plan with another first level.
#[test]
fn lte_sessions_match_per_plan_scoring() {
    let video = Dataset::ed_youtube_h264();
    let m = Manifest::from_video(&video);
    let model = VmafModel::Phone;
    let sim = Simulator::paper_default();
    let control = SessionControl::default();
    let mut ties = 0;
    for trace in &lte_corpus(REPLAY_TRACES) {
        for config in [MpcConfig::mpc(), MpcConfig::robust_mpc()] {
            let mut reference = RefMpc::new(config);
            assert_eq!(
                sim.run_controlled(&mut Mpc::new(config), &m, trace, &control),
                sim.run_controlled(&mut reference, &m, trace, &control),
                "{} on {}",
                reference.name(),
                trace.name()
            );
            ties += reference.ties;
        }
        for max_min in [false, true] {
            let mut cq = if max_min {
                PandaCq::max_min(&video, model)
            } else {
                PandaCq::max_sum(&video, model)
            };
            let mut reference = RefPanda::new(&video, model, max_min);
            assert_eq!(
                sim.run_controlled(&mut cq, &m, trace, &control),
                sim.run_controlled(&mut reference, &m, trace, &control),
                "{} on {}",
                reference.name(),
                trace.name()
            );
            ties += reference.ties;
        }
    }
    assert!(ties > 0, "the corpus must exercise tie-breaking");
}

/// Step evaluations a search that scores every plan makes per decision at
/// the paper's N = 5 over 6 tracks: 6 + 36 + 216 + 1296 + 7776.
const EXHAUSTIVE_STEPS_PER_DECISION: u64 = 9330;

/// Exhaustive search over `exp plan_counts`' corpus, four LTE sessions
/// (seeds 1–4) of `ED-youtube-h264` with 480 decisions per scheme, costs
/// 116 × 9330 plus the shrinking end-of-video horizons per session.
const EXHAUSTIVE_CORPUS_STEPS: u64 =
    4 * (116 * EXHAUSTIVE_STEPS_PER_DECISION + 1554 + 258 + 42 + 6);

/// The pruned searches' work is deterministic, so it is pinned exactly, in
/// the committed `BENCH_counts.json`: a later change that weakens a bound
/// or a seed fails here even when decisions hold.
#[test]
fn pruned_step_totals_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_counts.json");
    let committed: PlanCounts =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let fresh = exp_plan_counts::measure();
    assert_eq!(fresh.decisions_per_scheme, 480);
    assert_eq!(fresh.exhaustive_steps, EXHAUSTIVE_CORPUS_STEPS);
    assert_eq!(
        fresh, committed,
        "rerun `exp plan_counts` at the repo root and commit BENCH_counts.json"
    );
    for s in &fresh.schemes {
        assert!(
            10 * s.plan_steps <= fresh.exhaustive_steps,
            "{}: {} of {}",
            s.scheme,
            s.plan_steps,
            fresh.exhaustive_steps
        );
    }
}
