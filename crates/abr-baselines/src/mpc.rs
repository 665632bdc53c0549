//! MPC and RobustMPC [Yin et al., SIGCOMM '15].
//!
//! Model predictive control: at each decision, enumerate every level
//! assignment for the next `N` chunks (the paper and ours use N = 5),
//! simulate the buffer with *actual chunk sizes* (the VBR-aware adaptation
//! §6.1 applies to every baseline), and maximize the canonical QoE
//! objective
//!
//! ```text
//!   Σ q(R_k)  −  λ Σ |q(R_k) − q(R_{k−1})|  −  μ · rebuffer_seconds
//! ```
//!
//! with `q` the track's declared bitrate in Mbps (the reference MPC's
//! quality proxy; actual chunk sizes drive the buffer model only). **RobustMPC** divides the
//! bandwidth prediction by `1 + max recent relative prediction error` — the
//! lower-bound trick that §6.3/§6.7 show trades a little quality for far
//! fewer stalls under bad predictions.
//!
//! Plans are scored by the warm-started, prefix-sharing branch and bound in
//! [`crate::util`], which picks exactly the plan exhaustive per-plan scoring
//! would. A prefix's bound is the leaf's own expression with one top-track
//! quality added per remaining chunk, in the leaf's order, and the
//! smoothness and rebuffer sums frozen at the prefix's values: both only
//! grow along a plan, and f64 rounding is monotone, so with `λ ≥ 0` and
//! `μ ≥ 0` no leaf below can score above it. The prefix is skipped when the
//! bound is `≤` the best score so far, since a later leaf must beat that
//! strictly, or when it is strictly `<` the best seed plan's score (the
//! constant plans and the previous decision's plan shifted one chunk on).
//! Only `<` is safe against a seed: the seed may come after a plan that
//! ties it in lexicographic order, and that earlier plan must still be
//! found. With a negative weight the penalties can raise a score, so such a
//! configuration walks no seeds and scores every plan.

use std::ops::Range;

use abr_sim::{AbrAlgorithm, DecisionContext};
use net_trace::PredictionErrorTracker;

use crate::util::{PlanObjective, PlanSearch, MAX_HORIZON};

/// MPC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Look-ahead horizon in chunks (paper: 5).
    pub horizon: usize,
    /// λ — weight of the smoothness penalty.
    pub smoothness_weight: f64,
    /// μ — rebuffer penalty in QoE units per second. `None` derives it from
    /// the manifest (the top track's declared bitrate in Mbps), the scaling
    /// used in the reference implementation.
    pub rebuffer_penalty: Option<f64>,
    /// Use the RobustMPC prediction discount.
    pub robust: bool,
    /// Window of the prediction-error tracker (RobustMPC; paper: 5).
    pub error_window: usize,
}

impl MpcConfig {
    /// Plain MPC with the reference parameters.
    pub fn mpc() -> MpcConfig {
        MpcConfig {
            horizon: 5,
            smoothness_weight: 1.0,
            rebuffer_penalty: None,
            robust: false,
            error_window: 5,
        }
    }

    /// RobustMPC with the reference parameters.
    pub fn robust_mpc() -> MpcConfig {
        MpcConfig {
            robust: true,
            ..MpcConfig::mpc()
        }
    }
}

/// The (Robust)MPC scheme.
#[derive(Debug, Clone)]
pub struct Mpc {
    config: MpcConfig,
    name: &'static str,
    errors: PredictionErrorTracker,
    /// Prediction used for the previous decision, to be scored against the
    /// realized throughput that arrives in the next context.
    last_prediction: Option<f64>,
    n_observed: usize,
    /// Per-decision tables, sized on the first decision and reused.
    search: PlanSearch,
    /// `quality[l]` — track `l`'s quality term (declared bitrate, Mbps).
    quality: Vec<f64>,
}

impl Mpc {
    /// # Panics
    /// Panics on a zero error window, or unless
    /// `1 <= horizon <= `[`MAX_HORIZON`].
    pub fn new(config: MpcConfig) -> Mpc {
        assert!(
            config.horizon > 0 && config.horizon <= MAX_HORIZON,
            "horizon must be in 1..={MAX_HORIZON}"
        );
        assert!(config.error_window > 0);
        Mpc {
            config,
            name: if config.robust { "RobustMPC" } else { "MPC" },
            errors: PredictionErrorTracker::new(config.error_window),
            last_prediction: None,
            n_observed: 0,
            search: PlanSearch::default(),
            quality: Vec::new(),
        }
    }

    /// Plain MPC, reference parameters.
    #[allow(clippy::self_named_constructors)]
    pub fn mpc() -> Mpc {
        Mpc::new(MpcConfig::mpc())
    }

    /// RobustMPC, reference parameters.
    pub fn robust() -> Mpc {
        Mpc::new(MpcConfig::robust_mpc())
    }

    /// Plan step evaluations over every decision since construction (see
    /// [`PlanSearch::steps`]).
    pub fn plan_steps(&self) -> u64 {
        self.search.steps()
    }

    fn rebuffer_penalty(&self, ctx: &DecisionContext) -> f64 {
        self.config
            .rebuffer_penalty
            .unwrap_or_else(|| ctx.manifest.declared_bitrate(ctx.manifest.top_level()) / 1.0e6)
    }
}

impl AbrAlgorithm for Mpc {
    fn name(&self) -> &str {
        self.name
    }

    // abr-lint: hot-path
    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        // Feed the error tracker with (previous prediction, realized
        // throughput of the chunk it predicted).
        if let (Some(pred), true) = (
            self.last_prediction,
            ctx.past_throughputs_bps.len() > self.n_observed,
        ) {
            let actual = *ctx
                .past_throughputs_bps
                .last()
                .expect("length checked above");
            self.errors.record(pred, actual);
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
        let delta = m.chunk_duration();
        let n_chunks = m.n_chunks();
        let start = ctx.chunk_index;
        // Live streaming: plan only over published chunks.
        let visible = ctx.visible_chunks.min(n_chunks).max(start + 1);
        let horizon = self.config.horizon.min(visible - start);
        let mu = self.rebuffer_penalty(ctx);
        // Quality term: the track's *declared* bitrate (the reference MPC's
        // quality proxy). Actual chunk sizes drive only the download-time
        // model, per §6.1's "use the actual size … in making rate adaptation
        // decisions".
        self.quality.clear();
        self.quality
            .extend((0..m.n_tracks()).map(|l| m.declared_bitrate(l) / 1.0e6));
        let prev_q = ctx.last_level.map(|l| self.quality[l]);
        let lambda = self.config.smoothness_weight;

        self.search.prepare(m, start, horizon, bw);
        let mut plans = MpcPlans {
            quality: &self.quality,
            q_max: self
                .quality
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
            delta,
            lambda,
            mu,
            bounded: lambda >= 0.0 && mu >= 0.0,
            seed_score: f64::NEG_INFINITY,
            best_score: f64::NEG_INFINITY,
        };
        let root = MpcState {
            buf: ctx.buffer_s,
            rebuffer: 0.0,
            quality_sum: 0.0,
            smooth: 0.0,
            prev_q,
        };
        self.search.search(root, &mut plans)[0]
    }

    fn reset(&mut self) {
        self.errors.reset();
        self.last_prediction = None;
        self.n_observed = 0;
    }
}

/// Partial state of an MPC plan prefix.
#[derive(Debug, Clone, Copy)]
struct MpcState {
    buf: f64,
    rebuffer: f64,
    quality_sum: f64,
    smooth: f64,
    /// Quality of the previous chunk (`None` before the first download).
    prev_q: Option<f64>,
}

/// The MPC objective over one decision's plans, tracking the best plan.
struct MpcPlans<'a> {
    quality: &'a [f64],
    /// Largest quality term of any track.
    q_max: f64,
    delta: f64,
    lambda: f64,
    mu: f64,
    /// Both penalty weights are non-negative (false for NaN), so
    /// [`PlanObjective::prune`]'s bound holds.
    bounded: bool,
    /// Best score of any seed plan.
    seed_score: f64,
    best_score: f64,
}

impl MpcPlans<'_> {
    #[inline]
    fn score(&self, s: &MpcState) -> f64 {
        s.quality_sum - self.lambda * s.smooth - self.mu * s.rebuffer
    }
}

impl PlanObjective for MpcPlans<'_> {
    type State = MpcState;

    #[inline]
    fn step(&self, s: &MpcState, _k: usize, level: usize, dl: f64) -> MpcState {
        let q = self.quality[level];
        let mut next = *s;
        next.quality_sum += q;
        if let Some(pq) = s.prev_q {
            next.smooth += (q - pq).abs();
        }
        next.prev_q = Some(q);
        if dl > next.buf {
            next.rebuffer += dl - next.buf;
            next.buf = 0.0;
        } else {
            next.buf -= dl;
        }
        next.buf += self.delta;
        next
    }

    #[inline]
    fn leaf(&mut self, s: &MpcState) -> bool {
        let score = self.score(s);
        let better = score > self.best_score;
        if better {
            self.best_score = score;
        }
        better
    }

    fn bounded(&self) -> bool {
        self.bounded
    }

    fn seed(&mut self, s: &MpcState) {
        let score = self.score(s);
        if score > self.seed_score {
            self.seed_score = score;
        }
    }

    #[inline]
    fn prune(&self, s: &MpcState, rest: Range<usize>) -> bool {
        if !self.bounded {
            return false;
        }
        let mut quality_sum = s.quality_sum;
        for _ in rest {
            quality_sum += self.q_max;
        }
        // The leaf's expression, term for term; a NaN bound never prunes.
        let bound = quality_sum - self.lambda * s.smooth - self.mu * s.rebuffer;
        bound < self.seed_score || bound <= self.best_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sim::abr::FixedLevel;
    use abr_sim::{QoeConfig, Simulator};
    use net_trace::Trace;
    use vbr_video::classify::Classification;
    use vbr_video::{Dataset, Manifest};

    fn ctx_with<'a>(
        manifest: &'a Manifest,
        buffer_s: f64,
        bw: f64,
        i: usize,
        past: &'a [f64],
    ) -> DecisionContext<'a> {
        DecisionContext {
            manifest,
            chunk_index: i,
            buffer_s,
            estimated_bandwidth_bps: Some(bw),
            last_level: Some(2),
            past_throughputs_bps: past,
            wall_time_s: 0.0,
            startup_complete: true,
            visible_chunks: manifest.n_chunks(),
        }
    }

    #[test]
    fn rich_bandwidth_gets_top_track() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut mpc = Mpc::mpc();
        // Coming from level 2, the smoothness term may spread the climb over
        // a chunk, but MPC must reach (or nearly reach) the top immediately.
        let level = mpc.choose_level(&ctx_with(&m, 60.0, 1.0e9, 0, &[]));
        assert!(level >= m.top_level() - 1, "level {level}");
        // Already at the top, it stays there.
        let ctx = DecisionContext {
            last_level: Some(m.top_level()),
            ..ctx_with(&m, 60.0, 1.0e9, 10, &[])
        };
        assert_eq!(mpc.choose_level(&ctx), m.top_level());
    }

    #[test]
    fn starved_bandwidth_gets_bottom_track() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut mpc = Mpc::mpc();
        let level = mpc.choose_level(&ctx_with(&m, 2.0, 50.0e3, 0, &[]));
        assert_eq!(level, 0);
    }

    #[test]
    fn robust_is_more_conservative_after_errors() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut plain = Mpc::mpc();
        let mut robust = Mpc::robust();
        // Build an error history: each decision predicted 4 Mbps (harmonic
        // mean input), but the realized throughput came in far lower.
        let past = [4.0e6, 1.0e6, 4.0e6, 1.0e6];
        // Feed contexts one at a time so the tracker accumulates.
        for k in 1..past.len() {
            let _ = plain.choose_level(&ctx_with(&m, 12.0, 4.0e6, k, &past[..k]));
            let _ = robust.choose_level(&ctx_with(&m, 12.0, 4.0e6, k, &past[..k]));
        }
        let l_plain = plain.choose_level(&ctx_with(&m, 12.0, 4.0e6, past.len(), &past));
        let l_robust = robust.choose_level(&ctx_with(&m, 12.0, 4.0e6, past.len(), &past));
        assert!(
            l_robust <= l_plain,
            "robust {l_robust} must not exceed plain {l_plain}"
        );
        assert!(l_robust < l_plain, "with 300% errors robust must back off");
    }

    #[test]
    fn horizon_truncates_at_video_end() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut mpc = Mpc::mpc();
        let last = m.n_chunks() - 1;
        // Must not panic and must return a valid level.
        let level = mpc.choose_level(&ctx_with(&m, 30.0, 3.0e6, last, &[]));
        assert!(level < m.n_tracks());
    }

    #[test]
    fn end_to_end_beats_fixed_top_on_variable_trace() {
        // MPC should stall far less than naively streaming the top track.
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let c = Classification::from_video(&video);
        let mut samples = Vec::new();
        for i in 0..1500 {
            samples.push(if (i / 60) % 2 == 0 { 4.0e6 } else { 1.0e6 });
        }
        let trace = Trace::new("sq", 1.0, samples);
        let sim = Simulator::paper_default();
        let mpc_m = abr_sim::metrics::evaluate(
            &sim.run(&mut Mpc::robust(), &m, &trace),
            &video,
            &c,
            &QoeConfig::lte(),
        );
        let top_m = abr_sim::metrics::evaluate(
            &sim.run(&mut FixedLevel::new(5), &m, &trace),
            &video,
            &c,
            &QoeConfig::lte(),
        );
        assert!(mpc_m.rebuffer_s < top_m.rebuffer_s * 0.2);
        assert!(mpc_m.all_quality_mean > 40.0);
    }

    #[test]
    fn reset_clears_error_history() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut robust = Mpc::robust();
        let past = [0.2e6; 6];
        for k in 1..=5 {
            let _ = robust.choose_level(&ctx_with(&m, 12.0, 4.0e6, k, &past[..k]));
        }
        robust.reset();
        // After reset, behaves like a fresh instance.
        let mut fresh = Mpc::robust();
        let a = robust.choose_level(&ctx_with(&m, 30.0, 3.0e6, 0, &[]));
        let b = fresh.choose_level(&ctx_with(&m, 30.0, 3.0e6, 0, &[]));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "horizon must be in")]
    fn horizon_past_cap_is_rejected_at_construction() {
        let _ = Mpc::new(MpcConfig {
            horizon: MAX_HORIZON + 1,
            ..MpcConfig::mpc()
        });
    }

    #[test]
    #[should_panic(expected = "horizon must be in")]
    fn zero_horizon_is_rejected_at_construction() {
        let _ = Mpc::new(MpcConfig {
            horizon: 0,
            ..MpcConfig::robust_mpc()
        });
    }

    #[test]
    fn names() {
        assert_eq!(Mpc::mpc().name(), "MPC");
        assert_eq!(Mpc::robust().name(), "RobustMPC");
    }
}
