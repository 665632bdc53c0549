//! PANDA/CQ — consistent-quality streaming [Li et al., MMSys '14].
//!
//! The only baseline that consumes *per-chunk quality information*: it picks
//! level assignments for a window of `N` future chunks to optimize delivered
//! quality directly, subject to the buffer staying above a safety margin.
//! The paper evaluates two objectives (§6.1):
//!
//! * **max-sum** — maximize the total quality of the next `N` chunks, and
//! * **max-min** — maximize the minimum quality of the next `N` chunks
//!   (the "consistent quality" objective proper).
//!
//! Deployability caveat (paper §6.1): per-chunk quality tables are *not*
//! carried by DASH or HLS manifests, so this scheme cannot be built from a
//! [`vbr_video::Manifest`] alone. It is constructed from the evaluation-side
//! [`vbr_video::Video`] quality table — exactly the extra information the
//! paper grants it — and still loses to CAVA, which is the paper's point.
//!
//! Plans are scored by the warm-started, prefix-sharing branch and bound in
//! [`crate::util`], which picks exactly the plan exhaustive per-plan scoring
//! would. Until some plan is known to be safe nothing is pruned, so the
//! fallback sees every plan. A safe seed plan (a constant plan, or the
//! previous decision's plan shifted one chunk on) proves one exists before
//! the first leaf, otherwise the first safe leaf does. After that a prefix
//! is skipped when its buffer already fell below the margin (each of its
//! plans is unsafe), or when its key bound is `≤` the best key or strictly
//! `<` the best safe seed's key, in lexicographic order. The bound pairs the
//! prefix's minimum with its quality sum plus each remaining chunk's best
//! quality, added in the leaf's order. A plan's minimum can only fall and,
//! f64 rounding being monotone, its sum cannot exceed that bound. A
//! componentwise bound also bounds the lexicographic order, and a later
//! plan must beat the best key strictly. Against a seed only `<` is safe:
//! the seed may come after a plan that ties its key in lexicographic order,
//! and that earlier plan's first level is the decision.

use std::ops::Range;

use abr_sim::{AbrAlgorithm, DecisionContext};
use vbr_video::quality::VmafModel;
use vbr_video::Video;

use crate::util::{PlanObjective, PlanSearch, MAX_HORIZON};

/// Which window objective to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PandaCqObjective {
    /// Maximize the sum of the window's quality.
    MaxSum,
    /// Maximize the minimum quality in the window.
    MaxMin,
}

/// PANDA/CQ configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PandaCqConfig {
    /// Window length in chunks (paper: 5, like the other horizon schemes).
    pub horizon: usize,
    /// Buffer level (seconds) the plan must not drop below — the scheme's
    /// stall guard.
    pub safety_buffer_s: f64,
}

impl Default for PandaCqConfig {
    fn default() -> PandaCqConfig {
        PandaCqConfig {
            horizon: 5,
            safety_buffer_s: 4.0,
        }
    }
}

/// The PANDA/CQ scheme.
#[derive(Debug, Clone)]
pub struct PandaCq {
    /// `quality[level * n_chunks + chunk]` — granted side information (see
    /// module docs).
    quality: Vec<f64>,
    n_chunks: usize,
    objective: PandaCqObjective,
    config: PandaCqConfig,
    name: &'static str,
    /// Per-decision tables, sized on the first decision and reused.
    search: PlanSearch,
    /// `window[k * n_tracks + level]` — quality of chunk `start + k`.
    window: Vec<f64>,
    /// `row_max[k]` — best quality of chunk `start + k` at any level.
    row_max: Vec<f64>,
}

impl PandaCq {
    /// Build from a video's quality table under the given VMAF model.
    ///
    /// # Panics
    /// Panics unless `1 <= horizon <= `[`MAX_HORIZON`].
    pub fn from_video(
        video: &Video,
        model: VmafModel,
        objective: PandaCqObjective,
        config: PandaCqConfig,
    ) -> PandaCq {
        assert!(
            config.horizon > 0 && config.horizon <= MAX_HORIZON,
            "horizon must be in 1..={MAX_HORIZON}"
        );
        let n_chunks = video.n_chunks();
        let quality = (0..video.n_tracks())
            .flat_map(|l| (0..n_chunks).map(move |i| video.quality(l, i).vmaf(model)))
            .collect();
        PandaCq {
            quality,
            n_chunks,
            objective,
            config,
            name: match objective {
                PandaCqObjective::MaxSum => "PANDA/CQ max-sum",
                PandaCqObjective::MaxMin => "PANDA/CQ max-min",
            },
            search: PlanSearch::default(),
            window: Vec::new(),
            row_max: Vec::new(),
        }
    }

    /// Paper-default max-sum variant.
    pub fn max_sum(video: &Video, model: VmafModel) -> PandaCq {
        PandaCq::from_video(
            video,
            model,
            PandaCqObjective::MaxSum,
            PandaCqConfig::default(),
        )
    }

    /// Paper-default max-min variant.
    pub fn max_min(video: &Video, model: VmafModel) -> PandaCq {
        PandaCq::from_video(
            video,
            model,
            PandaCqObjective::MaxMin,
            PandaCqConfig::default(),
        )
    }

    /// Plan step evaluations over every decision since construction (see
    /// [`PlanSearch::steps`]).
    pub fn plan_steps(&self) -> u64 {
        self.search.steps()
    }
}

impl AbrAlgorithm for PandaCq {
    fn name(&self) -> &str {
        self.name
    }

    // abr-lint: hot-path
    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        let m = ctx.manifest;
        assert_eq!(
            self.n_chunks,
            m.n_chunks(),
            "PANDA/CQ quality table does not match this manifest"
        );
        let bw = ctx.bandwidth_or_conservative();
        let start = ctx.chunk_index;
        // Live streaming: plan only over published chunks.
        let visible = ctx.visible_chunks.min(m.n_chunks()).max(start + 1);
        let horizon = self.config.horizon.min(visible - start);
        let n = m.n_tracks();
        self.window.resize(horizon * n, 0.0);
        self.row_max.resize(horizon, 0.0);
        for k in 0..horizon {
            let mut best = f64::NEG_INFINITY;
            for l in 0..n {
                let q = self.quality[l * self.n_chunks + start + k];
                self.window[k * n + l] = q;
                best = best.max(q);
            }
            self.row_max[k] = best;
        }
        self.search.prepare(m, start, horizon, bw);

        // Among plans that keep the buffer above the safety margin, optimize
        // the quality objective; if no plan is safe, fall back to the plan
        // minimizing the buffer violation (which enumeration order makes the
        // all-lowest plan in practice).
        let mut plans = PandaPlans {
            window: &self.window,
            row_max: &self.row_max,
            n_levels: n,
            delta: m.chunk_duration(),
            safety: self.config.safety_buffer_s,
            objective: self.objective,
            seed_key: (f64::NEG_INFINITY, f64::NEG_INFINITY),
            best_key: (f64::NEG_INFINITY, f64::NEG_INFINITY),
            fallback_violation: f64::INFINITY,
            any_safe: false,
        };
        let root = PandaState {
            buf: ctx.buffer_s,
            min_buf: f64::INFINITY,
            q_sum: 0.0,
            q_min: f64::INFINITY,
        };
        self.search.search(root, &mut plans)[0]
    }

    fn reset(&mut self) {}
}

/// Partial state of a PANDA/CQ plan prefix.
#[derive(Debug, Clone, Copy)]
struct PandaState {
    buf: f64,
    min_buf: f64,
    q_sum: f64,
    q_min: f64,
}

/// The PANDA/CQ objective over one decision's plans, tracking the best safe
/// plan and, until a safe plan is known, the least-violating fallback.
struct PandaPlans<'a> {
    window: &'a [f64],
    row_max: &'a [f64],
    n_levels: usize,
    delta: f64,
    safety: f64,
    objective: PandaCqObjective,
    /// Best key of any safe seed plan.
    seed_key: (f64, f64),
    best_key: (f64, f64),
    fallback_violation: f64,
    /// Some scored or seed plan is safe, so the decision is a safe plan.
    any_safe: bool,
}

impl PandaPlans<'_> {
    #[inline]
    fn key(&self, s: &PandaState) -> (f64, f64) {
        match self.objective {
            PandaCqObjective::MaxSum => (s.q_sum, s.q_min),
            PandaCqObjective::MaxMin => (s.q_min, s.q_sum),
        }
    }
}

impl PlanObjective for PandaPlans<'_> {
    type State = PandaState;

    #[inline]
    fn step(&self, s: &PandaState, k: usize, level: usize, dl: f64) -> PandaState {
        let mut buf = s.buf - dl;
        let min_buf = s.min_buf.min(buf);
        buf = buf.max(0.0) + self.delta;
        let q = self.window[k * self.n_levels + level];
        PandaState {
            buf,
            min_buf,
            q_sum: s.q_sum + q,
            q_min: s.q_min.min(q),
        }
    }

    #[inline]
    fn leaf(&mut self, s: &PandaState) -> bool {
        if s.min_buf >= self.safety {
            self.any_safe = true;
            let key = self.key(s);
            let better = key > self.best_key;
            if better {
                self.best_key = key;
            }
            better
        } else if self.any_safe {
            false
        } else {
            let violation = self.safety - s.min_buf;
            let better = violation < self.fallback_violation;
            if better {
                self.fallback_violation = violation;
            }
            better
        }
    }

    fn bounded(&self) -> bool {
        true
    }

    fn seed(&mut self, s: &PandaState) {
        if s.min_buf >= self.safety {
            self.any_safe = true;
            let key = self.key(s);
            if key > self.seed_key {
                self.seed_key = key;
            }
        }
    }

    #[inline]
    fn prune(&self, s: &PandaState, rest: Range<usize>) -> bool {
        if !self.any_safe {
            return false;
        }
        if s.min_buf < self.safety {
            return true;
        }
        let mut q_sum = s.q_sum;
        for k in rest {
            q_sum += self.row_max[k];
        }
        let bound = match self.objective {
            PandaCqObjective::MaxSum => (q_sum, s.q_min),
            PandaCqObjective::MaxMin => (s.q_min, q_sum),
        };
        // A NaN component never compares `<` or `<=`, so it never prunes.
        bound < self.seed_key || bound <= self.best_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::{Dataset, Manifest};

    fn ctx_with<'a>(
        manifest: &'a Manifest,
        buffer_s: f64,
        bw: f64,
        i: usize,
    ) -> DecisionContext<'a> {
        DecisionContext {
            manifest,
            chunk_index: i,
            buffer_s,
            estimated_bandwidth_bps: Some(bw),
            last_level: Some(2),
            past_throughputs_bps: &[],
            wall_time_s: 0.0,
            startup_complete: true,
            visible_chunks: manifest.n_chunks(),
        }
    }

    #[test]
    fn rich_bandwidth_gets_top_track() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_sum(&video, VmafModel::Phone);
        assert_eq!(
            cq.choose_level(&ctx_with(&m, 60.0, 1.0e9, 0)),
            m.top_level()
        );
    }

    #[test]
    fn starved_bandwidth_gets_bottom_track() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_min(&video, VmafModel::Phone);
        assert_eq!(cq.choose_level(&ctx_with(&m, 2.0, 50.0e3, 0)), 0);
    }

    #[test]
    fn max_min_lifts_worst_chunk_harder_than_max_sum() {
        // On a window containing a Q4 chunk, max-min should never give the
        // Q4 chunk a *lower* level than max-sum does, for the same budget.
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let classification = vbr_video::Classification::from_video(&video);
        // Find a window starting at a Q4 chunk.
        let q4_start = (0..m.n_chunks() - 5)
            .find(|&i| classification.is_q4(i))
            .expect("some Q4 chunk");
        let bw = 2.5e6;
        let mut sum = PandaCq::max_sum(&video, VmafModel::Phone);
        let mut min = PandaCq::max_min(&video, VmafModel::Phone);
        let l_sum = sum.choose_level(&ctx_with(&m, 30.0, bw, q4_start));
        let l_min = min.choose_level(&ctx_with(&m, 30.0, bw, q4_start));
        assert!(
            l_min >= l_sum,
            "max-min gave Q4 chunk level {l_min} < max-sum's {l_sum}"
        );
    }

    #[test]
    fn respects_safety_margin_when_feasible() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_sum(&video, VmafModel::Phone);
        let bw = 1.5e6;
        let level = cq.choose_level(&ctx_with(&m, 25.0, bw, 3));
        // The chosen first step must itself keep the buffer above safety
        // given at least the lowest-track continuation exists.
        let after = 25.0 - m.chunk_bits(level, 3) / bw;
        assert!(after >= 0.0, "level {level} immediately underflows");
    }

    #[test]
    fn table_mismatch_panics() {
        let video = Dataset::ed_youtube_h264();
        let other = Manifest::from_video(&Dataset::ed_ffmpeg_h264());
        let mut cq = PandaCq::max_sum(&video, VmafModel::Phone);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cq.choose_level(&ctx_with(&other, 30.0, 3.0e6, 0))
        }));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "horizon must be in")]
    fn horizon_past_cap_is_rejected_at_construction() {
        let _ = PandaCq::from_video(
            &Dataset::ed_youtube_h264(),
            VmafModel::Phone,
            PandaCqObjective::MaxSum,
            PandaCqConfig {
                horizon: MAX_HORIZON + 1,
                ..PandaCqConfig::default()
            },
        );
    }

    #[test]
    fn names() {
        let video = Dataset::ed_youtube_h264();
        assert_eq!(
            PandaCq::max_sum(&video, VmafModel::Phone).name(),
            "PANDA/CQ max-sum"
        );
        assert_eq!(
            PandaCq::max_min(&video, VmafModel::Phone).name(),
            "PANDA/CQ max-min"
        );
    }

    /// A seed whose key ties an earlier plan's must not cut that plan. Over
    /// two chunks where only level 1 and the top level score on the first
    /// and only the top level on the second, the constant top plan (a seed)
    /// ties plan (1, top), which comes first and so is the decision.
    #[test]
    fn a_seed_tied_by_an_earlier_plan_leaves_it_the_decision() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let n = m.n_tracks();
        let top = n - 1;
        let mut window = vec![0.0; 2 * n];
        window[1] = 5.0;
        window[top] = 5.0;
        window[n + top] = 5.0;
        let row_max = [5.0, 5.0];
        for objective in [PandaCqObjective::MaxSum, PandaCqObjective::MaxMin] {
            let mut search = PlanSearch::default();
            // Downloads take no time, so every plan is safe.
            search.prepare(&m, 0, 2, 1.0e15);
            let mut plans = PandaPlans {
                window: &window,
                row_max: &row_max,
                n_levels: n,
                delta: m.chunk_duration(),
                safety: 4.0,
                objective,
                seed_key: (f64::NEG_INFINITY, f64::NEG_INFINITY),
                best_key: (f64::NEG_INFINITY, f64::NEG_INFINITY),
                fallback_violation: f64::INFINITY,
                any_safe: false,
            };
            let root = PandaState {
                buf: 30.0,
                min_buf: f64::INFINITY,
                q_sum: 0.0,
                q_min: f64::INFINITY,
            };
            assert_eq!(search.search(root, &mut plans), [1, top], "{objective:?}");
            assert_eq!(plans.best_key, plans.seed_key, "{objective:?}");
        }
    }

    #[test]
    fn end_of_video_window_shrinks() {
        let video = Dataset::ed_youtube_h264();
        let m = Manifest::from_video(&video);
        let mut cq = PandaCq::max_min(&video, VmafModel::Phone);
        let level = cq.choose_level(&ctx_with(&m, 30.0, 3.0e6, m.n_chunks() - 1));
        assert!(level < m.n_tracks());
    }
}
