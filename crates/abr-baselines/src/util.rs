//! Shared plan search for horizon-based schemes (MPC, RobustMPC, PANDA/CQ).
//! Public so downstream users can build their own horizon-based ABR
//! variants on the same primitive.
//!
//! A horizon scheme picks the best level assignment ("plan") for the next
//! `N` chunks. Plans that share a prefix share the partial state that
//! prefix produces, so [`PlanSearch`] walks the plan tree depth first: each
//! node extends its parent's state by one step, and the last step of every
//! plan is scored inline. Scoring every plan with the paper's N = 5 and 6
//! tracks takes 6 + 36 + … + 7776 = 9330 step evaluations per decision,
//! against the 5 × 7776 = 38880 a per-plan re-simulation needs. Download
//! times come from a table built once per decision.
//!
//! The search is a branch and bound. After each non-leaf step it asks the
//! objective ([`PlanObjective::prune`]) whether any leaf below can still
//! beat the best plan found so far, and skips the subtree if none can. The
//! schemes' bounds need no rounding slack: IEEE-754 round-to-nearest `+`,
//! `−`, `min` and `×` by a non-negative constant are monotone, so a bound
//! computed with the leaf's own f64 operation sequence, with each
//! remaining quality term raised to its row's maximum and each
//! non-decreasing penalty frozen at the prefix's value, is at least every
//! reachable leaf's f64 score.
//!
//! Plans are visited in lexicographic order (first chunk's level most
//! significant), every partial state is the same sequence of f64
//! operations a per-plan loop from the root would perform, and a pruned
//! subtree holds no leaf that could replace the incumbent under the
//! schemes' strict `>`. So a scheme's decisions, ties included, equal those
//! of exhaustive per-plan scoring.

use std::ops::Range;

use vbr_video::Manifest;

/// Longest horizon a scheme may be configured with. Search cost is
/// `n_levels^horizon`, so useful horizons are single digits (the paper's
/// MPC runs N = 5); constructors reject anything longer so a bad
/// configuration fails when it is built, not on its first decision.
pub const MAX_HORIZON: usize = 16;

/// A scheme's per-plan state and objective, driven by [`PlanSearch`].
pub trait PlanObjective {
    /// Partial state of a plan prefix (buffer, accumulated terms, …).
    type State: Copy;

    /// Extend `state` by downloading chunk `start + k` at `level`, which
    /// takes `dl` seconds at the decision's bandwidth.
    fn step(&self, state: &Self::State, k: usize, level: usize, dl: f64) -> Self::State;

    /// Score a complete plan whose first chunk is at level `first`.
    fn leaf(&mut self, state: &Self::State, first: usize);

    /// Whether no plan extending `state` over the chunk offsets `rest`
    /// can replace the best plan scored so far, so the search may skip
    /// them. Asked only about prefixes, never about complete plans. The
    /// default never prunes, which scores every plan.
    fn prune(&self, _state: &Self::State, _rest: Range<usize>) -> bool {
        false
    }
}

/// Depth-first plan search with its per-decision download-time table.
/// Call [`PlanSearch::prepare`] once per decision, then
/// [`PlanSearch::search`].
///
/// The table lives in the instance and only allocates when it first grows
/// to a horizon's size, so steady-state decisions do not allocate.
#[derive(Debug, Clone, Default)]
pub struct PlanSearch {
    /// `dl[k * n_levels + l]` — seconds to download chunk `start + k` at
    /// level `l`.
    dl: Vec<f64>,
    n_levels: usize,
    horizon: usize,
    /// Step evaluations since construction.
    steps: u64,
}

impl PlanSearch {
    /// Build the download-time table for chunks `start..start + horizon` of
    /// `manifest` at `bandwidth_bps`.
    ///
    /// # Panics
    /// Panics unless `1 <= horizon <= MAX_HORIZON` and the horizon fits in
    /// the video.
    pub fn prepare(
        &mut self,
        manifest: &Manifest,
        start: usize,
        horizon: usize,
        bandwidth_bps: f64,
    ) {
        assert!(horizon > 0 && horizon <= MAX_HORIZON && start + horizon <= manifest.n_chunks());
        let n = manifest.n_tracks();
        self.n_levels = n;
        self.horizon = horizon;
        self.dl.resize(horizon * n, 0.0);
        for k in 0..horizon {
            for l in 0..n {
                self.dl[k * n + l] = manifest.chunk_bits(l, start + k) / bandwidth_bps;
            }
        }
    }

    /// Visit the plans of the prepared horizon in lexicographic order,
    /// starting from `root`, and hand each completed plan that
    /// [`PlanObjective::prune`] did not cut to [`PlanObjective::leaf`].
    pub fn search<O: PlanObjective>(&mut self, root: O::State, objective: &mut O) {
        self.steps += self.descend(objective, 0, &root, 0);
    }

    /// Step evaluations ([`PlanObjective::step`] calls) over every search
    /// since construction. Exact and machine-independent: a search that
    /// prunes nothing over a full N = 5, 6-track horizon adds 9330.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Search the subtree below `state` at depth `k`; returns its step
    /// evaluations.
    fn descend<O: PlanObjective>(
        &self,
        obj: &mut O,
        k: usize,
        state: &O::State,
        first: usize,
    ) -> u64 {
        let n = self.n_levels;
        let row = &self.dl[k * n..(k + 1) * n];
        let mut steps = n as u64;
        if k + 1 == self.horizon {
            // Last step: score every leaf here rather than one call per leaf.
            for (l, &dl) in row.iter().enumerate() {
                let leaf = obj.step(state, k, l, dl);
                obj.leaf(&leaf, if k == 0 { l } else { first });
            }
        } else {
            for (l, &dl) in row.iter().enumerate() {
                let child = obj.step(state, k, l, dl);
                if !obj.prune(&child, k + 1..self.horizon) {
                    steps += self.descend(obj, k + 1, &child, if k == 0 { l } else { first });
                }
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use vbr_video::Dataset;

    /// Records every visited plan as its level sequence, and every prefix
    /// [`PlanObjective::prune`] is asked about; prunes each prefix whose
    /// first level is `cut`.
    struct Recorder {
        plans: Vec<(Vec<usize>, usize)>,
        asked: RefCell<Vec<(Vec<usize>, Range<usize>)>>,
        cut: Option<usize>,
    }

    impl PlanObjective for Recorder {
        type State = ([usize; MAX_HORIZON], usize);

        fn step(&self, state: &Self::State, k: usize, level: usize, _dl: f64) -> Self::State {
            assert_eq!(state.1, k);
            let mut seq = state.0;
            seq[k] = level;
            (seq, k + 1)
        }

        fn leaf(&mut self, state: &Self::State, first: usize) {
            self.plans.push((state.0[..state.1].to_vec(), first));
        }

        fn prune(&self, state: &Self::State, rest: Range<usize>) -> bool {
            self.asked
                .borrow_mut()
                .push((state.0[..state.1].to_vec(), rest));
            Some(state.0[0]) == self.cut
        }
    }

    fn visited(horizon: usize, cut: Option<usize>) -> (usize, Recorder, u64) {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut search = PlanSearch::default();
        search.prepare(&m, 0, horizon, 1.0e6);
        let mut rec = Recorder {
            plans: Vec::new(),
            asked: RefCell::new(Vec::new()),
            cut,
        };
        search.search(([0; MAX_HORIZON], 0), &mut rec);
        (m.n_tracks(), rec, search.steps())
    }

    #[test]
    fn visits_every_plan_in_lexicographic_order() {
        let (n, rec, steps) = visited(3, None);
        let plans = rec.plans;
        assert_eq!(plans.len(), n * n * n);
        assert_eq!(plans[0].0, vec![0, 0, 0]);
        assert_eq!(plans[1].0, vec![0, 0, 1]);
        assert_eq!(plans[n].0, vec![0, 1, 0]);
        assert_eq!(plans.last().unwrap().0, vec![n - 1; 3]);
        assert!(plans.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(plans.iter().all(|(seq, first)| seq[0] == *first));
        assert_eq!(steps, (n + n * n + n * n * n) as u64);
    }

    #[test]
    fn single_step_horizon_visits_each_level_once() {
        let (n, rec, steps) = visited(1, None);
        let expected: Vec<_> = (0..n).map(|l| (vec![l], l)).collect();
        assert_eq!(rec.plans, expected);
        assert_eq!(steps, n as u64);
        assert!(rec.asked.borrow().is_empty(), "a one-step plan is a leaf");
    }

    #[test]
    fn exhaustive_paper_horizon_costs_9330_steps() {
        let (n, rec, steps) = visited(5, None);
        assert_eq!(n, 6);
        assert_eq!(rec.plans.len(), 7776);
        assert_eq!(steps, 9330);
    }

    #[test]
    fn pruned_subtree_is_never_visited_and_leaves_are_never_asked() {
        let horizon = 3;
        let (n, rec, steps) = visited(horizon, Some(1));
        // Every plan but those under the cut prefix, still in order.
        let (all_n, all, _) = visited(horizon, None);
        assert_eq!(n, all_n);
        let kept: Vec<_> = all.plans.into_iter().filter(|p| p.0[0] != 1).collect();
        assert_eq!(rec.plans, kept);
        let asked = rec.asked.borrow();
        // Each first-level prefix is asked once; below the cut nothing is.
        assert_eq!(asked.len(), n + (n - 1) * n);
        assert!(asked.iter().all(|(seq, _)| seq.len() < horizon));
        assert!(asked
            .iter()
            .all(|(seq, rest)| *rest == (seq.len()..horizon)));
        assert!(!asked.iter().any(|(seq, _)| seq.len() > 1 && seq[0] == 1));
        // The cut prefix's own step still counts; its subtree's do not.
        assert_eq!(steps, (n + (n - 1) * (n + n * n)) as u64);
    }

    #[test]
    fn step_count_accumulates_across_searches() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let n = m.n_tracks() as u64;
        let mut search = PlanSearch::default();
        let mut rec = Recorder {
            plans: Vec::new(),
            asked: RefCell::new(Vec::new()),
            cut: None,
        };
        search.prepare(&m, 0, 2, 1.0e6);
        search.search(([0; MAX_HORIZON], 0), &mut rec);
        search.prepare(&m, 3, 1, 1.0e6);
        search.search(([0; MAX_HORIZON], 0), &mut rec);
        assert_eq!(search.steps(), n + n * n + n);
    }

    #[test]
    fn download_table_matches_manifest() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut search = PlanSearch::default();
        search.prepare(&m, 7, 4, 3.0e6);
        let n = m.n_tracks();
        assert_eq!((search.n_levels, search.horizon), (n, 4));
        for k in 0..4 {
            for l in 0..n {
                assert_eq!(search.dl[k * n + l], m.chunk_bits(l, 7 + k) / 3.0e6);
            }
        }
        // A shorter horizon later reuses the table without stale rows.
        search.prepare(&m, m.n_chunks() - 1, 1, 2.0e6);
        assert_eq!(search.horizon, 1);
        assert_eq!(search.dl.len(), n);
    }

    #[test]
    #[should_panic]
    fn horizon_past_video_end_panics() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        PlanSearch::default().prepare(&m, m.n_chunks() - 1, 2, 1.0e6);
    }

    #[test]
    #[should_panic]
    fn horizon_past_cap_panics() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        PlanSearch::default().prepare(&m, 0, MAX_HORIZON + 1, 1.0e6);
    }
}
