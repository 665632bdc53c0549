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
//! The search is warm-started. Before descending it walks a few *seed*
//! plans with the same [`PlanObjective::step`] sequence and hands each
//! complete state to [`PlanObjective::seed`]: every constant plan, and the
//! previous search's best plan shifted by one chunk with its last level
//! repeated, when the previous search planned from the chunk just before
//! this one (a seek or a new session gets no stale seed). The search keeps
//! the incumbent's levels in a fixed array as it descends, so that plan is
//! at hand for the next decision. A seed is not a candidate: it only gives
//! the objective a score some plan is known to reach, so the first subtrees
//! are pruned before any leaf has been scored. The horizon-1 search, whose
//! seeds are its leaves, and an objective that never prunes
//! ([`PlanObjective::bounded`] is `false`) walk no seeds.
//!
//! Plans are visited in lexicographic order (first chunk's level most
//! significant), every partial state is the same sequence of f64
//! operations a per-plan loop from the root would perform, and a pruned
//! subtree holds no leaf that could replace the incumbent under the
//! schemes' strict `>`. A prefix is pruned against a seed only when its
//! bound is strictly below the best seed's score, and against an incumbent
//! when it is `≤`: the seed may come later in lexicographic order than a
//! plan that ties it, so only a bound below it rules a subtree out. The
//! first plan in lexicographic order with the best score therefore has no
//! pruned prefix: its bounds reach its score, which is at least every
//! seed's and above every incumbent before it. So a scheme's decisions,
//! ties included, equal those of exhaustive per-plan scoring.

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

    /// Score a complete plan; `true` when it replaces the best plan scored
    /// so far, whose levels the search then keeps.
    fn leaf(&mut self, state: &Self::State) -> bool;

    /// Whether [`PlanObjective::prune`] can ever cut a prefix. Seeds only
    /// serve pruning, so the search walks them only when this is `true`.
    /// The default is `false`, like the default `prune`.
    fn bounded(&self) -> bool {
        false
    }

    /// Note a seed plan's complete state, walked before the search. A seed
    /// is not a candidate plan: its score only tells `prune` what some plan
    /// of this decision reaches.
    fn seed(&mut self, _state: &Self::State) {}

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
/// to a horizon's size, so steady-state decisions do not allocate; the kept
/// plan and the seeds are inline arrays.
#[derive(Debug, Clone, Default)]
pub struct PlanSearch {
    /// `dl[k * n_levels + l]` — seconds to download chunk `start + k` at
    /// level `l`.
    dl: Vec<f64>,
    n_levels: usize,
    horizon: usize,
    /// First chunk of the prepared horizon.
    start: usize,
    /// Levels of the last search's best plan; `plan[..plan_len]` is valid.
    plan: [usize; MAX_HORIZON],
    plan_len: usize,
    /// First chunk the last search planned from (`None` before any).
    plan_start: Option<usize>,
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
        self.start = start;
        self.dl.resize(horizon * n, 0.0);
        for k in 0..horizon {
            for l in 0..n {
                self.dl[k * n + l] = manifest.chunk_bits(l, start + k) / bandwidth_bps;
            }
        }
    }

    /// Walk the seeds, then visit the plans of the prepared horizon in
    /// lexicographic order, starting from `root`, and hand each completed
    /// plan that [`PlanObjective::prune`] did not cut to
    /// [`PlanObjective::leaf`]. Returns the levels of the last plan `leaf`
    /// accepted, or all lowest levels if it accepted none.
    pub fn search<O: PlanObjective>(&mut self, root: O::State, objective: &mut O) -> &[usize] {
        let h = self.horizon;
        if h > 1 && objective.bounded() {
            let mut seed = [0; MAX_HORIZON];
            for l in 0..self.n_levels {
                seed[..h].fill(l);
                self.walk_seed(&root, objective, &seed[..h]);
            }
            if let Some(shifted) = self.shifted_plan() {
                self.walk_seed(&root, objective, &shifted[..h]);
            }
        }
        let mut path = [0; MAX_HORIZON];
        let mut best = [0; MAX_HORIZON];
        self.steps += self.descend(objective, 0, &root, &mut path, &mut best);
        self.plan = best;
        self.plan_len = h;
        self.plan_start = Some(self.start);
        &self.plan[..h]
    }

    /// Step evaluations ([`PlanObjective::step`] calls) over every search
    /// since construction, seed walks included. Exact and
    /// machine-independent: a search that prunes nothing over a full N = 5,
    /// 6-track horizon adds 9330.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The last search's best plan shifted one chunk on, its last level
    /// repeated to fill the horizon, if that search planned from the chunk
    /// before this one. A constant result is skipped (it was walked as a
    /// constant seed), as is a level past this ladder's top.
    fn shifted_plan(&self) -> Option<[usize; MAX_HORIZON]> {
        if self.plan_start.map(|s| s + 1) != Some(self.start) {
            return None;
        }
        let h = self.horizon;
        let last = self.plan_len - 1;
        let mut shifted = [0; MAX_HORIZON];
        for (k, level) in shifted[..h].iter_mut().enumerate() {
            *level = self.plan[(k + 1).min(last)];
        }
        let seq = &shifted[..h];
        (seq.iter().any(|&l| l != seq[0]) && seq.iter().all(|&l| l < self.n_levels))
            .then_some(shifted)
    }

    /// Step through `plan` from `root` and hand the complete state to
    /// [`PlanObjective::seed`].
    fn walk_seed<O: PlanObjective>(&mut self, root: &O::State, obj: &mut O, plan: &[usize]) {
        let n = self.n_levels;
        let mut state = *root;
        for (k, &level) in plan.iter().enumerate() {
            state = obj.step(&state, k, level, self.dl[k * n + level]);
        }
        obj.seed(&state);
        self.steps += plan.len() as u64;
    }

    /// Search the subtree below `state` at depth `k`, whose levels so far
    /// are `path[..k]`, copying each plan `leaf` accepts into `best`;
    /// returns its step evaluations.
    fn descend<O: PlanObjective>(
        &self,
        obj: &mut O,
        k: usize,
        state: &O::State,
        path: &mut [usize; MAX_HORIZON],
        best: &mut [usize; MAX_HORIZON],
    ) -> u64 {
        let n = self.n_levels;
        let row = &self.dl[k * n..(k + 1) * n];
        let mut steps = n as u64;
        if k + 1 == self.horizon {
            // Last step: score every leaf here rather than one call per leaf.
            for (l, &dl) in row.iter().enumerate() {
                let leaf = obj.step(state, k, l, dl);
                if obj.leaf(&leaf) {
                    best[..k].copy_from_slice(&path[..k]);
                    best[k] = l;
                }
            }
        } else {
            for (l, &dl) in row.iter().enumerate() {
                let child = obj.step(state, k, l, dl);
                if !obj.prune(&child, k + 1..self.horizon) {
                    path[k] = l;
                    steps += self.descend(obj, k + 1, &child, path, best);
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

    /// Records every visited plan as its level sequence, every seed it is
    /// shown, and every prefix [`PlanObjective::prune`] is asked about;
    /// prunes each prefix whose first level is `cut`. A leaf is accepted
    /// when twice its levels lie strictly closer (squared distance) to
    /// `target` than every plan before it; an odd target entry ties two
    /// levels.
    struct Recorder {
        plans: Vec<Vec<usize>>,
        seeds: Vec<Vec<usize>>,
        asked: RefCell<Vec<(Vec<usize>, Range<usize>)>>,
        cut: Option<usize>,
        bounded: bool,
        target: [usize; MAX_HORIZON],
        best_distance: usize,
    }

    impl Recorder {
        fn new(cut: Option<usize>, bounded: bool) -> Recorder {
            Recorder {
                plans: Vec::new(),
                seeds: Vec::new(),
                asked: RefCell::new(Vec::new()),
                cut,
                bounded,
                target: [0; MAX_HORIZON],
                best_distance: usize::MAX,
            }
        }

        /// Accept plans closest to `levels`.
        fn aim(&mut self, levels: &[usize]) {
            for (t, &l) in self.target.iter_mut().zip(levels) {
                *t = 2 * l;
            }
        }

        fn distance(&self, seq: &[usize]) -> usize {
            seq.iter()
                .zip(&self.target)
                .map(|(&l, &t)| (2 * l).abs_diff(t).pow(2))
                .sum()
        }
    }

    impl PlanObjective for Recorder {
        type State = ([usize; MAX_HORIZON], usize);

        fn step(&self, state: &Self::State, k: usize, level: usize, _dl: f64) -> Self::State {
            assert_eq!(state.1, k);
            let mut seq = state.0;
            seq[k] = level;
            (seq, k + 1)
        }

        fn leaf(&mut self, state: &Self::State) -> bool {
            let seq = &state.0[..state.1];
            self.plans.push(seq.to_vec());
            let distance = self.distance(seq);
            let better = distance < self.best_distance;
            if better {
                self.best_distance = distance;
            }
            better
        }

        fn bounded(&self) -> bool {
            self.bounded
        }

        fn seed(&mut self, state: &Self::State) {
            self.seeds.push(state.0[..state.1].to_vec());
        }

        fn prune(&self, state: &Self::State, rest: Range<usize>) -> bool {
            self.asked
                .borrow_mut()
                .push((state.0[..state.1].to_vec(), rest));
            Some(state.0[0]) == self.cut
        }
    }

    fn root() -> ([usize; MAX_HORIZON], usize) {
        ([0; MAX_HORIZON], 0)
    }

    fn visited(horizon: usize, cut: Option<usize>) -> (usize, Recorder, u64) {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut search = PlanSearch::default();
        search.prepare(&m, 0, horizon, 1.0e6);
        let mut rec = Recorder::new(cut, false);
        search.search(root(), &mut rec);
        (m.n_tracks(), rec, search.steps())
    }

    #[test]
    fn visits_every_plan_in_lexicographic_order() {
        let (n, rec, steps) = visited(3, None);
        let plans = rec.plans;
        assert_eq!(plans.len(), n * n * n);
        assert_eq!(plans[0], vec![0, 0, 0]);
        assert_eq!(plans[1], vec![0, 0, 1]);
        assert_eq!(plans[n], vec![0, 1, 0]);
        assert_eq!(plans.last().unwrap(), &vec![n - 1; 3]);
        assert!(plans.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(steps, (n + n * n + n * n * n) as u64);
    }

    #[test]
    fn single_step_horizon_visits_each_level_once() {
        let (n, rec, steps) = visited(1, None);
        let expected: Vec<_> = (0..n).map(|l| vec![l]).collect();
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
        let kept: Vec<_> = all.plans.into_iter().filter(|p| p[0] != 1).collect();
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
        let mut rec = Recorder::new(None, false);
        search.prepare(&m, 0, 2, 1.0e6);
        search.search(root(), &mut rec);
        search.prepare(&m, 3, 1, 1.0e6);
        search.search(root(), &mut rec);
        assert_eq!(search.steps(), n + n * n + n);
    }

    #[test]
    fn seed_walks_are_counted_in_steps() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let n = m.n_tracks();
        let mut search = PlanSearch::default();
        let mut rec = Recorder::new(None, true);
        search.prepare(&m, 0, 3, 1.0e6);
        search.search(root(), &mut rec);
        // Every constant plan, each walked in full, before any leaf.
        let constants: Vec<_> = (0..n).map(|l| vec![l; 3]).collect();
        assert_eq!(rec.seeds, constants);
        assert_eq!(rec.plans.len(), n * n * n);
        assert_eq!(search.steps(), (3 * n + n + n * n + n * n * n) as u64);
    }

    #[test]
    fn one_step_horizons_and_unbounded_objectives_walk_no_seeds() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let n = m.n_tracks() as u64;
        for (horizon, bounded, exhaustive) in [(1, true, n), (3, false, n + n * n + n * n * n)] {
            let mut search = PlanSearch::default();
            let mut rec = Recorder::new(None, bounded);
            // Two consecutive decisions, so a shifted seed would be due.
            for start in [4, 5] {
                search.prepare(&m, start, horizon, 1.0e6);
                search.search(root(), &mut rec);
            }
            assert!(rec.seeds.is_empty(), "horizon {horizon} bounded {bounded}");
            assert_eq!(search.steps(), 2 * exhaustive);
        }
    }

    #[test]
    fn kept_plan_is_the_brute_force_best() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let n = m.n_tracks();
        let horizon = 4;
        let mut search = PlanSearch::default();
        search.prepare(&m, 0, horizon, 1.0e6);
        let mut rec = Recorder::new(None, true);
        // Levels 3.5, 1, 4.5 and 1.5: eight plans tie at the least distance,
        // and strict acceptance keeps the first in lexicographic order.
        rec.target[..horizon].copy_from_slice(&[7, 2, 9, 3]);
        let plan = search.search(root(), &mut rec).to_vec();
        let brute = rec
            .plans
            .iter()
            .min_by_key(|seq| rec.distance(seq))
            .unwrap();
        assert_eq!(rec.plans.len(), n.pow(horizon as u32));
        assert_eq!(&plan, brute);
        assert_eq!(plan, vec![3, 1, 4, 1]);
    }

    #[test]
    fn a_plan_nothing_accepts_is_all_lowest_levels() {
        struct Never;
        impl PlanObjective for Never {
            type State = ();
            fn step(&self, _: &(), _: usize, _: usize, _: f64) {}
            fn leaf(&mut self, _: &()) -> bool {
                false
            }
        }
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut search = PlanSearch::default();
        search.prepare(&m, 0, 3, 1.0e6);
        assert_eq!(search.search((), &mut Never), [0, 0, 0]);
    }

    #[test]
    fn shifted_seed_follows_only_the_next_chunk() {
        let m = Manifest::from_video(&Dataset::ed_youtube_h264());
        let n = m.n_tracks();
        let horizon = 4;
        let mut search = PlanSearch::default();
        let mut seeds_at = |start: usize, horizon: usize, target: [usize; 4]| {
            let mut rec = Recorder::new(None, true);
            rec.aim(&target);
            search.prepare(&m, start, horizon, 1.0e6);
            let plan = search.search(root(), &mut rec).to_vec();
            assert_eq!(plan, target[..horizon]);
            rec.seeds.split_off(n)
        };
        let none: Vec<Vec<usize>> = Vec::new();
        assert_eq!(seeds_at(10, horizon, [1, 3, 2, 5]), none);
        // The next chunk: the plan moves one on and repeats its last level.
        assert_eq!(seeds_at(11, horizon, [2, 0, 4, 4]), vec![vec![3, 2, 5, 5]]);
        // A horizon cut short by the live edge takes a prefix of it ...
        assert_eq!(seeds_at(12, 3, [2, 1, 0, 0]), vec![vec![0, 4, 4]]);
        // ... and a longer one after it repeats the last kept level.
        assert_eq!(seeds_at(13, horizon, [1, 1, 1, 1]), vec![vec![1, 0, 0, 0]]);
        // Seeks forward and back, and the same chunk again, get no seed.
        assert_eq!(seeds_at(20, horizon, [0, 1, 2, 3]), none);
        assert_eq!(seeds_at(19, horizon, [0, 1, 2, 3]), none);
        assert_eq!(seeds_at(19, horizon, [0, 1, 2, 3]), none);
        // A shifted plan that is constant was already walked as one.
        assert_eq!(seeds_at(30, horizon, [0, 5, 5, 5]), none);
        assert_eq!(seeds_at(31, horizon, [5, 5, 5, 5]), none);
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
