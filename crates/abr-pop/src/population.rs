//! The seeded population: viewer `i` as a pure function of `(seed, i)`.
//!
//! A population of `N` sessions over a horizon `[0, T]` is fully
//! determined by one seed. Each viewer's cohort, arrival time, trace
//! seed, and behaviour are derived from a per-viewer RNG keyed by
//! `splitmix64(seed, i)` — **no sequential state crosses viewers**, so a
//! million-session sweep can be sharded across any number of threads and
//! still produce bit-identical results in index order. Arrivals follow
//! the diurnal curve via the conditional-NHPP construction (see
//! [`crate::diurnal`]): given the population size, arrival times are
//! i.i.d. with density `λ(t)/Λ(T)`, so they too are per-viewer pure.

use crate::cohort::{Cohort, MixConfig};
use crate::diurnal::DiurnalConfig;
use crate::lifecycle::LifecycleConfig;
use abr_sim::SessionControl;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a seeded population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopConfig {
    /// Master seed: everything below derives from it.
    pub seed: u64,
    /// Number of viewer sessions.
    pub sessions: usize,
    /// Arrival horizon in seconds (sessions arrive in `[0, duration_s]`).
    pub duration_s: f64,
    /// Device/network/live mix.
    pub mix: MixConfig,
    /// Per-viewer behaviour draws.
    pub lifecycle: LifecycleConfig,
    /// Diurnal arrival curve.
    pub diurnal: DiurnalConfig,
}

impl Default for PopConfig {
    fn default() -> PopConfig {
        PopConfig {
            seed: 42,
            sessions: 10_000,
            duration_s: 86_400.0,
            mix: MixConfig::default(),
            lifecycle: LifecycleConfig::default(),
            diurnal: DiurnalConfig::default(),
        }
    }
}

impl PopConfig {
    /// Validate invariants.
    ///
    /// # Panics
    /// Panics on an empty population, a non-positive horizon, or invalid
    /// sub-configurations.
    pub fn validate(&self) {
        assert!(self.sessions > 0, "population must not be empty");
        assert!(self.duration_s > 0.0, "horizon must be positive");
        self.mix.validate();
        self.lifecycle.validate();
        self.diurnal.validate();
    }
}

/// One derived viewer session: everything an execution path needs to run
/// it — in-process (`bench`) or over sockets (`abr-serve`'s loadgen).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewerSession {
    /// Population index (0-based); with the seed, the full identity.
    pub index: usize,
    /// Arrival time in seconds from the population start.
    pub arrival_s: f64,
    /// Device/network/live cohort.
    pub cohort: Cohort,
    /// Seed for this viewer's network trace (feed to
    /// [`crate::cohort::NetworkRegime::trace`]).
    pub trace_seed: u64,
    /// Behaviour overlay, with times relative to the *session* start.
    pub control: SessionControl,
}

/// A seeded population of viewer sessions.
#[derive(Debug, Clone)]
pub struct Population {
    config: PopConfig,
}

/// SplitMix64: the standard 64-bit finalizer used to key per-viewer RNGs.
/// Pure arithmetic, so viewer derivation never touches shared state.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Population {
    /// Create a population.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`PopConfig::validate`]).
    pub fn new(config: PopConfig) -> Population {
        config.validate();
        Population { config }
    }

    /// Configuration in use.
    pub fn config(&self) -> &PopConfig {
        &self.config
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.config.sessions
    }

    /// Always false (construction rejects empty populations); provided
    /// for the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.config.sessions == 0
    }

    /// Derive viewer `index`. Pure in `(config, index)`: calling this in
    /// any order, from any thread, yields the same session.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn session(&self, index: usize) -> ViewerSession {
        assert!(index < self.config.sessions, "viewer index out of range");
        // Two independent streams per viewer: one RNG for behaviour
        // draws, one arithmetic derivation for the trace seed (kept out
        // of the RNG so trace identity survives lifecycle re-tuning).
        let key = splitmix64(self.config.seed ^ splitmix64(index as u64));
        let mut rng = StdRng::seed_from_u64(key);
        // Documented draw order: cohort (3 draws), arrival (1 draw),
        // lifecycle (see `LifecycleConfig::draw`).
        let cohort = self.config.mix.sample(&mut rng);
        let u_arrival = rng.gen::<f64>();
        let arrival_s = self
            .config
            .diurnal
            .arrival_from_uniform(u_arrival, self.config.duration_s);
        let control = self.config.lifecycle.draw(&mut rng, cohort.live);
        let trace_seed = splitmix64(key ^ 0x5eed_7ace_5eed_7ace);
        ViewerSession {
            index,
            arrival_s,
            cohort,
            trace_seed,
            control,
        }
    }

    /// All sessions in arrival order (ties broken by index): the order a
    /// serving front end would see them. Materializes the whole
    /// population — use [`Population::session`] directly for sharded
    /// million-session sweeps.
    pub fn schedule(&self) -> Vec<ViewerSession> {
        let mut all: Vec<ViewerSession> =
            (0..self.config.sessions).map(|i| self.session(i)).collect();
        all.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.index.cmp(&b.index))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::NetworkRegime;

    fn small_pop(seed: u64, sessions: usize) -> Population {
        Population::new(PopConfig {
            seed,
            sessions,
            ..PopConfig::default()
        })
    }

    #[test]
    fn per_index_derivation_is_pure() {
        let pop = small_pop(1, 1000);
        // Derive in reverse, then forward: identical.
        let reversed: Vec<ViewerSession> = (0..1000).rev().map(|i| pop.session(i)).collect();
        for (i, s) in reversed.iter().rev().enumerate() {
            assert_eq!(*s, pop.session(i));
        }
    }

    #[test]
    fn same_seed_same_population_different_seed_different() {
        let a = small_pop(7, 200);
        let b = small_pop(7, 200);
        let c = small_pop(8, 200);
        for i in 0..200 {
            assert_eq!(a.session(i), b.session(i));
        }
        assert!(
            (0..200).any(|i| a.session(i) != c.session(i)),
            "different seeds must differ"
        );
    }

    #[test]
    fn trace_seeds_are_distinct_across_viewers() {
        let pop = small_pop(3, 2000);
        let mut seeds: Vec<u64> = (0..2000).map(|i| pop.session(i).trace_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2000, "trace seed collision");
    }

    #[test]
    fn arrivals_follow_the_diurnal_curve() {
        // The satellite task's statistical sanity check: bin arrivals by
        // hour over one day and compare each bin against the expected
        // share of the cumulative rate.
        let pop = small_pop(42, 40_000);
        let d = pop.config().diurnal;
        let horizon = pop.config().duration_s;
        let mut bins = [0usize; 24];
        for i in 0..pop.len() {
            let t = pop.session(i).arrival_s;
            let hour = ((t / 3600.0) as usize).min(23);
            bins[hour] += 1;
        }
        let total_rate = d.cumulative(horizon);
        for (h, &count) in bins.iter().enumerate() {
            let lo = h as f64 * 3600.0;
            let hi = lo + 3600.0;
            let expected = (d.cumulative(hi) - d.cumulative(lo)) / total_rate * pop.len() as f64;
            let observed = count as f64;
            assert!(
                (observed - expected).abs() < 0.15 * expected + 30.0,
                "hour {h}: observed {observed}, expected {expected:.0}"
            );
        }
        // The peak-hour bin must clearly dominate the trough bin.
        let peak = bins[20] as f64;
        let trough = bins[8] as f64;
        assert!(
            peak > 2.5 * trough,
            "diurnal shape missing: peak {peak} trough {trough}"
        );
    }

    #[test]
    fn mix_fractions_hold_at_scale() {
        let pop = small_pop(5, 20_000);
        let mut phone = 0usize;
        let mut by_network = [0usize; 4];
        let mut live = 0usize;
        for i in 0..pop.len() {
            let s = pop.session(i);
            if s.cohort.device == crate::cohort::Device::Phone {
                phone += 1;
            }
            let ni = NetworkRegime::ALL
                .iter()
                .position(|&r| r == s.cohort.network);
            by_network[ni.unwrap()] += 1;
            if s.cohort.live {
                live += 1;
            }
        }
        let n = pop.len() as f64;
        let mix = pop.config().mix;
        assert!((phone as f64 / n - mix.phone / (mix.phone + mix.tv)).abs() < 0.02);
        let net_total: f64 = mix.network.iter().sum();
        for (k, &count) in by_network.iter().enumerate() {
            assert!(
                (count as f64 / n - mix.network[k] / net_total).abs() < 0.02,
                "network {k}: {count}"
            );
        }
        assert!((live as f64 / n - mix.live_fraction).abs() < 0.02);
    }

    #[test]
    fn schedule_is_sorted_by_arrival() {
        let pop = small_pop(11, 500);
        let sched = pop.schedule();
        assert_eq!(sched.len(), 500);
        for w in sched.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        // Every index appears exactly once.
        let mut idx: Vec<usize> = sched.iter().map(|s| s.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn sessions_execute_through_the_simulator() {
        use abr_sim::abr::FixedLevel;
        use abr_sim::Simulator;
        use vbr_video::{Dataset, Manifest};
        let pop = small_pop(2, 40);
        let manifest = Manifest::from_video(&Dataset::ed_youtube_h264());
        let mut abandoned = 0usize;
        let mut seeks = 0usize;
        for i in 0..pop.len() {
            let s = pop.session(i);
            let sim = Simulator::new(s.cohort.player_config());
            let trace = s.cohort.network.trace(s.trace_seed);
            let r = sim.run_controlled(&mut FixedLevel::new(1), &manifest, &trace, &s.control);
            assert!(r.validate().is_ok(), "viewer {i}: {:?}", r.validate());
            if r.abandoned {
                abandoned += 1;
            }
            seeks += r.n_seeks;
        }
        assert!(abandoned > 0, "some viewers abandon");
        assert!(seeks > 0, "some viewers seek");
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics() {
        let pop = small_pop(1, 10);
        let _ = pop.session(10);
    }

    #[test]
    #[should_panic]
    fn empty_population_rejected() {
        let _ = Population::new(PopConfig {
            sessions: 0,
            ..PopConfig::default()
        });
    }
}
