//! Device/network cohorts and the population mix.
//!
//! A cohort is the cross of a *device class* (phone vs TV — which picks
//! the VMAF viewing model and therefore the QoE config), an *access
//! network regime* (the four seeded generators in `net-trace`), and a
//! *live* flag (live-edge viewers stream with a bounded DVR window). The
//! [`MixConfig`] gives the marginal weights; sampling draws the three
//! axes independently, which matches how the axes are reported in
//! deployment studies (device share, network share, live share).

use abr_sim::{LiveConfig, PlayerConfig, QoeConfig};
use net_trace::fcc::{fcc_trace, FccConfig};
use net_trace::fiveg::{fiveg_trace, FiveGConfig};
use net_trace::lte::{lte_trace, LteConfig};
use net_trace::satellite::{satellite_trace, SatelliteConfig, GEO_RTT_S};
use net_trace::Trace;
use rand::rngs::StdRng;
use rand::Rng;

/// Viewing device class; selects the VMAF model used for QoE scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Device {
    /// Small screen — scored with the phone VMAF model.
    Phone,
    /// Living-room screen — scored with the TV VMAF model.
    Tv,
}

/// Access-network regime; selects the seeded trace generator. Also the
/// catalog of trace corpora: each regime names its CLI kind, its CSV and
/// journal label, its corpus base seed and its §6.1 QoE pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkRegime {
    /// Cellular drive traces (the paper's LTE set).
    Lte,
    /// Fixed-broadband traces (the paper's FCC set).
    Fcc,
    /// High-variance 5G: mmWave peaks and blockage collapses.
    FiveG,
    /// GEO satellite: smooth rates, long rain fades, ~550 ms RTT.
    Satellite,
}

impl NetworkRegime {
    /// Every regime, in declaration order.
    pub const ALL: [NetworkRegime; 4] = [
        NetworkRegime::Lte,
        NetworkRegime::Fcc,
        NetworkRegime::FiveG,
        NetworkRegime::Satellite,
    ];

    /// Stable lowercase name, used in cohort labels and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkRegime::Lte => "lte",
            NetworkRegime::Fcc => "fcc",
            NetworkRegime::FiveG => "5g",
            NetworkRegime::Satellite => "satellite",
        }
    }

    /// The regime whose [`NetworkRegime::name`] is `name`.
    pub fn from_name(name: &str) -> Option<NetworkRegime> {
        NetworkRegime::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Corpus label used in CSVs and run journals.
    pub fn label(&self) -> &'static str {
        match self {
            NetworkRegime::Lte => "LTE",
            NetworkRegime::Fcc => "FCC",
            NetworkRegime::FiveG => "5G",
            NetworkRegime::Satellite => "SAT",
        }
    }

    /// The fixed base seed of this regime's evaluation corpus.
    pub fn corpus_seed(&self) -> u64 {
        match self {
            NetworkRegime::Lte => 42,
            NetworkRegime::Fcc => 4242,
            NetworkRegime::FiveG => 424_242,
            NetworkRegime::Satellite => 42_424_242,
        }
    }

    /// The QoE configuration a corpus of this regime is scored with: the
    /// cellular regimes (LTE, 5G) use the phone VMAF model as in §6.1, the
    /// fixed-line regimes (FCC, satellite) the TV model. Population cohorts
    /// pick theirs by device instead ([`Cohort::qoe_config`]).
    pub fn corpus_qoe(&self) -> QoeConfig {
        match self {
            NetworkRegime::Lte | NetworkRegime::FiveG => QoeConfig::lte(),
            NetworkRegime::Fcc | NetworkRegime::Satellite => QoeConfig::fcc(),
        }
    }

    /// Generate the seeded trace for one session on this regime, using
    /// each generator's default parameters.
    pub fn trace(&self, seed: u64) -> Trace {
        match self {
            NetworkRegime::Lte => lte_trace(seed, &LteConfig::default()),
            NetworkRegime::Fcc => fcc_trace(seed, &FccConfig::default()),
            NetworkRegime::FiveG => fiveg_trace(seed, &FiveGConfig::default()),
            NetworkRegime::Satellite => satellite_trace(seed, &SatelliteConfig::default()),
        }
    }

    /// `count` traces with consecutive seeds from `base_seed`: the same
    /// corpus the matching `net_trace::*_traces` generator returns.
    pub fn corpus(&self, count: usize, base_seed: u64) -> Vec<Trace> {
        (0..count)
            .map(|i| self.trace(base_seed.wrapping_add(i as u64)))
            .collect()
    }
}

/// One population cohort: device × network × live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cohort {
    /// Viewing device class.
    pub device: Device,
    /// Access-network regime.
    pub network: NetworkRegime,
    /// True for live-edge viewers (bounded DVR window, no seeking).
    pub live: bool,
}

impl Cohort {
    /// Stable label, e.g. `phone-5g` or `tv-fcc-live`: the grouping key
    /// for per-cohort reporting.
    pub fn label(&self) -> String {
        let device = match self.device {
            Device::Phone => "phone",
            Device::Tv => "tv",
        };
        if self.live {
            format!("{device}-{}-live", self.network.name())
        } else {
            format!("{device}-{}", self.network.name())
        }
    }

    /// The player configuration this cohort streams with: satellite
    /// viewers pay the GEO request RTT, live viewers get a 3-chunk
    /// head-start window, everyone else uses the paper defaults.
    pub fn player_config(&self) -> PlayerConfig {
        PlayerConfig {
            request_rtt_s: match self.network {
                NetworkRegime::Satellite => GEO_RTT_S,
                _ => 0.0,
            },
            live: if self.live {
                Some(LiveConfig {
                    head_start_chunks: 3,
                })
            } else {
                None
            },
            ..PlayerConfig::default()
        }
    }

    /// The QoE configuration for this cohort's device class.
    pub fn qoe_config(&self) -> QoeConfig {
        match self.device {
            Device::Phone => QoeConfig::lte(),
            Device::Tv => QoeConfig::fcc(),
        }
    }

    /// Every cohort, in stable report order (device-major, then network,
    /// VoD before live).
    pub fn all() -> Vec<Cohort> {
        let mut out = Vec::with_capacity(16);
        for device in [Device::Phone, Device::Tv] {
            for network in NetworkRegime::ALL {
                for live in [false, true] {
                    out.push(Cohort {
                        device,
                        network,
                        live,
                    });
                }
            }
        }
        out
    }
}

/// Marginal weights of the population mix. Weights need not sum to 1;
/// they are normalized when sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixConfig {
    /// Weight of phone viewers (vs TV).
    pub phone: f64,
    /// Weight of TV viewers.
    pub tv: f64,
    /// Network-regime weights, in [`NetworkRegime`] declaration order:
    /// LTE, FCC, 5G, satellite.
    pub network: [f64; 4],
    /// Fraction of viewers watching the live edge, in `[0, 1]`.
    pub live_fraction: f64,
}

impl Default for MixConfig {
    fn default() -> MixConfig {
        MixConfig {
            phone: 0.55,
            tv: 0.45,
            network: [0.4, 0.35, 0.15, 0.1],
            live_fraction: 0.1,
        }
    }
}

impl MixConfig {
    /// Validate invariants.
    ///
    /// # Panics
    /// Panics on negative weights, an all-zero axis, or a live fraction
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.phone >= 0.0 && self.tv >= 0.0 && self.phone + self.tv > 0.0,
            "device weights must be non-negative and not all zero"
        );
        assert!(
            self.network.iter().all(|&w| w >= 0.0) && self.network.iter().sum::<f64>() > 0.0,
            "network weights must be non-negative and not all zero"
        );
        assert!(
            (0.0..=1.0).contains(&self.live_fraction),
            "live fraction must be in [0, 1]"
        );
    }

    /// Draw one cohort. Consumes exactly three uniform draws from `rng`,
    /// in the documented order: device, network, live.
    pub fn sample(&self, rng: &mut StdRng) -> Cohort {
        let device = if rng.gen::<f64>() * (self.phone + self.tv) < self.phone {
            Device::Phone
        } else {
            Device::Tv
        };
        let total: f64 = self.network.iter().sum();
        let mut x = rng.gen::<f64>() * total;
        let mut picked = 3usize;
        for (i, &w) in self.network.iter().enumerate() {
            if x < w {
                picked = i;
                break;
            }
            x -= w;
        }
        let network = NetworkRegime::ALL[picked];
        let live = rng.gen::<f64>() < self.live_fraction;
        Cohort {
            device,
            network,
            live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn labels_are_stable_and_unique() {
        let labels: Vec<String> = Cohort::all().iter().map(Cohort::label).collect();
        assert_eq!(labels.len(), 16);
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "labels must be unique");
        assert!(labels.contains(&"phone-5g".to_string()));
        assert!(labels.contains(&"tv-satellite-live".to_string()));
    }

    #[test]
    fn satellite_cohorts_pay_the_geo_rtt() {
        let sat = Cohort {
            device: Device::Tv,
            network: NetworkRegime::Satellite,
            live: false,
        };
        assert!(sat.player_config().request_rtt_s > 0.5);
        let lte = Cohort {
            device: Device::Tv,
            network: NetworkRegime::Lte,
            live: false,
        };
        assert_eq!(lte.player_config().request_rtt_s, 0.0);
    }

    #[test]
    fn live_cohorts_get_a_dvr_window() {
        let c = Cohort {
            device: Device::Phone,
            network: NetworkRegime::Fcc,
            live: true,
        };
        assert!(c.player_config().live.is_some());
        c.player_config().validate();
    }

    #[test]
    fn sampling_respects_the_mix() {
        let mix = MixConfig {
            phone: 1.0,
            tv: 0.0,
            network: [0.0, 0.0, 1.0, 0.0],
            live_fraction: 0.0,
        };
        mix.validate();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let c = mix.sample(&mut rng);
            assert_eq!(c.device, Device::Phone);
            assert_eq!(c.network, NetworkRegime::FiveG);
            assert!(!c.live);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let mix = MixConfig::default();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut a), mix.sample(&mut b));
        }
    }

    #[test]
    fn regimes_generate_distinct_traces() {
        let seeds = 7u64;
        let traces: Vec<Trace> = NetworkRegime::ALL.iter().map(|r| r.trace(seeds)).collect();
        for i in 0..traces.len() {
            for j in i + 1..traces.len() {
                assert_ne!(traces[i].samples(), traces[j].samples());
            }
        }
    }

    #[test]
    fn corpus_matches_the_net_trace_generators() {
        use net_trace::{fcc, fiveg, lte, satellite};
        let (n, seed) = (3, 17);
        for regime in NetworkRegime::ALL {
            let expected = match regime {
                NetworkRegime::Lte => lte::lte_traces(n, seed, &Default::default()),
                NetworkRegime::Fcc => fcc::fcc_traces(n, seed, &Default::default()),
                NetworkRegime::FiveG => fiveg::fiveg_traces(n, seed, &Default::default()),
                NetworkRegime::Satellite => {
                    satellite::satellite_traces(n, seed, &Default::default())
                }
            };
            let corpus = regime.corpus(n, seed);
            assert_eq!(corpus.len(), n);
            assert_eq!(corpus, expected, "{regime:?}");
        }
    }

    #[test]
    fn regime_names_labels_and_seeds_are_distinct() {
        fn distinct<T: Ord>(mut v: Vec<T>) -> usize {
            v.sort_unstable();
            v.dedup();
            v.len()
        }
        let all = NetworkRegime::ALL;
        assert_eq!(distinct(all.map(|r| r.name()).to_vec()), all.len());
        assert_eq!(distinct(all.map(|r| r.label()).to_vec()), all.len());
        assert_eq!(distinct(all.map(|r| r.corpus_seed()).to_vec()), all.len());
        for regime in all {
            assert_eq!(NetworkRegime::from_name(regime.name()), Some(regime));
        }
        assert_eq!(NetworkRegime::from_name("dsl"), None);
        assert_eq!(NetworkRegime::Lte.corpus_seed(), 42);
        assert_eq!(NetworkRegime::Fcc.corpus_seed(), 4242);
    }

    #[test]
    #[should_panic]
    fn all_zero_network_mix_rejected() {
        MixConfig {
            network: [0.0; 4],
            ..MixConfig::default()
        }
        .validate();
    }
}
