//! One module per paper table/figure. Each `run()` prints the experiment's
//! rows/series and writes CSV under [`crate::results_dir`].

pub mod exp_alloc_gate;
pub mod exp_bw_error;
pub mod exp_cap4x;
pub mod exp_chunk_duration;
pub mod exp_class_granularity;
pub mod exp_classification_proxy;
pub mod exp_codec_h265;
pub mod exp_config_robustness;
pub mod exp_live;
pub mod exp_offline_opt;
pub mod exp_oracle;
pub mod exp_outer_window;
pub mod exp_per_title;
pub mod exp_pia_vs_cava;
pub mod exp_plan_counts;
pub mod exp_population;
pub mod exp_serve_chaos;
pub mod exp_serve_soak;
pub mod exp_switch_penalty;
pub mod exp_vbr_vs_cbr;
pub mod fig01_bitrate_profile;
pub mod fig02_si_ti;
pub mod fig03_quality_cdf;
pub mod fig04_myopic;
pub mod fig06_target_preview;
pub mod fig07_inner_window;
pub mod fig08_scheme_comparison;
pub mod fig09_q13_quality;
pub mod fig10_ablation;
pub mod fig11_bola;
pub mod table1_youtube;
pub mod table2_bola_seg;

use std::io;

/// Registry of every experiment: `(id, description, entry point)`.
#[allow(clippy::type_complexity)]
pub fn registry() -> Vec<(&'static str, &'static str, fn() -> io::Result<()>)> {
    vec![
        (
            "fig01",
            "Per-chunk bitrates of a VBR video (Fig. 1)",
            fig01_bitrate_profile::run,
        ),
        (
            "fig02",
            "SI/TI by size-quartile class (Fig. 2)",
            fig02_si_ti::run,
        ),
        (
            "fig03",
            "Quality CDFs by chunk class (Fig. 3)",
            fig03_quality_cdf::run,
        ),
        (
            "fig04",
            "Myopic schemes vs CAVA timeline (Fig. 4)",
            fig04_myopic::run,
        ),
        (
            "fig06",
            "Dynamic target buffer vs chunk sizes (Fig. 6(b), measured)",
            fig06_target_preview::run,
        ),
        (
            "fig07",
            "Inner-controller window sweep (Fig. 7)",
            fig07_inner_window::run,
        ),
        (
            "outer_window",
            "Outer-controller window sweep (§6.2)",
            exp_outer_window::run,
        ),
        (
            "fig08",
            "Scheme comparison, 5 metric CDFs (Fig. 8)",
            fig08_scheme_comparison::run,
        ),
        (
            "fig09",
            "Q1-Q3 and all-chunk quality CDFs (Fig. 9)",
            fig09_q13_quality::run,
        ),
        (
            "fig10",
            "Design-principle ablation (Fig. 10)",
            fig10_ablation::run,
        ),
        (
            "fig11",
            "CAVA vs BOLA-E variants (Fig. 11)",
            fig11_bola::run,
        ),
        (
            "table1",
            "YouTube videos, LTE+FCC deltas (Table 1)",
            table1_youtube::run,
        ),
        (
            "table2",
            "CAVA vs BOLA-E (seg) (Table 2)",
            table2_bola_seg::run,
        ),
        ("codec", "H.265 codec impact (§6.5)", exp_codec_h265::run),
        (
            "cap4x",
            "4x-capped encoding: characterization (§3.3) + streaming (§6.6)",
            exp_cap4x::run,
        ),
        (
            "bw_error",
            "Bandwidth prediction error sweep (§6.7)",
            exp_bw_error::run,
        ),
        (
            "vbr_vs_cbr",
            "VBR vs CBR at the same average bitrate (§1 motivation, extension)",
            exp_vbr_vs_cbr::run,
        ),
        (
            "pia_vs_cava",
            "The CBR-to-VBR control lineage: PIA vs CAVA (§5.1, extension)",
            exp_pia_vs_cava::run,
        ),
        (
            "live",
            "Live VBR streaming with head-start sweep (§8 future work, extension)",
            exp_live::run,
        ),
        (
            "switch_penalty",
            "Eq. 3 track-change penalty forms (§5.3 discussion, extension)",
            exp_switch_penalty::run,
        ),
        (
            "class_granularity",
            "K size classes instead of quartiles (§3.1.1, extension)",
            exp_class_granularity::run,
        ),
        (
            "oracle",
            "Perfect bandwidth prediction vs harmonic mean (§6.7 flip side, extension)",
            exp_oracle::run,
        ),
        (
            "chunk_duration",
            "Same content chunked at 1/2/5/10 s (§2, extension)",
            exp_chunk_duration::run,
        ),
        (
            "classification_proxy",
            "Size-based vs SI/TI classification: agreement and QoE (§3.1.1, extension)",
            exp_classification_proxy::run,
        ),
        (
            "config_robustness",
            "Startup latency, base target, PID gains (§6.1/§5.4 text)",
            exp_config_robustness::run,
        ),
        (
            "offline_opt",
            "Offline-optimal DP upper bound: remaining headroom (extension)",
            exp_offline_opt::run,
        ),
        (
            "per_title",
            "Fixed vs per-title encoding ladders (§2 refs, extension)",
            exp_per_title::run,
        ),
        (
            "serve_soak",
            "abr-serve soak: held fleet, decision parity, BENCH_serve.json (extension)",
            exp_serve_soak::run,
        ),
        (
            "serve_chaos",
            "abr-serve chaos soak: fault injection, parity must hold, BENCH_serve_chaos.json (extension)",
            exp_serve_chaos::run,
        ),
        (
            "population",
            "abr-pop population sweep: per-cohort QoE at scale, BENCH_population.json (extension)",
            exp_population::run,
        ),
        (
            "alloc_gate",
            "allocations per steady-state decision, exact-gated, BENCH_alloc.json (extension)",
            exp_alloc_gate::run,
        ),
        (
            "plan_counts",
            "MPC-family plan step evaluations, exact-gated, BENCH_counts.json (extension)",
            exp_plan_counts::run,
        ),
    ]
}

/// Print a standard experiment banner.
pub(crate) fn banner(id: &str, title: &str) {
    println!();
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// `(ours − theirs)` as a percentage of `theirs` — the paper's Table 1/2
/// convention.
pub(crate) fn pct_delta(ours: f64, theirs: f64) -> f64 {
    if theirs.abs() < 1e-12 {
        if ours.abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY.copysign(ours)
        }
    } else {
        100.0 * (ours - theirs) / theirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let reg = registry();
        assert_eq!(reg.len(), 32);
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32);
    }

    #[test]
    fn pct_delta_basics() {
        assert_eq!(pct_delta(110.0, 100.0), 10.0);
        assert_eq!(pct_delta(50.0, 100.0), -50.0);
        assert_eq!(pct_delta(0.0, 0.0), 0.0);
        assert!(pct_delta(1.0, 0.0).is_infinite());
    }
}
