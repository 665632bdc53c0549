//! `plan_counts` — exact plan-search work of the MPC family.
//!
//! Streams four LTE sessions (trace seeds 1–4) of `ED-youtube-h264` through
//! `Simulator::paper_default` with MPC, RobustMPC and both PANDA/CQ
//! variants (phone VMAF model), and reads each scheme's plan step
//! evaluations (`Mpc::plan_steps`, `PandaCq::plan_steps`) next to what
//! exhaustive search over the same decisions would cost. The counts depend
//! on nothing but the code, so no machine can move them.
//!
//! Writes `BENCH_counts.json`. `scripts/check.sh` diffs it against the
//! committed document with `bench_gate --tolerance 0`, which holds
//! `plan_steps` to an **exact** gate: any increase fails. Tier-1's
//! `pruned_step_totals_are_pinned` (`tests/mpc_family_identity.rs`) requires
//! the committed numbers exactly, so a change that lowers them commits the
//! new document.

use crate::experiments::banner;
use abr_baselines::{Mpc, PandaCq};
use abr_sim::{AbrAlgorithm, Simulator};
use net_trace::lte::{lte_trace, LteConfig};
use serde::{Deserialize, Serialize};
use std::io;
use vbr_video::quality::VmafModel;
use vbr_video::{Dataset, Manifest};

/// The schemes' horizon (paper: 5 chunks).
const HORIZON: usize = 5;
/// LTE trace seeds `1..=TRACES` make the corpus.
const TRACES: u64 = 4;

/// One scheme's plan-search work over the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeCounts {
    /// Scheme name as the scheme reports it ("MPC", ...).
    pub scheme: String,
    /// Step evaluations over every decision of the corpus, seed walks
    /// included (exact-gated by `bench_gate`).
    pub plan_steps: u64,
}

/// Everything `BENCH_counts.json` records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCounts {
    /// Video streamed in every session.
    pub video: String,
    /// LTE trace seeds, one session each.
    pub lte_seeds: Vec<u64>,
    /// Decisions each scheme makes over the corpus.
    pub decisions_per_scheme: u64,
    /// Step evaluations a search that prunes nothing makes over the same
    /// decisions: `n + n² + … + n^h` each, for `n` tracks and horizon `h`.
    pub exhaustive_steps: u64,
    /// One entry per scheme, in the order above.
    pub schemes: Vec<SchemeCounts>,
}

/// Stream the corpus through every scheme and count.
pub fn measure() -> PlanCounts {
    let video = Dataset::ed_youtube_h264();
    let m = Manifest::from_video(&video);
    let sim = Simulator::paper_default();
    let n = m.n_tracks() as u64;
    let mut mpcs = [Mpc::mpc(), Mpc::robust()];
    let mut pandas = [
        PandaCq::max_sum(&video, VmafModel::Phone),
        PandaCq::max_min(&video, VmafModel::Phone),
    ];
    let (mut decisions, mut exhaustive) = (0, 0);
    for seed in 1..=TRACES {
        let trace = lte_trace(seed, &LteConfig::default());
        let session = sim.run(&mut mpcs[0], &m, &trace);
        decisions += session.records.len() as u64;
        exhaustive += session
            .records
            .iter()
            .map(|r| {
                let h = HORIZON.min(m.n_chunks() - r.index) as u32;
                (1..=h).map(|i| n.pow(i)).sum::<u64>()
            })
            .sum::<u64>();
        sim.run(&mut mpcs[1], &m, &trace);
        for cq in &mut pandas {
            sim.run(cq, &m, &trace);
        }
    }
    let schemes = mpcs
        .iter()
        .map(|s| (s.name(), s.plan_steps()))
        .chain(pandas.iter().map(|s| (s.name(), s.plan_steps())))
        .map(|(scheme, plan_steps)| SchemeCounts {
            scheme: scheme.to_string(),
            plan_steps,
        })
        .collect();
    PlanCounts {
        video: video.name().to_string(),
        lte_seeds: (1..=TRACES).collect(),
        decisions_per_scheme: decisions,
        exhaustive_steps: exhaustive,
        schemes,
    }
}

/// Count and write `BENCH_counts.json` (registry entry point).
pub fn run() -> io::Result<()> {
    banner("plan_counts", "MPC-family plan step evaluations");
    let counts = measure();
    println!(
        "  {} LTE sessions of {}, {} decisions per scheme; exhaustive search: {} steps",
        counts.lte_seeds.len(),
        counts.video,
        counts.decisions_per_scheme,
        counts.exhaustive_steps
    );
    for s in &counts.schemes {
        println!(
            "  {:<18} {:>10} steps ({:.1}x below exhaustive)",
            s.scheme,
            s.plan_steps,
            counts.exhaustive_steps as f64 / s.plan_steps as f64
        );
    }
    let path = std::path::PathBuf::from("BENCH_counts.json");
    let json = serde_json::to_string_pretty(&counts).map_err(io::Error::other)?;
    std::fs::write(&path, json)?;
    println!("  wrote {}", path.display());
    Ok(())
}
