#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! # abr-bench — the experiment engine and harness
//!
//! One experiment per table/figure of the paper's evaluation (see
//! `EXPERIMENTS.md` for the full index), all driven through a shared
//! engine. Every experiment:
//!
//! 1. fetches its dataset videos and trace corpora from the engine's
//!    process-wide caches ([`engine::video`], [`engine::traces`]) — each
//!    artifact is generated exactly once per process,
//! 2. fans its scheme × trace grid out over the engine's dynamic scheduler
//!    ([`engine::run_indexed`], [`engine::run_grid`]),
//! 3. prints the paper's rows/series (with an ASCII rendition of the
//!    figure's shape) and writes the full series as CSV under `results/`,
//! 4. and is journaled: wall time, seeds, trace counts, scheme sets, and
//!    summary metrics land in `results/journal/<run_id>.json` (see
//!    [`journal`] for the schema).
//!
//! One binary, `exp`, drives the registry: `cargo run -p abr-bench --release
//! --bin exp -- <id>...` runs the named experiments through
//! [`engine::run_ids`], `exp all` runs every one through
//! [`engine::run_all`], and `exp` alone lists the ids.
//!
//! Environment knobs (for quick iteration): `TRACES` (trace count per set,
//! default 200), `RESULTS_DIR` (default `results`).

#![deny(missing_docs)]

pub mod engine;
pub mod experiments;
pub mod harness;
pub mod journal;
pub mod population;

pub use harness::{
    mean_of, metric_cdf, run_scheme, run_sessions, trace_count, Metric, NetworkRegime, SchemeKind,
};

use std::path::PathBuf;

/// Directory experiment binaries write CSV artifacts (and the run journal)
/// to. Overridden by the `RESULTS_DIR` environment variable.
pub fn results_dir() -> PathBuf {
    std::env::var("RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}
