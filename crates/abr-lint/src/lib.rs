#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! # abr-lint — workspace determinism/correctness linter
//!
//! A dependency-free static-analysis pass over the CAVA workspace enforcing
//! the repo-specific rules that keep every simulated session bit-reproducible
//! across thread counts, seeds, and machines (the property the paper's
//! Tables 3–5 and Figs. 8–14 rest on):
//!
//! * **R1** — no wall-clock (`Instant::now`/`SystemTime::now`) in
//!   sim/algorithm crates; simulated time flows from the simulator clock.
//! * **R2** — no `HashMap`/`HashSet` in output-producing crates (`bench`,
//!   `sim-report`); iteration order must be byte-stable.
//! * **R3** — no OS entropy (`thread_rng`/`from_entropy`/`OsRng`); all RNG
//!   is seeded through the dataset/trace seed plumbing.
//! * **R4** — no exact float comparisons in ABR decision logic.
//! * **R5** — no `.unwrap()`/`.expect(` in library crates outside tests;
//!   provably-infallible cases are catalogued in the allowlist.
//! * **R6** — `#![forbid(unsafe_code)]` in every crate root.
//! * **R7** — no heap allocation (`Vec::new`, `vec![`, `Box::new`,
//!   `format!`, `.to_vec(`, `.collect(`, `String::from`) in any function
//!   reachable from a `// abr-lint: hot-path` root — the enforcement arm
//!   of the zero-allocation decision hot path (ROADMAP item 5).
//! * **R8** — no `lock()`/`try_lock()` guard whose lexical scope contains
//!   socket/stream I/O or `thread::sleep`.
//! * **R9** — no narrowing `as` cast in the wire encode/decode paths
//!   (`codec.rs`, `protocol.rs`, `replay.rs`) without an adjacent bounds
//!   guard.
//! * **R10** — the record-type table in `docs/REPLAY.md` must match the
//!   `Name = 0xNN` rows of the one record table in `replay.rs` — drift in
//!   either direction, or one type byte given twice on either side, fails
//!   the lint. The enum, encoder and decoder are generated from that table,
//!   so the compiler keeps them in step with it.
//!
//! Every rule reads one view of each source file, [`syntax::ParsedFile`]:
//! the raw lines, the code view (comments and string contents stripped),
//! the `#[cfg(test)]` regions (exempt from R1–R5 and R7–R9), and the
//! function items with their extents, `impl` blocks, calls, and hot/cold
//! markers. R1–R6 are token/line-level over the code view. R7–R10 are the
//! semantic tier: [`graph`] builds a conservative intra-crate call-graph
//! whose hot set R7 scans; R10 cross-checks two artifacts.
//!
//! Run it with `cargo run -p abr-lint` (add `-- --format json` for the
//! machine-readable report CI consumes); see `CONTRIBUTING.md`
//! ("Determinism rules") for the allowlist format and hot-path markers.

pub mod allow;
pub mod graph;
pub mod rules;
pub mod syntax;

pub use rules::{
    check_crate_hot_paths, check_crate_root, check_file, check_spec_drift, lint_workspace,
    rule_by_id, LintReport, RuleInfo, Violation, RULES,
};

use std::path::{Path, PathBuf};

/// Locate the workspace root: ascend from `start` until a directory whose
/// `Cargo.toml` contains a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
