//! Run registry experiments through the engine, with progress lines on
//! stderr and one run journal per invocation (see `abr_bench::engine`):
//!
//! ```text
//! exp <id>...   run the named experiments, in the given order
//! exp all       run every experiment in the registry
//! ```
//!
//! With no arguments it prints the registry ids and exits nonzero.
//!
//! With the `counted-alloc` feature this binary installs the counting
//! global allocator, so `exp alloc_gate` (alone or within `exp all`)
//! measures real allocator traffic. Without the feature that experiment
//! skips itself and writes no `BENCH_alloc.json`.

use abr_bench::{engine, experiments};
use std::process::ExitCode;

#[cfg(feature = "counted-alloc")]
#[global_allocator]
static ALLOC: counted_alloc::CountingAlloc = counted_alloc::CountingAlloc::new();

fn usage() -> ExitCode {
    eprintln!("usage: exp <id>... | exp all\n\nexperiments:");
    for (id, description, _) in experiments::registry() {
        eprintln!("  {id:<24} {description}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [] => return usage(),
        [all] if all == "all" => engine::run_all(),
        ids => engine::run_ids(&ids.iter().map(String::as_str).collect::<Vec<_>>()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}
