// Integration tests sit outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used)]

//! The `exp` command line: argument handling only, no full experiment runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory unique to this test process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abr-bench-exp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `exp` with `args` from `cwd`, results redirected under it.
fn exp(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .current_dir(cwd)
        .env("RESULTS_DIR", cwd.join("results"))
        .output()
        .unwrap()
}

#[test]
fn unknown_id_fails_and_names_it() {
    let dir = scratch_dir("unknown");
    let out = exp(&dir, &["fig01", "no_such_experiment"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_experiment"), "{stderr}");
    // Unknown ids fail before anything runs: fig01 wrote nothing.
    assert!(!dir.join("results").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_arguments_prints_every_registry_id_and_fails() {
    let dir = scratch_dir("usage");
    let out = exp(&dir, &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let registry: Vec<&str> = abr_bench::experiments::registry()
        .into_iter()
        .map(|(id, _, _)| id)
        .collect();
    assert_eq!(listed, registry, "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(not(feature = "counted-alloc"))]
#[test]
fn alloc_gate_without_the_counting_allocator_writes_no_document() {
    let dir = scratch_dir("alloc-gate");
    let out = exp(&dir, &["alloc_gate"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!dir.join("BENCH_alloc.json").exists());
    assert!(!dir.join("results").join("BENCH_alloc.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
