//! Grid-scheduling determinism regression.
//!
//! `run_grid_on(1, ...)` is a plain serial loop; higher worker counts farm
//! the same scheme × trace tasks out to a thread pool. The two must produce
//! **byte-identical** journal summaries — every metric bit-equal, every map
//! iteration in the same order — or run journals and CSVs would depend on
//! scheduling. This is the check backing abr-lint's R2 (ordered maps on all
//! output paths); run it with `--features strict-invariants` to also arm the
//! simulator's runtime invariant layer on every session.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_bench::engine::{self, run_grid_on};
use abr_bench::harness::{NetworkRegime, SchemeKind};
use abr_sim::metrics::QoeMetrics;
use abr_sim::{PlayerConfig, QoeConfig};
use std::collections::BTreeMap;

/// Full-precision text rendering of a grid result, mirroring what the run
/// journal records per scheme (name, session count, per-session metrics).
/// `{:?}` on `f64` round-trips the exact bit pattern, so string equality
/// here means bit-for-bit equal numbers in iteration order.
fn render(grid: &BTreeMap<SchemeKind, Vec<QoeMetrics>>) -> String {
    let mut out = String::new();
    for (scheme, sessions) in grid {
        out.push_str(&format!("{scheme:?} sessions={}\n", sessions.len()));
        for (i, m) in sessions.iter().enumerate() {
            out.push_str(&format!("  [{i}] {m:?}\n"));
        }
    }
    out
}

#[test]
fn one_thread_and_eight_threads_render_identical_summaries() {
    let video = engine::video("ED-ffmpeg-h264");
    let traces = engine::traces_n(NetworkRegime::Lte, 8);
    let qoe = QoeConfig::lte();
    let player = PlayerConfig::default();
    let schemes = [
        SchemeKind::Cava,
        SchemeKind::Mpc,
        SchemeKind::Rba,
        SchemeKind::Bba1,
    ];

    let serial = run_grid_on(1, &schemes, &video, &traces, &qoe, &player);
    let parallel = run_grid_on(8, &schemes, &video, &traces, &qoe, &player);

    assert_eq!(serial, parallel, "grid results differ across thread counts");
    let a = render(&serial);
    let b = render(&parallel);
    assert_eq!(a, b, "rendered journal summaries are not byte-identical");
    assert_eq!(
        a.matches("sessions=8").count(),
        schemes.len(),
        "every scheme reports all sessions"
    );
}
