//! Decision parity: a fleet of seeded sessions driven over real TCP must
//! produce session records byte-identical to the same seeds replayed
//! in-process — for CAVA, BOLA, and RBA, across a ≥4-thread worker pool.
//! This is the acceptance criterion that makes the serving layer provably
//! equivalent to the simulator.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen::{self, LoadgenConfig};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// A deterministic injected clock: strictly monotonic, no wall-time read.
/// Latency values are synthetic ticks; parity does not depend on them.
fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

fn server_config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        store: StoreConfig {
            capacity: 4096,
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

#[test]
fn hundred_session_fleet_has_full_parity_over_tcp() {
    let bound = Server::bind("127.0.0.1:0", server_config(4), dataset_provider()).unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = LoadgenConfig {
        sessions: 102, // 34 sessions each for cava, bola, rba
        connections: 4,
        seed: 42,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        ..LoadgenConfig::default()
    };
    let provider = dataset_provider();
    let now = tick_clock();
    let report = loadgen::run(addr, &config, &provider, &now).unwrap();

    loadgen::shutdown_server(addr).unwrap();
    let stats = server.join().unwrap();

    assert_eq!(report.outcomes.len(), 102);
    assert_eq!(report.errors(), vec![], "sessions hit errors");
    assert_eq!(report.parity_mismatches(), vec![], "parity broken");
    assert_eq!(report.degraded_sessions(), 0);
    // Every session was parity-checked, none skipped.
    assert!(report.outcomes.iter().all(|o| o.parity == Some(true)));
    // All three schemes actually ran.
    for scheme in ["cava", "bola", "rba"] {
        assert!(report.outcomes.iter().any(|o| o.plan.scheme == scheme));
    }
    // The server counted exactly the decisions the fleet made, and each
    // session's close receipt matches its request count.
    let total: u64 = report.decisions();
    assert!(total > 0);
    assert_eq!(stats.decisions, total);
    for o in &report.outcomes {
        assert_eq!(o.closed_decisions, Some(o.latencies_s.len() as u64));
        let result = o.result.as_ref().unwrap();
        assert_eq!(result.records.len(), o.latencies_s.len());
    }
    // Hold mode really held the whole fleet concurrently.
    assert_eq!(stats.peak_sessions, 102);
    assert_eq!(stats.sessions_opened, 102);
    assert_eq!(stats.sessions_closed, 102);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.open_sessions, 0);
}

#[test]
fn results_are_independent_of_connection_count() {
    let mut reports = Vec::new();
    for connections in [1, 3] {
        let bound = Server::bind("127.0.0.1:0", server_config(4), dataset_provider()).unwrap();
        let addr = bound.addr();
        let server = thread::spawn(move || bound.serve());
        let config = LoadgenConfig {
            sessions: 12,
            connections,
            seed: 7,
            schemes: vec!["cava".into(), "bola".into(), "rba".into()],
            hold: true,
            parity: false,
            ..LoadgenConfig::default()
        };
        let provider = dataset_provider();
        let now = tick_clock();
        let report = loadgen::run(addr, &config, &provider, &now).unwrap();
        loadgen::shutdown_server(addr).unwrap();
        server.join().unwrap();
        assert_eq!(report.errors(), vec![]);
        reports.push(report);
    }
    let a = &reports[0];
    let b = &reports[1];
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.plan, ob.plan);
        assert_eq!(
            oa.result, ob.result,
            "session {} diverged across connection counts",
            oa.plan.session_id
        );
    }
}
