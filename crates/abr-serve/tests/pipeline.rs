//! Pipeline-drive equivalence: the batched wave drive must be a pure
//! optimization. Same fleet, same seeds — pipelined decisions, serial
//! decisions, one connection or eight — every session record comes back
//! byte-identical, because sessions are independent and the server's
//! per-session state machine never sees the difference.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 8,
        read_deadline_ms: 5_000,
        write_deadline_ms: 5_000,
        poll_ms: 10,
        store: StoreConfig {
            capacity: 4096,
            idle_ticks: u64::MAX,
            orphan_grace_ticks: 1_000_000,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn run_fleet(connections: usize, pipeline: usize) -> LoadgenReport {
    let bound = Server::bind("127.0.0.1:0", server_config(), dataset_provider()).unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = LoadgenConfig {
        sessions: 24,
        connections,
        seed: 4242,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        pipeline,
        ..LoadgenConfig::default()
    };
    let provider = dataset_provider();
    let now = tick_clock();
    let report = loadgen::run(addr, &config, &provider, &now).unwrap();
    loadgen::shutdown_server(addr).unwrap();
    server.join().unwrap();
    assert_eq!(report.errors(), vec![], "fleet hit errors");
    assert_eq!(report.parity_mismatches(), vec![], "parity broken");
    report
}

fn assert_same_sessions(a: &LoadgenReport, b: &LoadgenReport, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.plan, ob.plan, "{label}: plans diverged");
        assert_eq!(
            oa.result, ob.result,
            "{label}: session {} record diverged",
            oa.plan.session_id
        );
        assert_eq!(
            oa.closed_decisions, ob.closed_decisions,
            "{label}: session {} decision count diverged",
            oa.plan.session_id
        );
    }
}

#[test]
fn pipeline_drive_matches_serial_byte_for_byte() {
    let serial = run_fleet(3, 1);
    let pipelined = run_fleet(3, 16);
    assert_same_sessions(&serial, &pipelined, "pipeline 16 vs serial");
    // The server served the same decisions either way.
    assert_eq!(serial.decisions(), pipelined.decisions());
    for o in &pipelined.outcomes {
        assert_eq!(o.closed_decisions, Some(o.latencies_s.len() as u64));
        assert_eq!(o.latencies_s.len(), o.latency_faulted.len());
        assert!(o.latency_faulted.iter().all(|&f| !f), "clean run faulted");
    }
    // The hold sample saw the whole fleet held at once.
    assert_eq!(pipelined.held_sessions, Some(24));
    assert!(pipelined.drive_wall_s > 0.0);
}

#[test]
fn connection_striping_does_not_change_results() {
    let one = run_fleet(1, 8);
    let eight = run_fleet(8, 8);
    assert_same_sessions(&one, &eight, "1 vs 8 connections");
}
