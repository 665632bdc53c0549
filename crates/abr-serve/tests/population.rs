//! Population-driven load generation: a seeded `abr-pop` fleet — diurnal
//! arrival order, per-cohort network regimes and player configs, viewer
//! seeks and abandonment — drives real sockets, keeps decision parity on
//! truncated and seek-torn sessions, and is byte-identical run to run even
//! under deterministic fault injection.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_pop::{LifecycleConfig, PopConfig};
use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

fn pop_server_config() -> ServerConfig {
    ServerConfig {
        threads: 4,
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

/// A small population with plenty of behaviour in it: abandonment biased
/// high and seeks near-certain, so the assertions below can demand both.
fn pop_config(sessions: usize) -> PopConfig {
    PopConfig {
        seed: 90,
        sessions,
        lifecycle: LifecycleConfig {
            complete_fraction: 0.4,
            seek_prob: 0.7,
            ..LifecycleConfig::default()
        },
        ..PopConfig::default()
    }
}

fn pop_loadgen_config(sessions: usize, faults: Option<FaultConfig>) -> LoadgenConfig {
    LoadgenConfig {
        population: Some(pop_config(sessions)),
        connections: 3,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        // Arrival semantics: open → drive → close per session, in diurnal
        // order, so abandons really close sockets early.
        hold: false,
        parity: true,
        faults,
        ..LoadgenConfig::default()
    }
}

#[test]
fn population_fleet_keeps_parity_with_seeks_and_abandons() {
    let bound = Server::bind("127.0.0.1:0", pop_server_config(), dataset_provider()).unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = pop_loadgen_config(24, None);
    let provider = dataset_provider();
    let now = tick_clock();
    let report = loadgen::run(addr, &config, &provider, &now).unwrap();
    loadgen::shutdown_server(addr).unwrap();
    let stats = server.join().unwrap();

    assert_eq!(report.outcomes.len(), 24);
    assert_eq!(report.errors(), vec![], "sessions hit errors");
    assert_eq!(report.parity_mismatches(), vec![], "parity broken");
    assert!(report.outcomes.iter().all(|o| o.parity == Some(true)));

    // The population behaviour actually expressed itself over the wire.
    let abandoned = report
        .outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_some_and(|r| r.abandoned))
        .count();
    let seeks: usize = report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().map(|r| r.n_seeks))
        .sum();
    assert!(abandoned > 0, "no viewer abandoned");
    assert!(seeks > 0, "no viewer seeked");

    // Every session — abandoned or not — opened and closed cleanly.
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.sessions_opened, 24);
    assert_eq!(stats.sessions_closed, 24);
}

#[test]
fn population_fleet_is_deterministic_under_faults() {
    for pipeline in [1, 16] {
        faulted_population_runs_agree(pipeline);
    }
}

fn faulted_population_runs_agree(pipeline: usize) {
    let mut reports = Vec::new();
    for _ in 0..2 {
        let bound = Server::bind("127.0.0.1:0", pop_server_config(), dataset_provider()).unwrap();
        let addr = bound.addr();
        let server = thread::spawn(move || bound.serve());
        let config = LoadgenConfig {
            pipeline,
            ..pop_loadgen_config(
                18,
                Some(FaultConfig {
                    seed: 5,
                    period: 6,
                    stall_ms: 1,
                    ..FaultConfig::default()
                }),
            )
        };
        let provider = dataset_provider();
        let now = tick_clock();
        let report = loadgen::run(addr, &config, &provider, &now).unwrap();
        loadgen::shutdown_server(addr).unwrap();
        server.join().unwrap();
        assert_eq!(report.errors(), vec![], "pipeline {pipeline}");
        assert_eq!(report.parity_mismatches(), vec![], "pipeline {pipeline}");
        reports.push(report);
    }
    let (a, b) = (&reports[0], &reports[1]);
    assert!(
        a.client_stats.faults_injected() > 0,
        "pipeline {pipeline}: no faults fired: {:?}",
        a.client_stats
    );
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.plan, ob.plan);
        assert_eq!(
            oa.result, ob.result,
            "pipeline {pipeline}: population session {} diverged across identical runs",
            oa.plan.session_id
        );
    }
}

/// Arrival semantics hold at any pipeline depth: each connection keeps at
/// most `pipeline` viewers open — opened when they take a slot, closed as
/// soon as they finish — and the session records match the serial drive
/// byte for byte.
#[test]
fn pipelined_arrival_matches_serial_arrival() {
    let mut runs = Vec::new();
    for pipeline in [1, 4] {
        let bound = Server::bind("127.0.0.1:0", pop_server_config(), dataset_provider()).unwrap();
        let addr = bound.addr();
        let server = thread::spawn(move || bound.serve());
        let config = LoadgenConfig {
            pipeline,
            ..pop_loadgen_config(24, None)
        };
        let provider = dataset_provider();
        let now = tick_clock();
        let report = loadgen::run(addr, &config, &provider, &now).unwrap();
        loadgen::shutdown_server(addr).unwrap();
        let stats = server.join().unwrap();
        assert_eq!(report.errors(), vec![], "pipeline {pipeline}: errors");
        assert_eq!(report.parity_mismatches(), vec![], "pipeline {pipeline}");
        assert_eq!(report.held_sessions, None, "arrival mode samples no hold");
        assert_eq!(stats.sessions_closed, 24);
        assert!(
            stats.peak_sessions <= (config.connections * pipeline) as u64,
            "pipeline {pipeline}: {} sessions open at once",
            stats.peak_sessions
        );
        runs.push(report);
    }
    let (serial, pipelined) = (&runs[0], &runs[1]);
    for (a, b) in serial.outcomes.iter().zip(&pipelined.outcomes) {
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.result, b.result, "session {} diverged", a.plan.session_id);
        assert_eq!(a.closed_decisions, b.closed_decisions);
    }
}
