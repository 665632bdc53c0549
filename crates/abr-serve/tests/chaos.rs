//! Chaos parity: a fleet driven through deterministic fault injection —
//! mid-frame stalls, truncated writes, connection resets — against a server
//! armed with read/write deadlines must still produce session records
//! byte-identical to same-seed in-process replays. Retries, reconnects, and
//! session resumes are allowed to happen; wrong decisions are not.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::protocol::{encode_frame, Frame, PROTOCOL_VERSION};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

/// A server hardened the way the chaos soak runs it: short-but-generous
/// read deadline (injected stalls are far below it), fine poll, and a
/// large orphan grace so dropped connections can reclaim their sessions.
fn chaos_server_config() -> ServerConfig {
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

/// Faults act at every pipeline depth: at 1 each wave is one frame, at 16
/// a kill mid-wave resends the unanswered rest after the reconnect.
#[test]
fn fleet_under_faults_keeps_full_parity() {
    for pipeline in [1, 16] {
        faulted_fleet_keeps_full_parity(pipeline);
    }
}

fn faulted_fleet_keeps_full_parity(pipeline: usize) {
    let bound = Server::bind("127.0.0.1:0", chaos_server_config(), dataset_provider()).unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = LoadgenConfig {
        sessions: 36,
        connections: 4,
        seed: 1234,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        faults: Some(FaultConfig {
            seed: 99,
            period: 5,
            stall_ms: 2,
            ..FaultConfig::default()
        }),
        pipeline,
        ..LoadgenConfig::default()
    };
    let provider = dataset_provider();
    let now = tick_clock();
    let report = loadgen::run(addr, &config, &provider, &now).unwrap();

    loadgen::shutdown_server(addr).unwrap();
    let stats = server.join().unwrap();

    // The chaos actually happened…
    let cs = report.client_stats;
    assert!(
        cs.faults_injected() > 0,
        "pipeline {pipeline}: no faults fired: {cs:?}"
    );
    assert!(
        cs.retries > 0,
        "pipeline {pipeline}: faults never forced a retry: {cs:?}"
    );
    assert!(
        cs.resets + cs.truncated_writes > 0,
        "pipeline {pipeline}: no connection-killing faults drawn: {cs:?}"
    );
    assert!(
        cs.reconnects > 0,
        "pipeline {pipeline}: killed connections never redialed: {cs:?}"
    );

    // …and decisions stayed exactly right anyway.
    assert_eq!(report.outcomes.len(), 36);
    assert_eq!(
        report.errors(),
        vec![],
        "pipeline {pipeline}: sessions hit errors"
    );
    assert_eq!(
        report.parity_mismatches(),
        vec![],
        "pipeline {pipeline}: parity broken"
    );
    assert!(report.outcomes.iter().all(|o| o.parity == Some(true)));
    for o in &report.outcomes {
        assert_eq!(o.closed_decisions, Some(o.latencies_s.len() as u64));
    }

    // Server-side books balance: every session closed, nothing leaked.
    // Retransmitted Decides after a retry may be answered from the dedup
    // cache, so the served count can exceed the fleet's unique decisions.
    assert!(stats.decisions >= report.decisions());
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.sessions_opened, 36);
    assert_eq!(stats.sessions_closed, 36);
    assert_eq!(stats.degraded_opens, 0);
    // Resets/truncations drop connections mid-session; the orphan grace
    // window means those sessions were resumed, not aborted.
    assert_eq!(
        stats.sessions_aborted, 0,
        "pipeline {pipeline}: an orphaned session was lost"
    );
    assert_eq!(cs.resumes, stats.sessions_resumed);
}

/// Regression test for the chaos-path latency collapse: one connection
/// that dribbles its handshake a byte at a time must not head-of-line
/// block anyone else. On the old blocking core a peer like this pinned a
/// worker for its whole read deadline and queued connections stalled
/// behind it for seconds; the reactor just parks the incomplete frame in
/// the connection's read buffer and keeps sweeping the healthy fleet.
#[test]
fn trickling_connection_does_not_stall_healthy_sessions() {
    let config = ServerConfig {
        threads: 2,
        // Long deadline: the trickler must stay held (not reaped) for the
        // whole healthy run for this test to mean anything.
        read_deadline_ms: 120_000,
        write_deadline_ms: 120_000,
        poll_ms: 5,
        store: StoreConfig {
            capacity: 4096,
            idle_ticks: u64::MAX,
            orphan_grace_ticks: 1_000_000,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let bound = Server::bind("127.0.0.1:0", config, dataset_provider()).unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    // The trickler: a valid Hello frame fed one byte every 20 ms. The
    // frame never completes while the healthy fleet runs, so the server
    // holds an open connection that is perpetually mid-read.
    let stop = Arc::new(AtomicBool::new(false));
    let trickler = {
        let stop = stop.clone();
        thread::spawn(move || -> std::io::Result<()> {
            let mut socket = TcpStream::connect(addr)?;
            let hello = encode_frame(&Frame::Hello {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
            for byte in &hello[..hello.len() - 1] {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                socket.write_all(std::slice::from_ref(byte))?;
                socket.flush()?;
                thread::sleep(Duration::from_millis(20));
            }
            // Park until told to stop, holding the connection open.
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        })
    };

    // 50 healthy held sessions on other connections, timed with a real
    // clock: their latency is the number under regression.
    let fleet = LoadgenConfig {
        sessions: 50,
        connections: 2,
        seed: 99,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: false,
        ..LoadgenConfig::default()
    };
    let provider = dataset_provider();
    let t0 = Instant::now();
    let now = move || t0.elapsed().as_secs_f64();
    let report = loadgen::run(addr, &fleet, &provider, &now).unwrap();

    stop.store(true, Ordering::Relaxed);
    trickler
        .join()
        .unwrap()
        .expect("trickler connection must stay alive (not reaped) through the run");
    loadgen::shutdown_server(addr).unwrap();
    let stats = server.join().unwrap();

    assert_eq!(report.errors(), vec![], "healthy sessions hit errors");
    assert_eq!(report.outcomes.len(), 50);
    assert_eq!(
        stats.connections_reaped, 0,
        "trickler was reaped instead of held"
    );
    // No faults injected: every decision is clean and the split is total.
    let clean = report.clean_latencies();
    assert_eq!(clean.len() as u64, report.decisions());
    assert!(report.faulted_latencies().is_empty());
    // The collapse this guards against parked healthy decisions behind the
    // trickler's read deadline (whole seconds). Sub-100ms p99 means no
    // healthy decision ever waited on the trickling peer.
    let p99 = report.clean_latency_percentile(99.0).unwrap();
    assert!(
        p99 < 0.1,
        "healthy p99 {p99:.4}s collapsed behind a trickling connection"
    );
}

#[test]
fn chaos_is_deterministic_run_to_run() {
    for pipeline in [1, 16] {
        chaos_runs_agree(pipeline);
    }
}

fn chaos_runs_agree(pipeline: usize) {
    let mut reports = Vec::new();
    for _ in 0..2 {
        let bound = Server::bind("127.0.0.1:0", chaos_server_config(), dataset_provider()).unwrap();
        let addr = bound.addr();
        let server = thread::spawn(move || bound.serve());
        let config = LoadgenConfig {
            sessions: 12,
            connections: 3,
            seed: 7,
            schemes: vec!["cava".into(), "bola".into(), "rba".into()],
            hold: true,
            parity: false,
            faults: Some(FaultConfig {
                seed: 5,
                period: 4,
                stall_ms: 1,
                ..FaultConfig::default()
            }),
            pipeline,
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
    let (a, b) = (&reports[0], &reports[1]);
    // Same seeds, same fault schedule, same decisions — run after run.
    assert_eq!(a.client_stats.stalls, b.client_stats.stalls);
    assert_eq!(
        a.client_stats.truncated_writes,
        b.client_stats.truncated_writes
    );
    assert_eq!(a.client_stats.resets, b.client_stats.resets);
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.plan, ob.plan);
        assert_eq!(
            oa.result, ob.result,
            "pipeline {pipeline}: session {} diverged across identical chaos runs",
            oa.plan.session_id
        );
    }
}
