//! The committed golden CAVR fixture: one small deterministic serving run
//! under capacity pressure, recorded once and kept as the oracle for the
//! store and the replay player.
//!
//! The run is one reactor thread, one client connection, pipeline 1, no
//! faults, the tick clock, and one held session per scheme in
//! [`SchemeKind::ALL`], over a store whose capacity is two below the
//! session count, so the last two admissions are degraded. Every part of
//! that is deterministic, so the log is too: the test replays the
//! committed fixture with zero divergences and re-records the run
//! byte-identically.
//!
//! A change meant to alter the log (new decision logic, a new CAVR
//! version) rewrites the fixture with the bytes `record_golden_run`
//! returns and says why in its description.
#![allow(clippy::unwrap_used)]

use abr_serve::loadgen::{self, LoadgenConfig};
use abr_serve::replay::{decode_log, diff_logs, Event, MemoryLog, Recorder, ReplayPlayer};
use abr_serve::scheme::SchemeKind;
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Sessions admitted with full service; the rest of the fleet degrades.
const CAPACITY: usize = SchemeKind::ALL.len() - 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_capacity.cavr")
}

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

/// Record the golden run and return the log bytes.
fn record_golden_run() -> Vec<u8> {
    let sink = MemoryLog::new();
    let recorder = Arc::new(Recorder::new(Box::new(sink.clone())).unwrap());
    recorder.record(&Event::RunMeta {
        label: "golden capacity run".into(),
        seed: 7,
    });
    let config = ServerConfig {
        threads: 1,
        read_deadline_ms: 0,
        write_deadline_ms: 0,
        store: StoreConfig {
            capacity: CAPACITY,
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let bound = Server::bind_recorded(
        "127.0.0.1:0",
        config,
        dataset_provider(),
        Some(recorder.clone()),
    )
    .unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let fleet = LoadgenConfig {
        sessions: SchemeKind::ALL.len(),
        connections: 1,
        seed: 7,
        schemes: SchemeKind::ALL
            .iter()
            .map(|k| k.wire().to_string())
            .collect(),
        hold: true,
        parity: true,
        faults: None,
        pipeline: 1,
        ..LoadgenConfig::default()
    };
    let provider = dataset_provider();
    let now = tick_clock();
    let report =
        loadgen::run_recorded(addr, &fleet, &provider, &now, Some(recorder.clone())).unwrap();
    loadgen::shutdown_server(addr).unwrap();
    let stats = server.join().unwrap();

    assert_eq!(report.errors(), vec![]);
    assert_eq!(report.parity_mismatches(), vec![]);
    assert_eq!(stats.sessions_opened, SchemeKind::ALL.len() as u64);
    assert_eq!(stats.degraded_opens, 2, "capacity pressure must degrade");
    recorder.finish().unwrap();
    assert_eq!(recorder.io_error(), None);
    sink.contents()
}

#[test]
fn golden_fixture_replays_clean_and_rerecords_byte_identically() {
    let path = fixture_path();
    let fresh = record_golden_run();
    let committed = std::fs::read(&path).unwrap();
    let log = decode_log(&committed).unwrap();
    assert!(!log.truncated && log.ended());

    let degraded_opens = log
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::SessionOpened { degraded: true, .. }))
        .count();
    assert_eq!(
        degraded_opens, 2,
        "the fixture exercises degraded admission"
    );

    let mut player = ReplayPlayer::new(log.clone(), dataset_provider());
    player.run_to_end();
    assert!(
        player.divergences().is_empty(),
        "golden fixture diverged: {:?}",
        player.first_divergence()
    );
    let summary = player.summary();
    assert_eq!(summary.open_sessions, 0);
    assert!(summary.decisions > 0);

    if fresh != committed {
        let diff = diff_logs(&log, &decode_log(&fresh).unwrap());
        panic!(
            "re-recorded run differs from the committed fixture ({} vs {} bytes): {}",
            fresh.len(),
            committed.len(),
            diff.map_or_else(
                || "records equal, bytes differ".to_string(),
                |d| d.to_string()
            )
        );
    }
}
