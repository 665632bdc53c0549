//! Record/replay end to end: a chaos-faulted fleet run recorded through a
//! [`MemoryLog`] must replay tick-for-tick to bit-identical decisions, a
//! mid-log seek must agree with stepping from the start, and a perturbed
//! copy of the log must be pinned to its first divergent event by `diff`.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::replay::{decode_log, diff_logs, Event, MemoryLog, Recorder, ReplayPlayer};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn tick_clock() -> impl Fn() -> f64 + Sync {
    let ticks = AtomicU64::new(0);
    move || ticks.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
}

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

/// Run a faulted fleet with a shared in-memory recorder and hand back the
/// raw log bytes. Mirrors the chaos integration harness: resets and
/// truncated writes force reconnects and session resumes mid-run.
fn record_chaos_run(sessions: usize) -> Vec<u8> {
    let sink = MemoryLog::new();
    let recorder = Arc::new(Recorder::new(Box::new(sink.clone())).unwrap());
    recorder.record(&Event::RunMeta {
        label: "replay integration".into(),
        seed: 1234,
    });

    let bound = Server::bind_recorded(
        "127.0.0.1:0",
        chaos_server_config(),
        dataset_provider(),
        Some(recorder.clone()),
    )
    .unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = LoadgenConfig {
        sessions,
        connections: 4,
        seed: 1234,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: false,
        faults: Some(FaultConfig {
            seed: 99,
            period: 5,
            stall_ms: 2,
            ..FaultConfig::default()
        }),
        ..LoadgenConfig::default()
    };
    let provider = dataset_provider();
    let now = tick_clock();
    let report =
        loadgen::run_recorded(addr, &config, &provider, &now, Some(recorder.clone())).unwrap();
    loadgen::shutdown_server(addr).unwrap();
    server.join().unwrap();

    assert_eq!(report.errors(), vec![], "chaos sessions hit errors");
    assert!(
        report.client_stats.faults_injected() > 0,
        "no faults fired: {:?}",
        report.client_stats
    );
    recorder.finish().unwrap();
    assert_eq!(recorder.io_error(), None);
    sink.contents()
}

#[test]
fn chaos_run_replays_bit_identically_and_seeks_consistently() {
    let bytes = record_chaos_run(12);
    let log = decode_log(&bytes).unwrap();
    assert!(!log.truncated, "recorder flushed a complete log");
    assert!(log.ended(), "finished run must close with RunEnd");
    let decisions = log
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::Decision { .. }))
        .count();
    assert!(decisions > 0, "chaos run recorded no decisions");

    // Tick-for-tick replay: every recorded decision re-executes through
    // fresh algorithm instances and must come back bit-identical.
    let mut player = ReplayPlayer::new(log.clone(), dataset_provider());
    player.run_to_end();
    assert!(
        player.divergences().is_empty(),
        "replay diverged: {:?}",
        player.first_divergence()
    );
    let summary = player.summary();
    assert_eq!(summary.applied, log.len());
    assert_eq!(summary.open_sessions, 0, "all sessions closed in the log");
    assert!(summary.faults > 0, "fault events lost in replay");

    // seek_to_tick at several mid-log targets must land in exactly the
    // state reached by stepping one tick at a time from the start.
    let last = log.last_tick();
    let mut stepper = ReplayPlayer::new(log.clone(), dataset_provider());
    for target in [last / 7, last / 3, last / 2, last - 1, last] {
        let mut seeker = ReplayPlayer::new(log.clone(), dataset_provider());
        seeker.seek_to_tick(target);
        stepper.reset();
        while stepper.current_tick() < target {
            stepper.step_forward(1);
        }
        assert_eq!(
            seeker.state_digest(),
            stepper.state_digest(),
            "seek to tick {target} disagrees with stepping"
        );
    }
}

#[test]
fn diff_pins_first_divergence_in_a_perturbed_chaos_log() {
    let bytes = record_chaos_run(6);
    let log = decode_log(&bytes).unwrap();

    // Perturb one mid-log decision: bump the level the server answered.
    let mut perturbed = log.clone();
    let target = perturbed
        .events
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.event, Event::Decision { .. }))
        .map(|(i, _)| i)
        .nth(10)
        .expect("log holds at least 11 decisions");
    let Event::Decision { response, .. } = &mut perturbed.events[target].event else {
        unreachable!("index selected above is a decision");
    };
    response.level += 1;

    assert!(diff_logs(&log, &log).is_none(), "log must equal itself");
    let diff = diff_logs(&log, &perturbed).expect("perturbed log must differ");
    assert_eq!(
        diff.index, target,
        "diff must pin the exact perturbed record"
    );
    assert!(diff.left.is_some() && diff.right.is_some());

    // The perturbed log no longer replays cleanly, and the first divergence
    // lands on the perturbed decision itself.
    let mut player = ReplayPlayer::new(perturbed, dataset_provider());
    player.run_to_end();
    let first = player
        .first_divergence()
        .expect("perturbation must diverge");
    assert_eq!(first.index, target);
}
