//! Serving-layer chaos soak (extension) — decision correctness of the
//! `abr-serve` service under deterministic fault injection.
//!
//! Boots a deadline-armed in-process TCP server, then drives a held fleet
//! at it with the loadgen's seeded fault plan switched on: every few frame
//! sends a connection draws a mid-frame stall, a truncated write, or a
//! hard connection reset, and must recover via retry, reconnect, and
//! session resume. Parity checking stays on — each served session is
//! replayed in-process and must compare equal — so the run proves the
//! lifecycle hardening (deadlines, reaper, orphan grace, retransmit
//! dedup) preserves byte-exact decisions, not just liveness.
//!
//! Emits `BENCH_serve_chaos.json` at the repo top level (fault/recovery
//! counters plus service latency measured *through* the chaos) and
//! `results/exp_serve_chaos.csv` with per-scheme rows. Latency is split by
//! whether the decision's own call absorbed an injected fault: the gated
//! `latency_p50_ms`/`latency_p99_ms` cover **clean** decisions only — they
//! measure what chaos on *other* traffic does to a healthy session, which
//! is exactly the head-of-line collapse the reactor backend fixes — while
//! `faulted_latency_p99_ms` tracks the stall/backoff tail separately.
//!
//! The whole run is recorded to `results/serve_chaos.replay` (see
//! docs/REPLAY.md) and **replayed before the bench is accepted**: every
//! recorded decision is re-executed through fresh algorithm instances and
//! must come back bit-identical. A chaos failure is therefore never an
//! anecdote — the artifact that failed ships with the run.

use crate::engine;
use crate::experiments::banner;
use crate::harness::NetworkRegime;
use crate::journal::{self, Stopwatch};
use crate::results_dir;
use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::replay::{self, Event, Recorder, ReplayPlayer};
use abr_serve::server::threads_from_env;
use abr_serve::store::StoreConfig;
use abr_serve::{Server, ServerConfig};
use abr_sim::metrics::evaluate;
use serde::{Deserialize, Serialize};
use sim_report::stats::percentile;
use sim_report::{CsvWriter, TextTable};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::thread;

/// Sessions the chaos fleet holds concurrently.
pub const CHAOS_SESSIONS: usize = 120;

/// Inject one fault every this many frame sends per connection.
pub const FAULT_PERIOD: u64 = 5;

/// The summary document written to `BENCH_serve_chaos.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosBench {
    /// Sessions driven (all held concurrently).
    pub sessions: usize,
    /// Client connections carrying the fleet.
    pub connections: usize,
    /// Server worker threads.
    pub server_threads: usize,
    /// Total unique decisions the fleet obtained.
    pub decisions: u64,
    /// Decisions whose own call absorbed an injected fault (stall inflates
    /// the call in place; truncation/reset forces a retry).
    pub faulted_decisions: u64,
    /// Fleet wall time in seconds.
    pub wall_time_s: f64,
    /// Decisions served per second of wall time, measured through the
    /// chaos (retries, reconnects, and resumes included).
    pub decisions_per_s: f64,
    /// Faults injected in total (stalls + truncations + resets).
    pub faults_injected: u64,
    /// Mid-frame stalls injected.
    pub stalls: u64,
    /// Truncated writes injected (connection then torn down).
    pub truncated_writes: u64,
    /// Hard connection resets injected.
    pub resets: u64,
    /// Times a client redialed after losing its connection.
    pub reconnects: u64,
    /// Sessions re-adopted via `ResumeSession` after a reconnect.
    pub resumes: u64,
    /// Operations that needed at least one retry.
    pub retries: u64,
    /// Connections the server reaped for blowing a deadline.
    pub connections_reaped: u64,
    /// Server-side count of successful resumes (must equal `resumes`).
    pub sessions_resumed: u64,
    /// Sessions the server lost outright (must be 0: orphan grace covers
    /// every injected disconnect).
    pub sessions_aborted: u64,
    /// Median service latency of **clean** decisions (calls that absorbed
    /// no injected fault), milliseconds. Chaos elsewhere in the fleet must
    /// not leak into these.
    pub latency_p50_ms: f64,
    /// 99th-percentile clean-decision service latency, milliseconds (the
    /// bench gate's chaos-path latency trajectory).
    pub latency_p99_ms: f64,
    /// 99th-percentile service latency of decisions whose own call was
    /// faulted, milliseconds (stall/backoff sleeps land here).
    pub faulted_latency_p99_ms: f64,
    /// Sessions whose decisions were replayed in-process and compared.
    pub parity_checked: usize,
    /// Sessions whose remote decisions diverged from the replay (must
    /// be 0).
    pub parity_mismatches: usize,
    /// Sessions admitted in degraded (stateless RBA) mode (0 here).
    pub degraded_sessions: usize,
    /// Events recorded to `results/serve_chaos.replay` (RunEnd included).
    pub replay_events: u64,
    /// Whether the recorded log replayed to bit-identical decisions (must
    /// be true — the run fails otherwise).
    pub replay_verified: bool,
}

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "serve_chaos",
        "abr-serve chaos soak: faults injected, parity must hold",
    );
    let threads = threads_from_env().max(4);
    let connections = threads.min(6);
    let server_config = ServerConfig {
        threads,
        // Deadlines armed for real: injected stalls (~20 ms) sit far below
        // the read deadline, so reaps only fire on genuinely wedged peers.
        read_deadline_ms: 3_000,
        write_deadline_ms: 3_000,
        poll_ms: 10,
        store: StoreConfig {
            capacity: CHAOS_SESSIONS.max(StoreConfig::default().capacity),
            idle_ticks: u64::MAX,
            // Every injected disconnect must be resumable.
            orphan_grace_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    // One shared recorder: server frame/store events and client fault-plan
    // events interleave into a single canonical log under results/.
    let replay_path = results_dir().join("serve_chaos.replay");
    let recorder = Arc::new(Recorder::to_file(&replay_path)?);
    recorder.record(&Event::RunMeta {
        label: "bench serve_chaos".into(),
        seed: 42,
    });
    let bound = Server::bind_recorded(
        "127.0.0.1:0",
        server_config,
        engine::serve_provider(),
        Some(recorder.clone()),
    )?;
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = LoadgenConfig {
        sessions: CHAOS_SESSIONS,
        connections,
        seed: 42,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        faults: Some(FaultConfig {
            seed: 1337,
            period: FAULT_PERIOD,
            stall_ms: 20,
            ..FaultConfig::default()
        }),
        ..LoadgenConfig::default()
    };
    let provider = engine::serve_provider();
    let watch = Stopwatch::start();
    let now = move || watch.seconds();
    eprintln!(
        "soaking {addr} with {CHAOS_SESSIONS} held sessions, one fault per {FAULT_PERIOD} sends..."
    );
    let report = loadgen::run_recorded(addr, &config, &provider, &now, Some(recorder.clone()))
        .map_err(io::Error::other)?;
    loadgen::shutdown_server(addr).map_err(io::Error::other)?;
    let stats = server
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?;
    let replay_events = recorder.finish().map_err(io::Error::other)?;

    // Replay the artifact before accepting the run: every recorded decision
    // must re-execute to bit-identical bytes through fresh algorithm state.
    let log = replay::read_log(&replay_path).map_err(io::Error::other)?;
    let mut player = ReplayPlayer::new(log, engine::serve_provider());
    player.run_to_end();
    if let Some(divergence) = player.divergences().first() {
        return Err(io::Error::other(format!(
            "chaos replay diverged ({} total): {divergence}",
            player.divergences().len()
        )));
    }
    let summary = player.summary();
    eprintln!(
        "replay verified: {} events, {} decisions re-executed bit-identically",
        summary.events, summary.decisions
    );

    let errors = report.errors();
    if let Some((id, error)) = errors.first() {
        return Err(io::Error::other(format!(
            "{} chaos sessions errored; first: session {id}: {error}",
            errors.len()
        )));
    }
    let mismatches = report.parity_mismatches();
    if !mismatches.is_empty() {
        return Err(io::Error::other(format!(
            "decision parity broken under faults for {} sessions",
            mismatches.len()
        )));
    }
    let cs = report.client_stats;
    if cs.faults_injected() == 0 {
        return Err(io::Error::other("chaos soak injected no faults"));
    }

    let clean = report.clean_latencies();
    let faulted = report.faulted_latencies();
    if clean.len() as u64 + faulted.len() as u64 != report.decisions() {
        return Err(io::Error::other(format!(
            "latency split books broken: {} clean + {} faulted != {} decisions",
            clean.len(),
            faulted.len(),
            report.decisions()
        )));
    }
    if faulted.is_empty() {
        return Err(io::Error::other(
            "chaos soak marked no decision as faulted despite injected faults",
        ));
    }
    let wall = report.wall_time_s.max(f64::MIN_POSITIVE);
    let bench = ChaosBench {
        sessions: report.outcomes.len(),
        connections,
        server_threads: threads,
        decisions: report.decisions(),
        faulted_decisions: faulted.len() as u64,
        wall_time_s: report.wall_time_s,
        decisions_per_s: report.decisions() as f64 / wall,
        faults_injected: cs.faults_injected(),
        stalls: cs.stalls,
        truncated_writes: cs.truncated_writes,
        resets: cs.resets,
        reconnects: cs.reconnects,
        resumes: cs.resumes,
        retries: cs.retries,
        connections_reaped: stats.connections_reaped,
        sessions_resumed: stats.sessions_resumed,
        sessions_aborted: stats.sessions_aborted,
        latency_p50_ms: percentile(&clean, 50.0).unwrap_or(0.0) * 1e3,
        latency_p99_ms: percentile(&clean, 99.0).unwrap_or(0.0) * 1e3,
        faulted_latency_p99_ms: percentile(&faulted, 99.0).unwrap_or(0.0) * 1e3,
        parity_checked: report
            .outcomes
            .iter()
            .filter(|o| o.parity.is_some())
            .count(),
        parity_mismatches: mismatches.len(),
        degraded_sessions: report.degraded_sessions(),
        replay_events,
        replay_verified: true,
    };

    // Per-scheme breakdown, journaled like every other experiment: the QoE
    // a faulted-but-recovered fleet delivers must match the clean soak.
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let mut by_scheme: BTreeMap<(String, String), Vec<&loadgen::SessionOutcome>> = BTreeMap::new();
    for outcome in &report.outcomes {
        by_scheme
            .entry((outcome.plan.scheme.clone(), outcome.plan.video.clone()))
            .or_default()
            .push(outcome);
    }
    let path = results_dir().join("exp_serve_chaos.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "scheme",
            "sessions",
            "decisions",
            "latency_p50_ms",
            "latency_p99_ms",
            "mean_quality",
            "mean_rebuf_s",
        ],
    )?;
    let mut table = TextTable::new(vec![
        "scheme",
        "sessions",
        "decisions",
        "p50 (ms)",
        "p99 (ms)",
        "quality",
        "rebuf (s)",
    ]);
    for ((scheme_name, video_name), outcomes) in &by_scheme {
        let video = engine::video(video_name);
        let mut lat: Vec<f64> = Vec::new();
        let mut decisions = 0u64;
        let mut quality = 0.0;
        let mut rebuf = 0.0;
        for outcome in outcomes {
            lat.extend_from_slice(&outcome.latencies_s);
            decisions += outcome.latencies_s.len() as u64;
            if let Some(session) = &outcome.result {
                let m = evaluate(session, &video, &video.classification, &qoe);
                quality += m.all_quality_mean;
                rebuf += m.rebuffer_s;
            }
        }
        let n = outcomes.len() as f64;
        let p50 = percentile(&lat, 50.0).unwrap_or(0.0) * 1e3;
        let p99 = percentile(&lat, 99.0).unwrap_or(0.0) * 1e3;
        journal::note_scheme_run(
            scheme_name,
            video_name,
            outcomes.len(),
            quality / n,
            rebuf / n,
        );
        table.add_row(vec![
            scheme_name.clone(),
            outcomes.len().to_string(),
            decisions.to_string(),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{:.1}", quality / n),
            format!("{:.2}", rebuf / n),
        ]);
        csv.write_str_row(&[
            scheme_name,
            &outcomes.len().to_string(),
            &decisions.to_string(),
            &format!("{p50:.4}"),
            &format!("{p99:.4}"),
            &format!("{:.2}", quality / n),
            &format!("{:.2}", rebuf / n),
        ])?;
    }
    csv.flush()?;
    print!("{table}");

    let bench_path = std::path::PathBuf::from("BENCH_serve_chaos.json");
    let json = serde_json::to_string_pretty(&bench).map_err(io::Error::other)?;
    std::fs::write(&bench_path, json)?;
    println!(
        "{} faults survived ({} stalls, {} truncated writes, {} resets)",
        bench.faults_injected, bench.stalls, bench.truncated_writes, bench.resets
    );
    println!(
        "{} retries, {} reconnects, {} resumes ({} server-side), {} reaped, {} aborted",
        bench.retries,
        bench.reconnects,
        bench.resumes,
        bench.sessions_resumed,
        bench.connections_reaped,
        bench.sessions_aborted
    );
    println!(
        "{} decisions ({} faulted) in {:.2}s, {:.0} decisions/s",
        bench.decisions, bench.faulted_decisions, bench.wall_time_s, bench.decisions_per_s
    );
    println!(
        "clean latency p50 {:.3} ms / p99 {:.3} ms; faulted p99 {:.3} ms",
        bench.latency_p50_ms, bench.latency_p99_ms, bench.faulted_latency_p99_ms
    );
    println!(
        "parity: {} checked, {} mismatches; {} degraded sessions",
        bench.parity_checked, bench.parity_mismatches, bench.degraded_sessions
    );
    println!("wrote {}", path.display());
    println!("wrote {}", bench_path.display());
    println!(
        "wrote {} ({} events; verify with `cava replay`)",
        replay_path.display(),
        bench.replay_events
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_document_round_trips_through_json() {
        let bench = ChaosBench {
            sessions: 120,
            connections: 6,
            server_threads: 8,
            decisions: 14_400,
            faulted_decisions: 1_200,
            wall_time_s: 9.5,
            decisions_per_s: 1_515.8,
            faults_injected: 300,
            stalls: 100,
            truncated_writes: 100,
            resets: 100,
            reconnects: 200,
            resumes: 180,
            retries: 250,
            connections_reaped: 0,
            sessions_resumed: 180,
            sessions_aborted: 0,
            latency_p50_ms: 0.2,
            latency_p99_ms: 1.5,
            faulted_latency_p99_ms: 25.0,
            parity_checked: 120,
            parity_mismatches: 0,
            degraded_sessions: 0,
            replay_events: 7_000,
            replay_verified: true,
        };
        let json = serde_json::to_string_pretty(&bench).unwrap();
        let back: ChaosBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bench);
        for key in [
            "\"faults_injected\"",
            "\"faulted_decisions\"",
            "\"decisions_per_s\"",
            "\"faulted_latency_p99_ms\"",
            "\"reconnects\"",
            "\"resumes\"",
            "\"connections_reaped\"",
            "\"parity_mismatches\"",
            "\"replay_events\"",
            "\"replay_verified\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
