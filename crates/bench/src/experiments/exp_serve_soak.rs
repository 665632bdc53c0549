//! Serving-layer soak (extension) — throughput and latency of the
//! `abr-serve` decision service, in two phases.
//!
//! **Phase 1 (smoke, recorded):** boots an in-process TCP server and drives
//! [`SMOKE_SESSIONS`] simulated players at it in **hold** mode with full
//! parity checking and a shared CAVR recorder. The run is recorded to
//! `results/serve_soak.replay` (docs/REPLAY.md) and replayed before the
//! bench is accepted: every recorded decision must re-execute
//! bit-identically. Per-scheme service latency and delivered QoE go to
//! `results/exp_serve_soak.csv` and the run journal.
//!
//! **Phase 2 (scale, pipelined):** a fresh reactor-backed server holds
//! [`scale_sessions`] sessions at once (default 100 000, override with
//! `ABR_SOAK_SESSIONS`) while every connection drives decisions in batched
//! waves of [`SCALE_PIPELINE`] frames per flush. Parity replays are sampled
//! (`parity_every`) so correctness stays continuously spot-checked at
//! scale. The headline `decisions_per_s` is decisions over the barrier-to-
//! barrier drive window (`drive_wall_s`), with the whole fleet held — the
//! open/close ramps are excluded, the per-decision simulation work is not.
//!
//! Emits `BENCH_serve.json` at the repo top level: scale-phase numbers at
//! the root (the serving-layer perf trajectory the bench gate tracks) and
//! the smoke-phase numbers nested under `"smoke"`. Latency percentiles in
//! the scale phase are per-decision *wave* RTTs: each decision in a batch
//! of up to [`SCALE_PIPELINE`] shares its wave's flush-to-drain time.

use crate::engine;
use crate::experiments::banner;
use crate::harness::NetworkRegime;
use crate::journal::{self, Stopwatch};
use crate::results_dir;
use abr_serve::loadgen::{self, LoadgenConfig};
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

/// Concurrent sessions the recorded smoke phase holds.
pub const SMOKE_SESSIONS: usize = 200;

/// Concurrent sessions the scale phase holds unless [`SCALE_SESSIONS_ENV`]
/// overrides it (acceptance floor for the reactor backend: 100k held).
pub const SCALE_SESSIONS_DEFAULT: usize = 100_000;

/// Environment override for the scale-phase session count.
pub const SCALE_SESSIONS_ENV: &str = "ABR_SOAK_SESSIONS";

/// Decisions batched per flush on each connection in the scale phase.
pub const SCALE_PIPELINE: usize = 512;

/// Scale-phase session count: [`SCALE_SESSIONS_ENV`] if set and parseable,
/// else [`SCALE_SESSIONS_DEFAULT`].
pub fn scale_sessions() -> usize {
    std::env::var(SCALE_SESSIONS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(SCALE_SESSIONS_DEFAULT)
        .max(1)
}

/// Smoke-phase summary, nested under `"smoke"` in `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmokeBench {
    /// Sessions driven (all held concurrently).
    pub sessions: usize,
    /// Client connections carrying the fleet.
    pub connections: usize,
    /// Total decisions served.
    pub decisions: u64,
    /// Fleet wall time in seconds (open → close of every session).
    pub wall_time_s: f64,
    /// Decisions served per second of wall time (serial round trips).
    pub decisions_per_s: f64,
    /// Median per-decision service latency (request out → decision in),
    /// milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile service latency, milliseconds.
    pub latency_p99_ms: f64,
    /// Sessions whose decisions were replayed in-process and compared
    /// (all of them in the smoke phase).
    pub parity_checked: usize,
    /// Sessions whose remote decisions diverged from the replay (must
    /// be 0).
    pub parity_mismatches: usize,
    /// Events recorded to `results/serve_soak.replay` (RunEnd included).
    pub replay_events: u64,
    /// Whether the recorded log replayed to bit-identical decisions (must
    /// be true — the run fails otherwise).
    pub replay_verified: bool,
}

/// The summary document written to `BENCH_serve.json`. Root fields are the
/// scale phase; the recorded smoke phase nests under `smoke`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBench {
    /// Sessions driven in the scale phase (all held concurrently).
    pub sessions: usize,
    /// Client connections carrying the scale fleet.
    pub connections: usize,
    /// Server worker threads.
    pub server_threads: usize,
    /// Decisions batched per flush on each connection.
    pub pipeline: usize,
    /// Every how-many-th session gets a full in-process parity replay.
    pub parity_every: u64,
    /// Total decisions served in the scale phase.
    pub decisions: u64,
    /// Fleet wall time in seconds (open → close of every session).
    pub wall_time_s: f64,
    /// Widest barrier-to-barrier drive window across client threads,
    /// seconds — the denominator of `decisions_per_s`.
    pub drive_wall_s: f64,
    /// Server-confirmed concurrent sessions sampled at the hold barrier
    /// (must be ≥ `sessions`).
    pub held_sessions: u64,
    /// Sessions completed per second of wall time.
    pub sessions_per_s: f64,
    /// Decisions served per second of drive time, whole fleet held.
    pub decisions_per_s: f64,
    /// Median per-decision wave RTT, milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile per-decision wave RTT, milliseconds.
    pub latency_p99_ms: f64,
    /// Sessions parity-replayed in-process (sampled via `parity_every`).
    pub parity_checked: usize,
    /// Sampled sessions whose remote decisions diverged (must be 0).
    pub parity_mismatches: usize,
    /// Sessions admitted in degraded (stateless RBA) mode (0 here — the
    /// store is sized for the fleet).
    pub degraded_sessions: usize,
    /// Server-side peak concurrent sessions (must be ≥ `sessions`).
    pub peak_sessions: u64,
    /// Server-side wire-level errors (must be 0).
    pub protocol_errors: u64,
    /// The recorded + replay-verified smoke phase.
    pub smoke: SmokeBench,
}

/// Phase 1: the recorded, fully parity-checked smoke fleet.
fn run_smoke(threads: usize) -> io::Result<SmokeBench> {
    let connections = threads.min(8);
    let server_config = ServerConfig {
        threads,
        store: StoreConfig {
            capacity: SMOKE_SESSIONS.max(StoreConfig::default().capacity),
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    // Shared recorder: server and client events interleave into one
    // canonical log under results/.
    let replay_path = results_dir().join("serve_soak.replay");
    let recorder = Arc::new(Recorder::to_file(&replay_path)?);
    recorder.record(&Event::RunMeta {
        label: "bench serve_soak".into(),
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
        sessions: SMOKE_SESSIONS,
        connections,
        seed: 42,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        ..LoadgenConfig::default()
    };
    let provider = engine::serve_provider();
    let watch = Stopwatch::start();
    let now = move || watch.seconds();
    eprintln!(
        "smoke: {addr} with {SMOKE_SESSIONS} held sessions over {connections} connections..."
    );
    let report = loadgen::run_recorded(addr, &config, &provider, &now, Some(recorder.clone()))
        .map_err(io::Error::other)?;
    loadgen::shutdown_server(addr).map_err(io::Error::other)?;
    server
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?;
    let replay_events = recorder.finish().map_err(io::Error::other)?;

    // Replay the artifact before accepting the run.
    let log = replay::read_log(&replay_path).map_err(io::Error::other)?;
    let mut player = ReplayPlayer::new(log, engine::serve_provider());
    player.run_to_end();
    if let Some(divergence) = player.divergences().first() {
        return Err(io::Error::other(format!(
            "smoke replay diverged ({} total): {divergence}",
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
            "{} smoke sessions errored; first: session {id}: {error}",
            errors.len()
        )));
    }
    let mismatches = report.parity_mismatches();
    if !mismatches.is_empty() {
        return Err(io::Error::other(format!(
            "decision parity broken for {} smoke sessions",
            mismatches.len()
        )));
    }

    // Per-scheme breakdown: service latency plus the QoE the served fleet
    // actually delivered (journaled like every other experiment).
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let mut by_scheme: BTreeMap<(String, String), Vec<&loadgen::SessionOutcome>> = BTreeMap::new();
    for outcome in &report.outcomes {
        by_scheme
            .entry((outcome.plan.scheme.clone(), outcome.plan.video.clone()))
            .or_default()
            .push(outcome);
    }
    let path = results_dir().join("exp_serve_soak.csv");
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
    println!("wrote {}", path.display());
    println!(
        "wrote {} ({} events; verify with `cava replay`)",
        replay_path.display(),
        replay_events
    );

    let wall = report.wall_time_s.max(f64::MIN_POSITIVE);
    let latencies = report.latencies();
    Ok(SmokeBench {
        sessions: report.outcomes.len(),
        connections,
        decisions: report.decisions(),
        wall_time_s: report.wall_time_s,
        decisions_per_s: report.decisions() as f64 / wall,
        latency_p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0) * 1e3,
        latency_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0) * 1e3,
        parity_checked: report
            .outcomes
            .iter()
            .filter(|o| o.parity.is_some())
            .count(),
        parity_mismatches: mismatches.len(),
        replay_events,
        replay_verified: true,
    })
}

/// Phase 2: the pipelined scale fleet — held sessions and drive-window
/// throughput are the headline numbers.
fn run_scale(threads: usize, smoke: SmokeBench) -> io::Result<ServeBench> {
    let sessions = scale_sessions();
    let connections = threads.min(4);
    // Sample roughly 64 sessions for in-process parity replay; at small
    // override scales just check everything.
    let parity_every = (sessions as u64 / 64).max(1);
    let server_config = ServerConfig {
        threads,
        // Generous deadlines: a held connection legitimately idles while
        // its peers finish their open ramp.
        read_deadline_ms: 60_000,
        write_deadline_ms: 60_000,
        store: StoreConfig {
            capacity: sessions.max(StoreConfig::default().capacity),
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let bound = Server::bind("127.0.0.1:0", server_config, engine::serve_provider())?;
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let config = LoadgenConfig {
        sessions,
        connections,
        seed: 42,
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: true,
        parity: true,
        parity_every,
        pipeline: SCALE_PIPELINE,
        ..LoadgenConfig::default()
    };
    let provider = engine::serve_provider();
    let watch = Stopwatch::start();
    let now = move || watch.seconds();
    eprintln!(
        "scale: {addr} holding {sessions} sessions over {connections} connections, \
         {SCALE_PIPELINE} decisions per flush..."
    );
    let report = loadgen::run(addr, &config, &provider, &now).map_err(io::Error::other)?;
    loadgen::shutdown_server(addr).map_err(io::Error::other)?;
    let stats = server
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?;

    let errors = report.errors();
    if let Some((id, error)) = errors.first() {
        return Err(io::Error::other(format!(
            "{} scale sessions errored; first: session {id}: {error}",
            errors.len()
        )));
    }
    let mismatches = report.parity_mismatches();
    if !mismatches.is_empty() {
        return Err(io::Error::other(format!(
            "decision parity broken for {} sampled scale sessions",
            mismatches.len()
        )));
    }
    let held = report.held_sessions.unwrap_or(0);
    if held < sessions as u64 {
        return Err(io::Error::other(format!(
            "hold sample saw {held} concurrent sessions, wanted {sessions}"
        )));
    }
    if stats.peak_sessions < sessions as u64 {
        return Err(io::Error::other(format!(
            "server peak {} below fleet size {sessions}",
            stats.peak_sessions
        )));
    }

    let wall = report.wall_time_s.max(f64::MIN_POSITIVE);
    let drive = report.drive_wall_s.max(f64::MIN_POSITIVE);
    let latencies = report.latencies();
    Ok(ServeBench {
        sessions: report.outcomes.len(),
        connections,
        server_threads: threads,
        pipeline: SCALE_PIPELINE,
        parity_every,
        decisions: report.decisions(),
        wall_time_s: report.wall_time_s,
        drive_wall_s: report.drive_wall_s,
        held_sessions: held,
        sessions_per_s: report.outcomes.len() as f64 / wall,
        decisions_per_s: report.decisions() as f64 / drive,
        latency_p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0) * 1e3,
        latency_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0) * 1e3,
        parity_checked: report
            .outcomes
            .iter()
            .filter(|o| o.parity.is_some())
            .count(),
        parity_mismatches: mismatches.len(),
        degraded_sessions: report.degraded_sessions(),
        peak_sessions: stats.peak_sessions,
        protocol_errors: stats.protocol_errors,
        smoke,
    })
}

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "serve_soak",
        "abr-serve soak: recorded smoke + pipelined scale hold",
    );
    let threads = threads_from_env().max(4);
    let smoke = run_smoke(threads)?;
    let bench = run_scale(threads, smoke)?;

    let bench_path = std::path::PathBuf::from("BENCH_serve.json");
    let json = serde_json::to_string_pretty(&bench).map_err(io::Error::other)?;
    std::fs::write(&bench_path, json)?;
    println!(
        "smoke: {} sessions, {} decisions, {:.0} decisions/s serial, p99 {:.3} ms, replay {} events",
        bench.smoke.sessions,
        bench.smoke.decisions,
        bench.smoke.decisions_per_s,
        bench.smoke.latency_p99_ms,
        bench.smoke.replay_events
    );
    println!(
        "scale: {} sessions held (server confirmed {}, peak {}), {} decisions in {:.2}s drive window",
        bench.sessions, bench.held_sessions, bench.peak_sessions, bench.decisions, bench.drive_wall_s
    );
    println!(
        "{:.1} sessions/s, {:.0} decisions/s, wave latency p50 {:.3} ms / p99 {:.3} ms",
        bench.sessions_per_s, bench.decisions_per_s, bench.latency_p50_ms, bench.latency_p99_ms
    );
    println!(
        "parity: {} sampled (1 in {}), {} mismatches; {} degraded; {} protocol errors",
        bench.parity_checked,
        bench.parity_every,
        bench.parity_mismatches,
        bench.degraded_sessions,
        bench.protocol_errors
    );
    println!("wrote {}", bench_path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_bench() -> ServeBench {
        ServeBench {
            sessions: 100_000,
            connections: 4,
            server_threads: 4,
            pipeline: 512,
            parity_every: 1_562,
            decisions: 12_000_000,
            wall_time_s: 60.0,
            drive_wall_s: 40.0,
            held_sessions: 100_000,
            sessions_per_s: 1_666.7,
            decisions_per_s: 300_000.0,
            latency_p50_ms: 1.5,
            latency_p99_ms: 4.0,
            parity_checked: 64,
            parity_mismatches: 0,
            degraded_sessions: 0,
            peak_sessions: 100_000,
            protocol_errors: 0,
            smoke: SmokeBench {
                sessions: 200,
                connections: 8,
                decisions: 24_000,
                wall_time_s: 0.4,
                decisions_per_s: 60_000.0,
                latency_p50_ms: 0.1,
                latency_p99_ms: 0.7,
                parity_checked: 200,
                parity_mismatches: 0,
                replay_events: 73_000,
                replay_verified: true,
            },
        }
    }

    #[test]
    fn bench_document_round_trips_through_json() {
        let bench = sample_bench();
        let json = serde_json::to_string_pretty(&bench).unwrap();
        let back: ServeBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bench);
        for key in [
            "\"sessions_per_s\"",
            "\"decisions_per_s\"",
            "\"drive_wall_s\"",
            "\"held_sessions\"",
            "\"pipeline\"",
            "\"parity_every\"",
            "\"latency_p50_ms\"",
            "\"latency_p99_ms\"",
            "\"parity_mismatches\"",
            "\"smoke\"",
            "\"replay_events\"",
            "\"replay_verified\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn scale_session_count_env_override_and_default() {
        // Not set in the test environment: the default applies.
        assert_eq!(scale_sessions(), SCALE_SESSIONS_DEFAULT);
    }

    #[test]
    fn engine_provider_rejects_unknown_and_memoizes() {
        let provider = engine::serve_provider();
        assert!(provider("no-such-video").is_none());
        let a = provider("ED-youtube-h264").unwrap();
        let b = provider("ED-youtube-h264").unwrap();
        assert!(Arc::ptr_eq(&a.video, &b.video));
        assert_eq!(a.manifest.n_chunks(), a.video.n_chunks());
    }
}
