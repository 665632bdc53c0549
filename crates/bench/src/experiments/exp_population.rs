//! Population-scale workload sweep (extension) — per-cohort QoE for a
//! seeded `abr-pop` viewer population, at scale, plus a served-fleet
//! phase over real sockets.
//!
//! **Sweep phase.** [`POP_SCALE`] seeded viewers (override with the
//! `POP_SCALE` environment variable; acceptance runs use 1,000,000) stream
//! through the in-process simulator on the engine's dynamic scheduler.
//! Every viewer carries its cohort's network regime (LTE/FCC/5G/satellite
//! trace generators), device VMAF model, live window, and lifecycle
//! overlay (seeks, abandonment). The per-cohort reduction is byte-identical
//! for any worker count — `results/exp_population.csv` is the witness the
//! determinism tests and `scripts/check.sh` compare.
//!
//! **Serve phase.** A small slice of the same population drives the
//! `abr-serve` decision service over real TCP with parity checking on, so
//! the emitted `BENCH_population.json` tracks both sweep throughput
//! (sessions/sec) and serving throughput (decisions/sec, p50/p99 service
//! latency) from this revision on.

use crate::engine;
use crate::experiments::banner;
use crate::journal::{self, Stopwatch};
use crate::population::{self, CohortSummary, CSV_HEADER};
use crate::results_dir;
use abr_pop::PopConfig;
use abr_serve::loadgen::{self, LoadgenConfig};
use abr_serve::server::threads_from_env;
use abr_serve::store::StoreConfig;
use abr_serve::{Server, ServerConfig};
use serde::{Deserialize, Serialize};
use sim_report::stats::percentile;
use sim_report::{CohortBreakdown, CsvWriter};
use std::io;
use std::thread;

/// Default population size for the sweep phase. The acceptance runs use
/// the full million; `POP_SCALE` scales it down for smoke tests.
pub const POP_SCALE: usize = 1_000_000;

/// Sessions in the served-fleet phase (drives real sockets with parity).
pub const SERVE_SESSIONS: usize = 96;

/// The summary document written to `BENCH_population.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationBench {
    /// Population seed (fixes every arrival, cohort, trace, and lifecycle).
    pub seed: u64,
    /// Viewers swept through the in-process simulator.
    pub sessions: usize,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Sweep wall time in seconds.
    pub sweep_wall_s: f64,
    /// Simulated sessions completed per second of sweep wall time.
    pub sessions_per_s: f64,
    /// Sessions that abandoned mid-stream.
    pub abandoned: usize,
    /// Total mid-session seeks.
    pub seeks: usize,
    /// Total chunks streamed.
    pub chunks: u64,
    /// Per-cohort aggregates, in stable report order.
    pub cohorts: Vec<CohortSummary>,
    /// Sessions in the served-fleet phase.
    pub serve_sessions: usize,
    /// Decisions served over real sockets.
    pub serve_decisions: u64,
    /// Decisions served per second of serve-phase wall time.
    pub decisions_per_s: f64,
    /// Median per-decision service latency, milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile service latency, milliseconds.
    pub latency_p99_ms: f64,
    /// Served sessions whose decisions were replayed and compared.
    pub parity_checked: usize,
    /// Served sessions whose decisions diverged (must be 0).
    pub parity_mismatches: usize,
}

fn pop_config(sessions: usize) -> PopConfig {
    PopConfig {
        seed: 42,
        sessions,
        ..PopConfig::default()
    }
}

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner("population", "abr-pop sweep: per-cohort QoE at scale");
    let sessions = std::env::var("POP_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(POP_SCALE);
    let video = engine::video("ED-youtube-h264");
    let threads = engine::default_threads(sessions);

    eprintln!("sweeping {sessions} seeded viewers on {threads} threads...");
    let watch = Stopwatch::start();
    let cohorts = population::sweep(pop_config(sessions), &video, threads);
    let sweep_wall_s = watch.seconds();

    let abandoned: usize = cohorts.iter().map(|c| c.abandoned).sum();
    let seeks: usize = cohorts.iter().map(|c| c.seeks).sum();
    let chunks: u64 = cohorts.iter().map(|c| c.chunks).sum();

    let path = results_dir().join("exp_population.csv");
    let mut csv = CsvWriter::create(&path, &CSV_HEADER)?;
    let mut breakdown = CohortBreakdown::new(&[
        ("abandoned", 0),
        ("seeks", 0),
        ("quality", 1),
        ("low-q (%)", 1),
        ("rebuf (s)", 2),
        ("startup (s)", 2),
        ("watched (s)", 1),
    ]);
    for c in &cohorts {
        let row = population::csv_row(c);
        let fields: Vec<&str> = row.iter().map(String::as_str).collect();
        csv.write_str_row(&fields)?;
        breakdown.add(
            &c.cohort,
            c.sessions,
            &[
                c.abandoned as f64,
                c.seeks as f64,
                c.mean_quality,
                c.low_quality_pct,
                c.mean_rebuffer_s,
                c.mean_startup_s,
                c.mean_watched_s,
            ],
        );
        journal::note_scheme_run(
            &format!("CAVA [{}]", c.cohort),
            "ED-youtube-h264",
            c.sessions,
            c.mean_quality,
            c.mean_rebuffer_s,
        );
    }
    csv.flush()?;
    print!("{}", breakdown.to_table().render());

    // Serve phase: the same population model, over real sockets with
    // decision parity on.
    let server_threads = threads_from_env().max(4);
    let server_config = ServerConfig {
        threads: server_threads,
        store: StoreConfig {
            capacity: SERVE_SESSIONS.max(StoreConfig::default().capacity),
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let bound = Server::bind("127.0.0.1:0", server_config, engine::serve_provider())?;
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());
    let config = LoadgenConfig {
        population: Some(pop_config(SERVE_SESSIONS)),
        connections: server_threads.min(8),
        schemes: vec!["cava".into(), "bola".into(), "rba".into()],
        hold: false,
        parity: true,
        ..LoadgenConfig::default()
    };
    let provider = engine::serve_provider();
    let serve_watch = Stopwatch::start();
    let now = move || serve_watch.seconds();
    eprintln!("serving a {SERVE_SESSIONS}-viewer population slice at {addr}...");
    let report = loadgen::run(addr, &config, &provider, &now).map_err(io::Error::other)?;
    loadgen::shutdown_server(addr).map_err(io::Error::other)?;
    server
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?;

    let errors = report.errors();
    if let Some((id, error)) = errors.first() {
        return Err(io::Error::other(format!(
            "{} served population sessions errored; first: session {id}: {error}",
            errors.len()
        )));
    }
    let mismatches = report.parity_mismatches();
    if !mismatches.is_empty() {
        return Err(io::Error::other(format!(
            "decision parity broken for {} served population sessions",
            mismatches.len()
        )));
    }

    let latencies = report.latencies();
    let serve_wall = report.wall_time_s.max(f64::MIN_POSITIVE);
    let bench = PopulationBench {
        seed: 42,
        sessions,
        threads,
        sweep_wall_s,
        sessions_per_s: sessions as f64 / sweep_wall_s.max(f64::MIN_POSITIVE),
        abandoned,
        seeks,
        chunks,
        cohorts,
        serve_sessions: report.outcomes.len(),
        serve_decisions: report.decisions(),
        decisions_per_s: report.decisions() as f64 / serve_wall,
        latency_p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0) * 1e3,
        latency_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0) * 1e3,
        parity_checked: report
            .outcomes
            .iter()
            .filter(|o| o.parity.is_some())
            .count(),
        parity_mismatches: mismatches.len(),
    };

    let bench_path = std::path::PathBuf::from("BENCH_population.json");
    let json = serde_json::to_string_pretty(&bench).map_err(io::Error::other)?;
    std::fs::write(&bench_path, json)?;
    println!(
        "{} viewers swept in {:.2}s ({:.0} sessions/s) on {} threads",
        bench.sessions, bench.sweep_wall_s, bench.sessions_per_s, bench.threads
    );
    println!(
        "{} abandoned, {} seeks, {} chunks across {} cohorts",
        bench.abandoned,
        bench.seeks,
        bench.chunks,
        bench.cohorts.len()
    );
    println!(
        "served slice: {} sessions, {:.0} decisions/s, p50 {:.3} ms / p99 {:.3} ms, parity {}/{}",
        bench.serve_sessions,
        bench.decisions_per_s,
        bench.latency_p50_ms,
        bench.latency_p99_ms,
        bench.parity_checked,
        bench.serve_sessions
    );
    println!("wrote {}", path.display());
    println!("wrote {}", bench_path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_document_round_trips_through_json() {
        let bench = PopulationBench {
            seed: 42,
            sessions: 1_000_000,
            threads: 8,
            sweep_wall_s: 120.0,
            sessions_per_s: 8_333.3,
            abandoned: 420_000,
            seeks: 150_000,
            chunks: 55_000_000,
            cohorts: vec![CohortSummary {
                cohort: "phone-lte".into(),
                sessions: 130_000,
                abandoned: 54_000,
                seeks: 20_000,
                chunks: 7_000_000,
                scored: 129_000,
                mean_quality: 71.5,
                low_quality_pct: 9.4,
                mean_rebuffer_s: 0.8,
                mean_startup_s: 1.9,
                mean_watched_s: 171.0,
            }],
            serve_sessions: 96,
            serve_decisions: 9_000,
            decisions_per_s: 4_500.0,
            latency_p50_ms: 0.2,
            latency_p99_ms: 1.4,
            parity_checked: 96,
            parity_mismatches: 0,
        };
        let json = serde_json::to_string_pretty(&bench).unwrap();
        let back: PopulationBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bench);
        for key in [
            "\"sessions_per_s\"",
            "\"decisions_per_s\"",
            "\"latency_p99_ms\"",
            "\"cohorts\"",
            "\"parity_mismatches\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
