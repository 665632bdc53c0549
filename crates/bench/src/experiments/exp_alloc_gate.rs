//! `alloc_gate` — allocation counts on the decision hot path.
//!
//! Measures allocations and bytes per steady-state decision for the paper's
//! three headline schemes (CAVA, BOLA, RBA) through the in-process
//! [`SessionStore::decide`] path and through a real socket against the
//! reactor server, using the `counted-alloc` counting global allocator. The first
//! decision per session is warm-up (scheme caches, connection buffers reach
//! steady-state capacity) and is excluded from the window.
//!
//! Writes `BENCH_alloc.json`. `scripts/check.sh` diffs it against the
//! committed baseline with `bench_gate`, which holds `allocs_per_decision`
//! and `bytes_per_decision` to an **exact** gate: any increase over the
//! baseline fails, independent of the latency tolerance. Allocation counts
//! are deterministic where latency is noisy, so the gate has no variance to
//! absorb — the committed baseline is all zeros and must stay that way.
//!
//! The measuring implementation only builds with the crate's
//! `counted-alloc` feature, and only the dedicated `exp_alloc_gate` binary
//! installs the counting allocator; without the feature this experiment is
//! a no-op skip so `all_experiments` still runs end to end on a default
//! build.
//!
//! [`SessionStore::decide`]: abr_serve::store::SessionStore::decide

use serde::{Deserialize, Serialize};

/// Allocation counts for one scheme through one path, averaged over the
/// measured steady-state decisions.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PathAlloc {
    /// Steady-state decisions in the measurement window.
    pub decisions: u64,
    /// Allocator calls per decision (exact-gated by `bench_gate`).
    pub allocs_per_decision: f64,
    /// Allocated bytes per decision (exact-gated by `bench_gate`).
    pub bytes_per_decision: f64,
}

/// Per-scheme allocation counts across the two measured paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeAlloc {
    /// Scheme name as accepted by the serving protocol ("cava", ...).
    pub scheme: String,
    /// `SessionStore::decide` called directly, thread-scoped counts.
    pub in_process: PathAlloc,
    /// Decide round trips over TCP against the poll-based reactor server,
    /// process-global counts (client and server threads both quiet).
    pub socket_reactor: PathAlloc,
}

/// Everything `BENCH_alloc.json` records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocBench {
    /// Warm-up decisions per session excluded from every window.
    pub warmup_decisions: u64,
    /// One entry per measured scheme, in measurement order.
    pub schemes: Vec<SchemeAlloc>,
}

/// Without the `counted-alloc` feature the experiment skips itself.
#[cfg(not(feature = "counted-alloc"))]
pub fn run() -> std::io::Result<()> {
    // `run_all` aborts on the first experiment error, so a default build
    // skips rather than refuses; the `exp_alloc_gate` binary itself refuses
    // to build a measurement without the feature.
    eprintln!(
        "alloc_gate: skipped — rebuild with `--features counted-alloc` to measure \
         (no BENCH_alloc.json written)"
    );
    Ok(())
}

#[cfg(feature = "counted-alloc")]
pub use measure::run;

#[cfg(feature = "counted-alloc")]
mod measure {
    use super::{AllocBench, PathAlloc, SchemeAlloc};
    use crate::experiments::banner;
    use abr_serve::protocol::{
        decode_frame, encode_frame_into, read_frame, write_frame, Frame, PROTOCOL_VERSION,
    };
    use abr_serve::store::{dataset_provider, SessionStore, StoreConfig};
    use abr_serve::{Server, ServerConfig};
    use abr_sim::DecisionRequest;
    use counted_alloc::AllocScope;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::thread;

    const VIDEO: &str = "ED-youtube-h264";
    const SCHEMES: [&str; 3] = ["cava", "bola", "rba"];
    /// Steady-state decisions measured per scheme and path.
    const MEASURED: usize = 48;
    /// Decisions excluded per session before any window opens.
    const WARMUP: usize = 1;

    fn per_decision(allocs: u64, bytes: u64) -> PathAlloc {
        PathAlloc {
            decisions: MEASURED as u64,
            allocs_per_decision: allocs as f64 / MEASURED as f64,
            bytes_per_decision: bytes as f64 / MEASURED as f64,
        }
    }

    fn request_for_chunk(chunk: usize, n_chunks: usize) -> DecisionRequest {
        DecisionRequest {
            chunk_index: chunk,
            buffer_s: (chunk as f64 * 1.5).min(30.0),
            estimated_bandwidth_bps: Some(4.0e6),
            last_level: if chunk == 0 { None } else { Some(0) },
            latest_throughput_bps: Some(4.0e6 + chunk as f64),
            wall_time_s: chunk as f64 * 4.0,
            startup_complete: chunk > 0,
            visible_chunks: n_chunks,
        }
    }

    fn quiet_store_config() -> StoreConfig {
        StoreConfig {
            capacity: 8,
            idle_ticks: u64::MAX,
            ..StoreConfig::default()
        }
    }

    /// Thread-scoped counts for `SessionStore::decide` called directly.
    fn measure_in_process(scheme: &str, n_chunks: usize) -> io::Result<PathAlloc> {
        let store = SessionStore::new(quiet_store_config(), dataset_provider());
        store
            .open(1, 7, VIDEO, scheme, 0)
            .map_err(io::Error::other)?;
        for chunk in 0..WARMUP {
            store
                .decide(7, &request_for_chunk(chunk, n_chunks))
                .map_err(io::Error::other)?;
        }
        let scope = AllocScope::thread();
        for chunk in WARMUP..WARMUP + MEASURED {
            match store.decide(7, &request_for_chunk(chunk, n_chunks)) {
                Ok(response) => {
                    std::hint::black_box(response);
                }
                Err(err) => return Err(io::Error::other(err)),
            }
        }
        let delta = scope.delta();
        Ok(per_decision(delta.allocs, delta.bytes))
    }

    /// One decision round trip that itself allocates nothing: encode into a
    /// reused wire buffer, read the reply into a reused body buffer, decode
    /// in place.
    fn decide_roundtrip(
        stream: &mut TcpStream,
        wire: &mut Vec<u8>,
        body: &mut Vec<u8>,
        session_id: u64,
        chunk: usize,
        n_chunks: usize,
    ) -> io::Result<()> {
        wire.clear();
        encode_frame_into(
            wire,
            &Frame::Decide {
                session_id,
                request: request_for_chunk(chunk, n_chunks),
            },
        )
        .map_err(io::Error::other)?;
        stream.write_all(wire)?;
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        body.clear();
        body.resize(len, 0);
        stream.read_exact(body)?;
        match decode_frame(body).map_err(io::Error::other)? {
            Frame::Decision {
                session_id: sid, ..
            } if sid == session_id => Ok(()),
            other => Err(io::Error::other(format!(
                "expected Decision, got {other:?}"
            ))),
        }
    }

    /// Process-global counts per scheme for decide round trips over TCP.
    /// One server, one connection, one session per scheme; each scheme gets
    /// its own measurement window after all sessions are warmed up.
    fn measure_socket() -> io::Result<Vec<PathAlloc>> {
        let config = ServerConfig {
            threads: 2,
            read_deadline_ms: 0,
            write_deadline_ms: 0,
            poll_ms: 1,
            store: quiet_store_config(),
            ..ServerConfig::default()
        };
        let bound = Server::bind("127.0.0.1:0", config, dataset_provider())?;
        let addr = bound.addr();
        let handle = thread::spawn(move || bound.serve());

        let mut stream = TcpStream::connect(addr)?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(io::Error::other)?;
        match read_frame(&mut stream).map_err(io::Error::other)? {
            Frame::HelloOk { .. } => {}
            other => return Err(io::Error::other(format!("expected HelloOk, got {other:?}"))),
        }
        let mut n_chunks = 0usize;
        for (i, scheme) in SCHEMES.iter().enumerate() {
            write_frame(
                &mut stream,
                &Frame::OpenSession {
                    session_id: i as u64 + 1,
                    video: VIDEO.to_string(),
                    scheme: (*scheme).to_string(),
                    vmaf_model: 0,
                },
            )
            .map_err(io::Error::other)?;
            match read_frame(&mut stream).map_err(io::Error::other)? {
                Frame::OpenOk {
                    n_chunks: n,
                    degraded: false,
                    ..
                } => n_chunks = n as usize,
                other => return Err(io::Error::other(format!("expected OpenOk, got {other:?}"))),
            }
        }
        if n_chunks <= WARMUP + MEASURED {
            return Err(io::Error::other("video too short for the alloc window"));
        }

        let mut wire = Vec::with_capacity(256);
        let mut body = Vec::with_capacity(64);
        // Warm-up: scheme caches build and connection buffers reach
        // steady-state capacity on both ends.
        for sid in 1..=SCHEMES.len() as u64 {
            for chunk in 0..WARMUP {
                decide_roundtrip(&mut stream, &mut wire, &mut body, sid, chunk, n_chunks)?;
            }
        }

        let mut paths = Vec::with_capacity(SCHEMES.len());
        for sid in 1..=SCHEMES.len() as u64 {
            let scope = AllocScope::global();
            for chunk in WARMUP..WARMUP + MEASURED {
                decide_roundtrip(&mut stream, &mut wire, &mut body, sid, chunk, n_chunks)?;
            }
            let delta = scope.delta();
            paths.push(per_decision(delta.allocs, delta.bytes));
        }

        // Hang up before requesting shutdown — the reactor serves existing
        // connections until they close, even mid-shutdown.
        drop(stream);
        abr_serve::loadgen::shutdown_server(addr).map_err(io::Error::other)?;
        handle
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        Ok(paths)
    }

    /// Measure all schemes through all paths and write `BENCH_alloc.json`.
    pub fn run() -> io::Result<()> {
        banner("alloc_gate", "Allocations per steady-state decision");
        if !counted_alloc::counting_enabled() {
            return Err(io::Error::other(
                "counting allocator not installed in this binary; \
                 run `exp_alloc_gate` built with `--features counted-alloc`",
            ));
        }
        let n_chunks = dataset_provider()(VIDEO)
            .ok_or_else(|| io::Error::other("dataset is missing the alloc-gate video"))?
            .manifest
            .n_chunks();
        if n_chunks <= WARMUP + MEASURED {
            return Err(io::Error::other("video too short for the alloc window"));
        }

        let mut in_process = Vec::with_capacity(SCHEMES.len());
        for scheme in SCHEMES {
            in_process.push(measure_in_process(scheme, n_chunks)?);
        }
        let socket_reactor = measure_socket()?;

        let bench = AllocBench {
            warmup_decisions: WARMUP as u64,
            schemes: SCHEMES
                .iter()
                .zip(in_process)
                .zip(socket_reactor)
                .map(|((scheme, in_process), socket_reactor)| SchemeAlloc {
                    scheme: (*scheme).to_string(),
                    in_process,
                    socket_reactor,
                })
                .collect(),
        };

        println!(
            "  {:<8} {:>14} {:>16}",
            "scheme", "in-process", "socket/reactor"
        );
        for s in &bench.schemes {
            println!(
                "  {:<8} {:>8.2} allocs {:>9.2} allocs",
                s.scheme, s.in_process.allocs_per_decision, s.socket_reactor.allocs_per_decision
            );
        }

        let path = std::path::PathBuf::from("BENCH_alloc.json");
        let json = serde_json::to_string_pretty(&bench).map_err(io::Error::other)?;
        std::fs::write(&path, json)?;
        println!("  wrote {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_round_trips() {
        let bench = AllocBench {
            warmup_decisions: 1,
            schemes: vec![SchemeAlloc {
                scheme: "cava".to_string(),
                in_process: PathAlloc {
                    decisions: 48,
                    allocs_per_decision: 0.0,
                    bytes_per_decision: 0.0,
                },
                socket_reactor: PathAlloc {
                    decisions: 48,
                    allocs_per_decision: 0.25,
                    bytes_per_decision: 16.0,
                },
            }],
        };
        let json = serde_json::to_string_pretty(&bench).expect("serialize");
        let back: AllocBench = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.schemes.len(), 1);
        assert_eq!(back.schemes[0].scheme, "cava");
        assert_eq!(back.schemes[0].socket_reactor.decisions, 48);
        assert!(json.contains("allocs_per_decision"));
    }
}
