//! The TCP front end: the service core and the reactor that serves it.
//!
//! `std`-only, no runtime, no detached threads. The [`Server`] owns the
//! session store, the counters, and the **frame core**:
//! `Server::handle_frame` consumes one decoded [`Frame`] and appends the
//! encoded response(s) to an out-buffer. It performs **no socket I/O** and
//! holds no lock across any; [`BoundServer::serve`] runs the
//! readiness-driven non-blocking reactor in [`crate::reactor`] around it.
//! Each reactor thread multiplexes many `set_nonblocking` connections with
//! per-connection read/write buffers, incremental frame decode,
//! write-interest-driven flushing, and an idle wait in `poll(2)` whose
//! timeouts drive deadline accounting. One wakeup batches every decision
//! that is ready before flushing responses.
//!
//! Connection protocol: handshake first (`Hello` → `HelloOk`,
//! version-checked), then frames. Application errors (unknown video,
//! duplicate session, …) answer with a typed [`Frame::Error`] and keep the
//! connection; wire-level decode errors answer with `Error` and drop it. A
//! dropped connection hands every session it opened back to the store
//! ([`SessionStore::drop_connection`]) — orphaned for a grace window so a
//! reconnecting client can [`Frame::ResumeSession`] them, or reaped
//! outright when orphaning is disabled.
//!
//! **No thread blocks indefinitely on a peer.** Every connection gets a
//! read deadline and a write deadline ([`ServerConfig::read_deadline_ms`],
//! [`ServerConfig::write_deadline_ms`], env-tunable), quantized to
//! [`ServerConfig::poll_ms`]: the thread that calls `serve` sleeps
//! `poll_ms` between ticks of a shared counter, the reactor waits idle in
//! `poll(2)` at most `poll_ms`, and it never reads a wall clock (lint R1)
//! — the sleep is the only time source. A client silent past the deadline
//! is **reaped**: counted in
//! [`StatsSnapshot::connections_reaped`], sent a best-effort
//! [`ErrorCode::Timeout`], and dropped.
//!
//! Shutdown is a protocol frame, not a signal: `Shutdown` is acknowledged
//! with `ShutdownOk`, accepting stops, in-flight connections drain, and
//! every thread is joined before `serve` returns. Deterministic teardown,
//! clean enough to assert on in tests.

use crate::protocol::{encode_frame_into, ErrorCode, Frame, StatsSnapshot, WireError};
use crate::replay::{Event, Recorder};
use crate::store::{SessionStore, StoreConfig, VideoProvider};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable overriding the reactor thread count.
pub const THREADS_ENV: &str = "ABR_SERVE_THREADS";

/// Default reactor thread count when [`THREADS_ENV`] is unset.
pub const DEFAULT_THREADS: usize = 8;

/// Environment variable overriding the per-connection read deadline (ms).
pub const READ_DEADLINE_ENV: &str = "ABR_SERVE_READ_DEADLINE_MS";

/// Environment variable overriding the per-connection write deadline (ms).
pub const WRITE_DEADLINE_ENV: &str = "ABR_SERVE_WRITE_DEADLINE_MS";

/// Environment variable overriding the reactor's idle wait timeout and
/// deadline quantum (ms).
pub const POLL_ENV: &str = "ABR_SERVE_POLL_MS";

/// Default read deadline when [`READ_DEADLINE_ENV`] is unset. Generous on
/// purpose: a held loadgen fleet parks connections at barriers for however
/// long the slowest session replay takes.
pub const DEFAULT_READ_DEADLINE_MS: u64 = 120_000;

/// Default write deadline when [`WRITE_DEADLINE_ENV`] is unset.
pub const DEFAULT_WRITE_DEADLINE_MS: u64 = 30_000;

/// Default idle wait timeout when [`POLL_ENV`] is unset.
pub const DEFAULT_POLL_MS: u64 = 20;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default)
}

/// Reactor thread count: `ABR_SERVE_THREADS` if set and parseable, else 8,
/// floored at 1.
pub fn threads_from_env() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_THREADS)
        .max(1)
}

/// Read deadline (ms): [`READ_DEADLINE_ENV`] if set and parseable, else
/// [`DEFAULT_READ_DEADLINE_MS`]. `0` disables the deadline.
pub fn read_deadline_from_env() -> u64 {
    env_u64(READ_DEADLINE_ENV, DEFAULT_READ_DEADLINE_MS)
}

/// Write deadline (ms): [`WRITE_DEADLINE_ENV`] if set and parseable, else
/// [`DEFAULT_WRITE_DEADLINE_MS`]. `0` disables the deadline.
pub fn write_deadline_from_env() -> u64 {
    env_u64(WRITE_DEADLINE_ENV, DEFAULT_WRITE_DEADLINE_MS)
}

/// Idle wait timeout (ms): [`POLL_ENV`] if set and parseable, else
/// [`DEFAULT_POLL_MS`], floored at 1.
pub fn poll_ms_from_env() -> u64 {
    env_u64(POLL_ENV, DEFAULT_POLL_MS).max(1)
}

/// The connection-handling core. The reactor is the only one; the enum
/// and [`ServerConfig::backend`] remain because the benchmark crate spells
/// out a full [`ServerConfig`], and they go with its next revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The poll-based non-blocking reactor: a few threads each
    /// multiplexing many nonblocking connections, batching every decision
    /// ready in a wakeup before flushing. See [`crate::reactor`].
    Reactor,
}

/// Front-end sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Inert: the reactor is the only core (see [`Backend`]).
    pub backend: Backend,
    /// Reactor threads. Each thread multiplexes any number of
    /// connections, so 1–2 threads carry whole fleets.
    pub threads: usize,
    /// Inert: the reactor accepts without a queue. Kept only so existing
    /// struct literals still build (see [`Backend`]).
    pub queue_depth: usize,
    /// Per-connection read deadline in milliseconds: a connection that
    /// delivers **no bytes** for this long is reaped. `0` disables the
    /// deadline (a silent peer is held forever — test use only). The deadline
    /// bounds the longest silent gap, not total frame time: a peer that
    /// keeps trickling bytes stays alive.
    pub read_deadline_ms: u64,
    /// Per-connection write deadline in milliseconds: a send that cannot
    /// make progress for this long (peer stopped draining) fails and the
    /// connection is reaped. `0` disables it.
    pub write_deadline_ms: u64,
    /// Idle wait timeout and deadline quantum (ms): a reactor thread with
    /// nothing to do blocks in `poll(2)` at most this long, and both
    /// deadlines count ticks of this length, which the thread that called
    /// `serve` produces by sleeping — the only time source the deadline
    /// machinery uses. Floored at 1.
    pub poll_ms: u64,
    /// Session-store sizing.
    pub store: StoreConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            backend: Backend::Reactor,
            threads: threads_from_env(),
            queue_depth: 64,
            read_deadline_ms: read_deadline_from_env(),
            write_deadline_ms: write_deadline_from_env(),
            poll_ms: poll_ms_from_env(),
            store: StoreConfig::default(),
        }
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) peak_sessions: AtomicU64,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_closed: AtomicU64,
    pub(crate) sessions_aborted: AtomicU64,
    pub(crate) degraded_opens: AtomicU64,
    pub(crate) decisions: AtomicU64,
    pub(crate) degraded_decisions: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) connections_reaped: AtomicU64,
    pub(crate) sessions_orphaned: AtomicU64,
    pub(crate) sessions_resumed: AtomicU64,
    pub(crate) sockopt_errors: AtomicU64,
}

/// The service: session store + counters + shutdown latch. Shared by every
/// reactor thread; all methods are `&self`.
pub struct Server {
    pub(crate) config: ServerConfig,
    pub(crate) store: SessionStore,
    pub(crate) counters: Counters,
    pub(crate) shutdown: AtomicBool,
    /// Optional event recorder shared with the store (see
    /// [`crate::replay`]): the server contributes frame-level events, the
    /// store the session transitions.
    recorder: Option<Arc<Recorder>>,
}

/// A [`Server`] bound to a listening socket, ready to [`BoundServer::serve`].
pub struct BoundServer {
    server: Arc<Server>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and return
    /// the bound front end.
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        provider: VideoProvider,
    ) -> io::Result<BoundServer> {
        Server::bind_recorded(addr, config, provider, None)
    }

    /// [`Server::bind`] with an event recorder attached: every frame
    /// in/out and every store transition of the run lands in the log (see
    /// [`crate::replay`]).
    pub fn bind_recorded(
        addr: &str,
        config: ServerConfig,
        provider: VideoProvider,
        recorder: Option<Arc<Recorder>>,
    ) -> io::Result<BoundServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = Arc::new(Server {
            store: SessionStore::recorded(config.store, provider, recorder.clone()),
            config,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            recorder,
        });
        Ok(BoundServer {
            server,
            listener,
            addr,
        })
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.counters;
        StatsSnapshot {
            connections: c.connections.load(Ordering::Relaxed),
            open_sessions: self.store.open_sessions() as u64,
            peak_sessions: c.peak_sessions.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: c.sessions_closed.load(Ordering::Relaxed),
            // Orphans whose grace lapsed died without a close too — they
            // fold into the aborted total.
            sessions_aborted: c.sessions_aborted.load(Ordering::Relaxed)
                + self.store.orphan_reaped_count(),
            sessions_evicted: self.store.evicted_count(),
            degraded_opens: c.degraded_opens.load(Ordering::Relaxed),
            decisions: c.decisions.load(Ordering::Relaxed),
            degraded_decisions: c.degraded_decisions.load(Ordering::Relaxed),
            frames_in: c.frames_in.load(Ordering::Relaxed),
            frames_out: c.frames_out.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            connections_reaped: c.connections_reaped.load(Ordering::Relaxed),
            sessions_orphaned: c.sessions_orphaned.load(Ordering::Relaxed),
            sessions_resumed: c.sessions_resumed.load(Ordering::Relaxed),
            sockopt_errors: c.sockopt_errors.load(Ordering::Relaxed),
        }
    }

    /// Whether a `Shutdown` frame has been honored.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Encode `frame` and append it to `out` — the reactor flushes `out`
    /// to the socket on its own schedule, so no lock anywhere up the stack
    /// is ever held across socket I/O. Counters and the replay `FrameOut`
    /// event are taken at **encode** time, not at flush time, so the log
    /// does not depend on how responses are batched onto the wire.
    pub(crate) fn send(
        &self,
        conn: u64,
        out: &mut Vec<u8>,
        frame: &Frame,
    ) -> Result<(), WireError> {
        // Encode straight into the caller's out-buffer: the recorder needs
        // the frame's wire length and type byte, and `encode_frame_into`
        // reports both without a scratch allocation.
        let (wire_len, frame_type) = encode_frame_into(out, frame)?;
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        if let Some(recorder) = &self.recorder {
            recorder.record(&Event::FrameOut {
                conn,
                frame_type,
                wire_len,
            });
        }
        Ok(())
    }

    pub(crate) fn note_frame_in(&self, conn: u64, wire_len: u32, frame_type: u8) {
        self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        if let Some(recorder) = &self.recorder {
            recorder.record(&Event::FrameIn {
                conn,
                frame_type,
                wire_len,
            });
        }
    }

    /// Handle one post-handshake frame, appending every response to `out`
    /// (see [`Server::send`]). Returns `Ok(false)` when the connection
    /// should close (a `Shutdown` was honored). Pure state + buffer work:
    /// the reactor drives its sockets around this one function.
    pub(crate) fn handle_frame(
        &self,
        conn: u64,
        frame: Frame,
        out: &mut Vec<u8>,
    ) -> Result<bool, WireError> {
        let c = &self.counters;
        match frame {
            Frame::OpenSession {
                session_id,
                video,
                scheme,
                vmaf_model,
            } => match self
                .store
                .open(conn, session_id, &video, &scheme, vmaf_model)
            {
                Ok(opened) => {
                    c.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    if opened.degraded {
                        c.degraded_opens.fetch_add(1, Ordering::Relaxed);
                    }
                    let open = self.store.open_sessions() as u64;
                    c.peak_sessions.fetch_max(open, Ordering::Relaxed);
                    self.send(
                        conn,
                        out,
                        &Frame::OpenOk {
                            session_id,
                            degraded: opened.degraded,
                            n_tracks: opened.n_tracks as u32,
                            n_chunks: opened.n_chunks as u32,
                        },
                    )?;
                }
                Err(e) => self.send(
                    conn,
                    out,
                    &Frame::Error {
                        code: e.code(),
                        message: e.to_string(),
                    },
                )?,
            },
            Frame::Decide {
                session_id,
                request,
            } => match self.store.decide(session_id, &request) {
                Ok(response) => {
                    c.decisions.fetch_add(1, Ordering::Relaxed);
                    if response.degraded {
                        c.degraded_decisions.fetch_add(1, Ordering::Relaxed);
                    }
                    self.send(
                        conn,
                        out,
                        &Frame::Decision {
                            session_id,
                            response,
                        },
                    )?;
                }
                Err(e) => self.send(
                    conn,
                    out,
                    &Frame::Error {
                        code: e.code(),
                        message: e.to_string(),
                    },
                )?,
            },
            Frame::CloseSession { session_id } => match self.store.close(session_id) {
                Ok(decisions) => {
                    c.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    self.send(
                        conn,
                        out,
                        &Frame::Closed {
                            session_id,
                            decisions,
                        },
                    )?;
                }
                Err(e) => self.send(
                    conn,
                    out,
                    &Frame::Error {
                        code: e.code(),
                        message: e.to_string(),
                    },
                )?,
            },
            Frame::ResumeSession { session_id } => match self.store.resume(conn, session_id) {
                Ok(resumed) => {
                    c.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                    self.send(
                        conn,
                        out,
                        &Frame::ResumeOk {
                            session_id,
                            degraded: resumed.degraded,
                            decisions: resumed.decisions,
                            n_tracks: resumed.n_tracks as u32,
                            n_chunks: resumed.n_chunks as u32,
                        },
                    )?;
                }
                Err(e) => self.send(
                    conn,
                    out,
                    &Frame::Error {
                        code: e.code(),
                        message: e.to_string(),
                    },
                )?,
            },
            Frame::StatsReq => self.send(conn, out, &Frame::StatsReply(self.stats()))?,
            Frame::Shutdown => {
                self.send(conn, out, &Frame::ShutdownOk)?;
                self.shutdown.store(true, Ordering::SeqCst);
                return Ok(false);
            }
            // A second Hello, or any server→client frame, is a protocol
            // misuse but not a decode failure: answer and keep going.
            other => {
                self.send(conn, out, &unexpected_frame_error(&other))?;
            }
        }
        Ok(true)
    }

    /// The text of the best-effort courtesy frame a reaped connection is
    /// sent before it is dropped.
    pub(crate) fn reap_frame() -> Frame {
        Frame::Error {
            code: ErrorCode::Timeout,
            message: "connection deadline exceeded; reaped".to_string(),
        }
    }

    /// Hand connection `conn`'s sessions back to the store and fold the
    /// outcome into the counters. The reactor calls this exactly once per
    /// dead connection.
    pub(crate) fn drop_connection(&self, conn: u64) {
        let dropped = self.store.drop_connection(conn);
        self.counters
            .sessions_aborted
            .fetch_add(dropped.aborted, Ordering::Relaxed);
        self.counters
            .sessions_orphaned
            .fetch_add(dropped.orphaned, Ordering::Relaxed);
    }
}

/// Build the error reply for a post-handshake frame the server never
/// expects. Kept out of [`Server::handle_frame`] so the formatting
/// allocation lives on a path only misbehaving peers reach — well-formed
/// decision traffic never gets here.
// abr-lint: cold — error formatting for protocol misuse, off the decision path
fn unexpected_frame_error(other: &Frame) -> Frame {
    Frame::Error {
        code: ErrorCode::BadFrame,
        message: format!("unexpected frame {other:?} after handshake"),
    }
}

impl BoundServer {
    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shared handle to the service (stats, shutdown flag).
    pub fn server(&self) -> Arc<Server> {
        Arc::clone(&self.server)
    }

    /// Run the reactor until a `Shutdown` frame arrives, then drain and
    /// return the final counter snapshot. Blocks the calling thread; every
    /// serving thread is joined before returning.
    pub fn serve(self) -> StatsSnapshot {
        crate::reactor::serve(self.server, self.listener)
    }
}
