//! The poll-based non-blocking reactor: the server's connection core (see
//! [`BoundServer::serve`](crate::server::BoundServer::serve)).
//!
//! `std`-only: there is no `epoll`/`kqueue` in the standard library, so
//! readiness is discovered by **sweeping** — every serving thread owns a
//! set of `set_nonblocking` connections and repeatedly pumps each one:
//! flush whatever response bytes are still buffered, read whatever the
//! kernel has, decode complete frames incrementally out of the read
//! buffer, hand each to the `Server::handle_frame` core (which appends
//! encoded responses to the write buffer), then flush once. A wakeup that
//! finds ten pipelined `Decide` frames answers all ten with **one** read
//! and **one** write syscall — that batching, not parallelism, is where
//! the throughput comes from, and it is why one reactor thread holds 100k+
//! sessions over any number of connections.
//!
//! When a full sweep makes no progress the thread yields a few times
//! (another runnable thread — usually the client that owes us bytes — gets
//! the core), then **dozes** one [`poll_ms`](crate::server::ServerConfig)
//! sleep. Dozes are the reactor's only time source (lint R1: no wall
//! clock): each doze charges one *poll tick* to every connection that made
//! no progress, and a connection idle past
//! `read_deadline_ms / poll_ms` ticks — or unable to flush for
//! `write_deadline_ms / poll_ms` ticks — is **reaped**: counted, sent a
//! best-effort [`Frame::Error`] timeout notice, dropped. Busy sweeps never charge
//! ticks: a server at full throughput is by definition making progress,
//! and its deadline clock only starts once it goes idle.
//!
//! Backpressure is per connection and write-interest-driven: while a
//! connection's unflushed responses exceed a soft cap the reactor stops
//! *reading* from it, so a peer that stops draining throttles only itself.
//! Shutdown follows the shared protocol: once `Shutdown` latches the flag,
//! accepting stops, every connection drains its buffered responses and
//! EOFs, and `serve` joins all threads — no wake-up dial needed, the
//! accept loop is nonblocking.
//!
//! Locks are never held across socket I/O in this module (lint R8): all
//! store locking happens inside `handle_frame`, which only touches memory
//! buffers.

use crate::protocol::{decode_frame, Frame, StatsSnapshot, WireError, MAX_FRAME_LEN};
use crate::server::Server;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Consecutive empty sweeps a reactor thread yields before it dozes one
/// poll interval. Yielding first keeps request latency at
/// scheduler-quantum scale while the fleet is active; dozing only kicks in
/// once the thread is genuinely idle.
const YIELD_SWEEPS: u32 = 200;

/// Soft cap on buffered-but-unflushed response bytes per connection;
/// above it the reactor stops reading new requests from that connection
/// until the peer drains (write-interest backpressure).
const WBUF_SOFT_CAP: usize = 256 * 1024;

/// Bytes one nonblocking read asks for.
const READ_CHUNK: usize = 64 * 1024;

/// Where a connection is in its lifecycle.
enum Phase {
    /// Accepted; the first frame must be a version-matched `Hello`.
    AwaitHello,
    /// Handshake done; frames flow through `Server::handle_frame`.
    Open,
    /// The server has decided to close (shutdown honored, wire error
    /// answered, or deadline reaped): flush remaining responses, then
    /// drop. No further reads.
    Draining,
}

/// One nonblocking connection owned by a reactor thread.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Inbound bytes not yet decoded; `rpos` is the decode cursor so a
    /// batch of frames costs one compaction, not one per frame.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded responses not yet accepted by the kernel; `wpos` is the
    /// flush cursor.
    wbuf: Vec<u8>,
    wpos: usize,
    phase: Phase,
    /// Poll ticks (dozes) since the last inbound byte.
    idle_ticks: u64,
    /// Poll ticks the write buffer has been stuck non-empty.
    write_stalled_ticks: u64,
    /// Peer sent EOF; finish buffered work, then close.
    saw_eof: bool,
}

/// What one pump pass concluded.
enum Pump {
    /// Connection stays; `true` when any bytes moved or frames ran.
    Alive(bool),
    /// Connection is finished; remove it and drop its sessions.
    Dead,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            rbuf: Vec::with_capacity(4096),
            rpos: 0,
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            phase: Phase::AwaitHello,
            idle_ticks: 0,
            write_stalled_ticks: 0,
            saw_eof: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Push buffered response bytes into the kernel until it refuses.
    /// `Err(())` is a fatal transport error (peer reset): the connection
    /// is unusable, counters untouched — a hangup is not a protocol error.
    // abr-lint: hot-path
    fn flush(&mut self, progress: &mut bool) -> Result<(), ()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.wpos += n;
                    self.write_stalled_ticks = 0;
                    *progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return Err(()),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Read whatever the kernel has buffered. `Err(e)` is a transport
    /// error to be reported like a wire error; EOF sets `saw_eof` instead
    /// of erroring so already-buffered frames still run.
    // abr-lint: hot-path
    fn fill(&mut self, scratch: &mut [u8], progress: &mut bool) -> Result<(), WireError> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.saw_eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.idle_ticks = 0;
                    *progress = true;
                    // Don't let one firehose peer starve the sweep.
                    if self.rbuf.len() - self.rpos >= READ_CHUNK * 4 {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(WireError::from(e)),
            }
        }
    }

    /// Decode the next complete frame at the cursor, if a full one has
    /// arrived. Validates the length prefix exactly like the blocking
    /// client reader ([`crate::protocol::read_frame`]), so both ends
    /// reject the same garbage with the same error text.
    fn try_decode(&mut self) -> Result<Option<(Frame, u32, u8)>, WireError> {
        let avail = &self.rbuf[self.rpos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        let body_len = len as usize;
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        let body = &avail[4..4 + body_len];
        let ty = body[0];
        let frame = decode_frame(body)?;
        self.rpos += 4 + body_len;
        Ok(Some((frame, 4 + len, ty)))
    }

    /// Run every complete frame in the read buffer through the shared
    /// core, appending responses to the write buffer.
    // abr-lint: hot-path
    fn drain_frames(&mut self, server: &Server, progress: &mut bool) {
        loop {
            if matches!(self.phase, Phase::Draining) {
                break;
            }
            match self.try_decode() {
                Ok(None) => break,
                Ok(Some((frame, wire_len, ty))) => {
                    *progress = true;
                    server.note_frame_in(self.id, wire_len, ty);
                    self.dispatch(server, frame);
                }
                Err(e) => {
                    *progress = true;
                    self.wire_error(server, &e);
                    break;
                }
            }
        }
        // One compaction per sweep, not per frame.
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Route one decoded frame by phase: handshake rules before `Open`,
    /// the shared core after.
    fn dispatch(&mut self, server: &Server, frame: Frame) {
        match self.phase {
            Phase::AwaitHello => match frame {
                Frame::Hello { version } if version == crate::protocol::PROTOCOL_VERSION => {
                    let _ = server.send(
                        self.id,
                        &mut self.wbuf,
                        &Frame::HelloOk {
                            version: crate::protocol::PROTOCOL_VERSION,
                        },
                    );
                    self.phase = Phase::Open;
                }
                Frame::Hello { version } => {
                    let _ = server.send(
                        self.id,
                        &mut self.wbuf,
                        &Frame::Error {
                            code: crate::protocol::ErrorCode::UnknownVersion,
                            message: WireError::UnknownVersion(version).to_string(),
                        },
                    );
                    self.phase = Phase::Draining;
                }
                _ => {
                    server
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = server.send(
                        self.id,
                        &mut self.wbuf,
                        &Frame::Error {
                            code: crate::protocol::ErrorCode::BadFrame,
                            message: "expected Hello as first frame".to_string(),
                        },
                    );
                    self.phase = Phase::Draining;
                }
            },
            Phase::Open => match server.handle_frame(self.id, frame, &mut self.wbuf) {
                Ok(true) => {}
                // Shutdown honored: ShutdownOk is buffered; flush and go.
                Ok(false) => self.phase = Phase::Draining,
                // Encode failure — unanswerable; close.
                Err(_) => self.phase = Phase::Draining,
            },
            Phase::Draining => {}
        }
    }

    /// A wire-level failure (bad length prefix, undecodable body, read
    /// error): counted, answered with a typed error, connection drains.
    fn wire_error(&mut self, server: &Server, e: &WireError) {
        server
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        let _ = server.send(
            self.id,
            &mut self.wbuf,
            &Frame::Error {
                code: crate::protocol::ErrorCode::BadFrame,
                message: e.to_string(),
            },
        );
        self.phase = Phase::Draining;
    }

    /// One full service pass: flush, read, decode+handle, flush.
    // abr-lint: hot-path
    fn pump(&mut self, server: &Server, scratch: &mut [u8]) -> Pump {
        let mut progress = false;
        if self.flush(&mut progress).is_err() {
            return Pump::Dead;
        }
        let reading = !matches!(self.phase, Phase::Draining)
            && !self.saw_eof
            && self.pending_write() < WBUF_SOFT_CAP;
        if reading {
            if let Err(e) = self.fill(scratch, &mut progress) {
                self.wire_error(server, &e);
            }
        }
        self.drain_frames(server, &mut progress);
        if self.flush(&mut progress).is_err() {
            return Pump::Dead;
        }
        if matches!(self.phase, Phase::Draining) {
            return if self.pending_write() == 0 {
                Pump::Dead
            } else {
                Pump::Alive(progress)
            };
        }
        if self.saw_eof {
            // EOF mid-frame is a truncation, exactly as the blocking
            // reader classifies it; EOF at a frame boundary is clean.
            if self.rbuf.len() > self.rpos {
                self.wire_error(server, &WireError::Truncated);
                let _ = self.flush(&mut progress);
            }
            return Pump::Dead;
        }
        Pump::Alive(progress)
    }

    /// Charge one doze tick. Returns `false` when a deadline tripped and
    /// the connection should be reaped.
    fn on_doze(&mut self, server: &Server, read_slots: u64, write_slots: u64) -> bool {
        if matches!(self.phase, Phase::Draining) {
            // Already closing: only the write deadline applies.
            if self.pending_write() > 0 {
                self.write_stalled_ticks += 1;
                if self.write_stalled_ticks >= write_slots {
                    server
                        .counters
                        .connections_reaped
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
            return true;
        }
        self.idle_ticks += 1;
        if self.pending_write() > 0 {
            self.write_stalled_ticks += 1;
        }
        if self.write_stalled_ticks >= write_slots {
            server
                .counters
                .connections_reaped
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if self.idle_ticks >= read_slots {
            // Reap: count it, queue a best-effort timeout notice, drain,
            // drop.
            server
                .counters
                .connections_reaped
                .fetch_add(1, Ordering::Relaxed);
            let _ = server.send(self.id, &mut self.wbuf, &Server::reap_frame());
            self.phase = Phase::Draining;
        }
        true
    }
}

/// Per-connection deadline quantization: how many poll ticks a deadline
/// spans, `u64::MAX` when disabled.
fn slots(deadline_ms: u64, poll_ms: u64) -> u64 {
    if deadline_ms == 0 {
        u64::MAX
    } else {
        deadline_ms.div_ceil(poll_ms.max(1)).max(1)
    }
}

/// Run the reactor until a `Shutdown` frame arrives and every connection
/// drains, then return the final counter snapshot. Spawns
/// `config.threads` sweeping threads inside a scope; all are joined
/// before returning.
pub(crate) fn serve(server: Arc<Server>, listener: TcpListener) -> StatsSnapshot {
    if listener.set_nonblocking(true).is_err() {
        server
            .counters
            .sockopt_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    let conn_seq = AtomicU64::new(0);
    let threads = server.config.threads.max(1);
    let service: &Server = &server;
    thread::scope(|scope| {
        for _ in 0..threads {
            let conn_seq = &conn_seq;
            let listener = &listener;
            scope.spawn(move || reactor_thread(service, listener, conn_seq));
        }
    });
    server.stats()
}

/// One sweeping thread: accept, pump every owned connection, retire the
/// dead, doze when idle.
fn reactor_thread(server: &Server, listener: &TcpListener, conn_seq: &AtomicU64) {
    let poll_ms = server.config.poll_ms.max(1);
    let doze = Duration::from_millis(poll_ms);
    let read_slots = slots(server.config.read_deadline_ms, poll_ms);
    let write_slots = slots(server.config.write_deadline_ms, poll_ms);
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut idle_sweeps: u32 = 0;
    loop {
        let mut progress = false;
        let shutting_down = server.shutdown_requested();
        if !shutting_down {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        // Ids minted at accept from a shared sequence:
                        // a serial workload sees the same ids however many
                        // reactor threads run, keeping replay logs
                        // comparable.
                        let id = conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
                        server.counters.connections.fetch_add(1, Ordering::Relaxed);
                        let note = |r: io::Result<()>| {
                            if r.is_err() {
                                server
                                    .counters
                                    .sockopt_errors
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        };
                        note(stream.set_nodelay(true));
                        note(stream.set_nonblocking(true));
                        conns.push(Conn::new(id, stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            match conns[i].pump(server, &mut scratch) {
                Pump::Alive(p) => {
                    progress |= p;
                    i += 1;
                }
                Pump::Dead => {
                    let conn = conns.swap_remove(i);
                    server.drop_connection(conn.id);
                    progress = true;
                }
            }
        }
        if shutting_down && conns.is_empty() {
            break;
        }
        if progress {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if idle_sweeps < YIELD_SWEEPS {
            thread::yield_now();
            continue;
        }
        // Genuinely idle: doze one poll interval and charge deadline
        // ticks. The sleep is the only elapsed-time source here.
        thread::sleep(doze);
        let mut i = 0;
        while i < conns.len() {
            if conns[i].on_doze(server, read_slots, write_slots) {
                i += 1;
            } else {
                let conn = conns.swap_remove(i);
                server.drop_connection(conn.id);
            }
        }
    }
}
