//! The readiness-driven non-blocking reactor: the server's connection
//! core (see [`BoundServer::serve`](crate::server::BoundServer::serve)).
//!
//! Every serving thread owns a set of `set_nonblocking` connections and
//! **sweeps** them: for each, flush whatever response bytes are still
//! buffered, read whatever the kernel has, decode complete frames
//! incrementally out of the read buffer, hand each to the
//! `Server::handle_frame` core (which appends encoded responses to the
//! write buffer), then flush once. A wakeup that finds ten pipelined
//! `Decide` frames answers all ten with **one** read and **one** write
//! syscall — that batching, not parallelism, is where the throughput comes
//! from, and it is why one reactor thread holds 100k+ sessions over any
//! number of connections.
//!
//! When a full sweep makes no progress the thread **waits in `poll(2)`**
//! ([`sys_poll::wait`]) on the listener and on every connection it owns,
//! each with the interest it declares: [`sys_poll::READ`] while it still
//! reads (not draining, no EOF, unflushed bytes under the soft cap) and
//! [`sys_poll::WRITE`] while it has unflushed bytes. A request, a drained
//! peer, a new connection or a hang-up wakes the thread at once; the wait
//! times out after [`poll_ms`](crate::server::ServerConfig). A wait that
//! times out shows nothing is ready, so the thread skips the next sweep's
//! `accept` and reads and only checks deadlines before waiting again.
//!
//! **Deadlines.** The reactor reads no clock (lint R1). Elapsed time is
//! a shared *tick* count that the thread which called `serve` advances by
//! one every [`poll_ms`](crate::server::ServerConfig), sleeping in between
//! (a timed channel wait that also ends when the last reactor thread
//! exits). Each connection stamps the tick of its last inbound byte and
//! of the last moment its write buffer was empty or made progress; a
//! reactor thread compares those stamps with the tick count on every
//! sweep that sees it advance. A connection silent for more than
//! `read_deadline_ms / poll_ms` ticks — or unable to flush for more than
//! `write_deadline_ms / poll_ms` ticks — is **reaped**: counted, sent a
//! best-effort [`Frame::Error`] timeout notice, dropped. "More than" makes
//! the deadline a floor: a stamp may fall just before a tick, so a peer is
//! reaped between one deadline and one deadline plus two `poll_ms` (a tick
//! plus the wait that notices it) after its last byte. Because ticks come
//! from their own thread, nothing a reactor thread is woken by — a busy
//! sibling connection, a new connection on the listener all threads share,
//! a flood — holds any connection's deadline clock.
//!
//! Backpressure is per connection and write-interest-driven: while a
//! connection's unflushed responses exceed a soft cap the reactor stops
//! *reading* from it (and stops waiting for it to become readable), so a
//! peer that stops draining throttles only itself, and the moment it
//! drains its write readiness wakes the thread to flush more.
//! Shutdown follows the shared protocol: once `Shutdown` latches the flag,
//! accepting stops, every connection drains its buffered responses and
//! EOFs, and `serve` joins all threads — no wake-up dial needed: a thread
//! waiting in `poll` sees the flag within one `poll_ms`, and the tick
//! thread stops the moment the last reactor thread exits.
//!
//! Locks are never held across socket I/O or the wait in this module
//! (lint R8): all store locking happens inside `handle_frame`, which only
//! touches memory buffers.

use crate::codec::next_body;
use crate::protocol::{decode_frame, Frame, StatsSnapshot, WireError};
use crate::server::Server;
use std::convert::Infallible;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use sys_poll::PollFd;

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
    /// Tick of the last inbound byte (or of the accept).
    input_tick: u64,
    /// Tick at which the write buffer was last empty or made progress.
    output_tick: u64,
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
    fn new(id: u64, stream: TcpStream, now: u64) -> Conn {
        Conn {
            id,
            stream,
            rbuf: Vec::with_capacity(4096),
            rpos: 0,
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            phase: Phase::AwaitHello,
            input_tick: now,
            output_tick: now,
            saw_eof: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether a sweep reads from this connection: not closing, no EOF
    /// yet, and the peer is draining its responses (write-interest
    /// backpressure).
    fn reading(&self) -> bool {
        !matches!(self.phase, Phase::Draining)
            && !self.saw_eof
            && self.pending_write() < WBUF_SOFT_CAP
    }

    /// What an idle wait should wake this connection for: input while it
    /// reads, output room while responses are unflushed. Every live
    /// connection wants at least one (a draining or EOF connection with
    /// nothing to flush is already dead), and hang-ups wake it regardless.
    fn poll_fd(&self) -> PollFd {
        let mut interest = 0;
        if self.reading() {
            interest |= sys_poll::READ;
        }
        if self.pending_write() > 0 {
            interest |= sys_poll::WRITE;
        }
        PollFd::new(&self.stream, interest)
    }

    /// Push buffered response bytes into the kernel until it refuses.
    /// `Err(())` is a fatal transport error (peer reset): the connection
    /// is unusable, counters untouched — a hangup is not a protocol error.
    // abr-lint: hot-path
    fn flush(&mut self, now: u64, progress: &mut bool) -> Result<(), ()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.wpos += n;
                    self.output_tick = now;
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
            self.output_tick = now;
        }
        Ok(())
    }

    /// Read whatever the kernel has buffered. `Err(e)` is a transport
    /// error to be reported like a wire error; EOF sets `saw_eof` instead
    /// of erroring so already-buffered frames still run.
    // abr-lint: hot-path
    fn fill(&mut self, scratch: &mut [u8], now: u64, progress: &mut bool) -> Result<(), WireError> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.saw_eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.input_tick = now;
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
    /// arrived. The length prefix follows the one rule the blocking client
    /// reader ([`crate::protocol::read_frame`]) also follows, so both ends
    /// reject the same garbage with the same error text.
    fn try_decode(&mut self) -> Result<Option<(Frame, u32, u8)>, WireError> {
        let Some(body) = next_body(&self.rbuf[self.rpos..])? else {
            return Ok(None);
        };
        let ty = body[0];
        let frame = decode_frame(body)?;
        let wire_len = 4 + body.len();
        self.rpos += wire_len;
        // `next_body` bounds a body by MAX_FRAME_LEN, so this cannot truncate.
        Ok(Some((frame, wire_len as u32, ty)))
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

    /// One full service pass at tick `now`: flush, read, decode+handle,
    /// flush.
    // abr-lint: hot-path
    fn pump(&mut self, server: &Server, scratch: &mut [u8], now: u64) -> Pump {
        let mut progress = false;
        if self.flush(now, &mut progress).is_err() {
            return Pump::Dead;
        }
        if self.reading() {
            if let Err(e) = self.fill(scratch, now, &mut progress) {
                self.wire_error(server, &e);
            }
        }
        self.drain_frames(server, &mut progress);
        if self.flush(now, &mut progress).is_err() {
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
                let _ = self.flush(now, &mut progress);
            }
            return Pump::Dead;
        }
        Pump::Alive(progress)
    }

    /// Check both deadlines at tick `now`. `None`: nothing tripped.
    /// `Some(true)`: the read deadline tripped, so a timeout notice is
    /// queued and the connection drains. `Some(false)`: the write deadline
    /// tripped, so the connection cannot even take a notice and should be
    /// dropped.
    fn expire(
        &mut self,
        server: &Server,
        now: u64,
        read_slots: u64,
        write_slots: u64,
    ) -> Option<bool> {
        if self.pending_write() > 0 && now - self.output_tick > write_slots {
            server
                .counters
                .connections_reaped
                .fetch_add(1, Ordering::Relaxed);
            return Some(false);
        }
        // Already closing: only the write deadline applies.
        if matches!(self.phase, Phase::Draining) || now - self.input_tick <= read_slots {
            return None;
        }
        // Reap: count it, queue a best-effort timeout notice, drain, drop.
        server
            .counters
            .connections_reaped
            .fetch_add(1, Ordering::Relaxed);
        if self.pending_write() == 0 {
            // Empty until now: the notice gets a full write deadline.
            self.output_tick = now;
        }
        let _ = server.send(self.id, &mut self.wbuf, &Server::reap_frame());
        self.phase = Phase::Draining;
        Some(true)
    }
}

/// Per-connection deadline quantization: how many ticks a deadline spans,
/// `u64::MAX` when disabled.
fn slots(deadline_ms: u64, poll_ms: u64) -> u64 {
    if deadline_ms == 0 {
        u64::MAX
    } else {
        deadline_ms.div_ceil(poll_ms.max(1)).max(1)
    }
}

/// Run the reactor until a `Shutdown` frame arrives and every connection
/// drains, then return the final counter snapshot. Spawns
/// `config.threads` sweeping threads inside a scope and advances their
/// deadline clock from the calling thread until all of them have exited.
pub(crate) fn serve(server: Arc<Server>, listener: TcpListener) -> StatsSnapshot {
    if listener.set_nonblocking(true).is_err() {
        server
            .counters
            .sockopt_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    let conn_seq = AtomicU64::new(0);
    let clock = AtomicU64::new(0);
    let threads = server.config.threads.max(1);
    let tick = Duration::from_millis(server.config.poll_ms.max(1));
    let service: &Server = &server;
    // Nothing is ever sent: each reactor thread holds a sender, and the
    // receiver's timed wait ends early only once every one has dropped.
    let (alive, all_exited) = mpsc::channel::<Infallible>();
    thread::scope(|scope| {
        for _ in 0..threads {
            let (conn_seq, clock, listener) = (&conn_seq, &clock, &listener);
            let alive = alive.clone();
            scope.spawn(move || {
                reactor_thread(service, listener, conn_seq, clock);
                drop(alive);
            });
        }
        drop(alive);
        while let Err(RecvTimeoutError::Timeout) = all_exited.recv_timeout(tick) {
            clock.fetch_add(1, Ordering::Relaxed);
        }
    });
    server.stats()
}

/// One sweeping thread: accept, pump every owned connection, reap the
/// expired whenever the `clock` has ticked, wait in `poll` when idle and
/// skip the next sweep when that wait times out.
fn reactor_thread(
    server: &Server,
    listener: &TcpListener,
    conn_seq: &AtomicU64,
    clock: &AtomicU64,
) {
    let poll_ms = server.config.poll_ms.max(1);
    let read_slots = slots(server.config.read_deadline_ms, poll_ms);
    let write_slots = slots(server.config.write_deadline_ms, poll_ms);
    let mut conns: Vec<Conn> = Vec::new();
    // The idle wait's descriptor set: the listener plus one entry per
    // connection, refilled on every wait. It grows only on accept, so a
    // wait never allocates.
    let mut waiting: Vec<PollFd> = Vec::with_capacity(1);
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut checked = 0;
    let mut timed_out = false;
    loop {
        // After a wait that timed out nothing this thread owns is ready,
        // so accepting and pumping would only collect `WouldBlock`s.
        let sweep = !std::mem::replace(&mut timed_out, false);
        let now = clock.load(Ordering::Relaxed);
        let mut progress = false;
        let shutting_down = server.shutdown_requested();
        // A hard accept error (say, out of descriptors) leaves the
        // listener readable; it sits out the next wait so the thread
        // sleeps instead of spinning while deadlines free descriptors.
        let mut accept_failed = false;
        if sweep && !shutting_down {
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
                        conns.push(Conn::new(id, stream, now));
                        waiting.reserve((conns.len() + 1).saturating_sub(waiting.len()));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        accept_failed = true;
                        break;
                    }
                }
            }
        }
        let mut i = 0;
        while sweep && i < conns.len() {
            match conns[i].pump(server, &mut scratch, now) {
                Pump::Alive(p) => {
                    progress |= p;
                    i += 1;
                }
                Pump::Dead => {
                    let conn = conns.swap_remove(i);
                    server.store.drop_connection(conn.id);
                    progress = true;
                }
            }
        }
        if now != checked {
            checked = now;
            let mut i = 0;
            while i < conns.len() {
                match conns[i].expire(server, now, read_slots, write_slots) {
                    None => i += 1,
                    Some(notice_queued) => {
                        // A queued notice needs a sweep to flush it.
                        progress = true;
                        if notice_queued {
                            i += 1;
                        } else {
                            let conn = conns.swap_remove(i);
                            server.store.drop_connection(conn.id);
                        }
                    }
                }
            }
        }
        if shutting_down && conns.is_empty() {
            break;
        }
        if progress {
            continue;
        }
        // Idle: wait until something this thread owns is ready, or one
        // poll interval passes so a tick and the shutdown flag are seen.
        waiting.clear();
        if !shutting_down && !accept_failed {
            waiting.push(PollFd::new(listener, sys_poll::READ));
        }
        waiting.extend(conns.iter().map(Conn::poll_fd));
        match sys_poll::wait(&mut waiting, poll_ms) {
            Ok(ready) => timed_out = ready == 0,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // `poll` itself failed (it should not on descriptors we own):
            // sleep out the interval instead of spinning.
            Err(_) => thread::sleep(Duration::from_millis(poll_ms)),
        }
    }
}
