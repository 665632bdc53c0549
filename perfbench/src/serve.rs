//! The serving workloads: a real `abr-serve` reactor on loopback, driven
//! over one connection either on a paced open-loop schedule or as a
//! flood, every reply checked against the in-process decision.

use crate::inputs::{self, Template, VIDEO};
use crate::report::{Layers, Report};
use crate::spans::SpanBuf;
use crate::speed::{Probe, Speed};
use crate::stats::{self, open_loop_timing};
use crate::wire::{self, EncodedTemplate, Expect, ReplyReader};
use abr_serve::server::{DEFAULT_POLL_MS, DEFAULT_READ_DEADLINE_MS, DEFAULT_WRITE_DEADLINE_MS};
use abr_serve::store::{dataset_provider, StoreConfig, VideoProvider};
use abr_serve::{loadgen, Backend, Frame, Server, ServerConfig, StatsSnapshot, PROTOCOL_VERSION};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Held sessions on `serve-paced`: a few dozen independent players.
pub const PACED_SESSIONS: usize = 48;
/// Offered rate on `serve-paced`: one request every 2 ms, far longer than
/// the reactor's yield window, so every request finds it dozing.
pub const PACED_RATE_PER_S: f64 = 500.0;
/// Held sessions on `serve-flood`: enough per-session state that the held
/// set does not fit in the caches.
pub const FLOOD_SESSIONS: usize = 4096;
/// Decisions the flood keeps in flight. Far more than one reactor sweep
/// drains, so the reactor never finds its connection empty; bounded so
/// queueing latency does not depend on how far the kernel grows its
/// socket buffers.
pub const FLOOD_WINDOW: usize = 8192;
/// Wall time between two host-speed probes on `serve-flood`. A probe
/// (about half a millisecond) is far shorter than the in-flight window
/// takes the reactor to drain, so the reactor never idles for it.
const PROBE_EVERY: Duration = Duration::from_millis(200);
/// Traced runs record the requests of every this many sessions.
const PACED_TRACE_EVERY: u64 = 8;
const FLOOD_TRACE_EVERY: u64 = 64;
/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds at most, and one that races the reactor's doze takes up to
/// a doze longer, so many repeats keep the median steady.
pub const SETUPS: usize = 15;

/// The server configuration, spelled out so no environment variable can
/// change what is measured: the reactor backend on one thread, the
/// library's default deadlines and doze interval, and a store with room
/// for every held session.
pub fn server_config(held: usize) -> ServerConfig {
    ServerConfig {
        backend: Backend::Reactor,
        threads: 1,
        queue_depth: 64,
        read_deadline_ms: DEFAULT_READ_DEADLINE_MS,
        write_deadline_ms: DEFAULT_WRITE_DEADLINE_MS,
        poll_ms: DEFAULT_POLL_MS,
        store: StoreConfig {
            capacity: 2 * held,
            idle_ticks: 100_000,
            orphan_grace_ticks: 50_000,
            shards: 8,
        },
    }
}

/// Round-robin turns over the held sessions. Each turn sends one
/// `Decide` for the next slot; a slot whose session has used up its
/// template closes it and opens a fresh one first, which replays the
/// template from the start (a fresh session decides exactly as the
/// template's). First lives are cut short by a per-slot amount so lives
/// end on staggered turns, not all at once.
pub struct Turns<'a> {
    templates: &'a [Template],
    encoded: &'a [EncodedTemplate],
    slots: Vec<Slot>,
    next: usize,
    close: Vec<u8>,
}

#[derive(Clone, Copy)]
struct Slot {
    life: u64,
    pos: usize,
    end: usize,
}

impl<'a> Turns<'a> {
    /// Turns over one slot per template.
    pub fn new(templates: &'a [Template], encoded: &'a [EncodedTemplate]) -> Turns<'a> {
        let n = templates.len();
        let slots = templates
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let len = t.requests.len();
                Slot {
                    life: 0,
                    pos: 0,
                    end: (len - i * len / n).max(1),
                }
            })
            .collect();
        Turns {
            templates,
            encoded,
            slots,
            next: 0,
            close: wire::frame_bytes(&Frame::CloseSession { session_id: 0 }),
        }
    }

    fn id(&self, slot: usize) -> u64 {
        self.slots[slot].life * self.slots.len() as u64 + slot as u64 + 1
    }

    fn push(out: &mut Vec<u8>, frame: &[u8], id: u64) {
        let at = out.len();
        out.extend_from_slice(frame);
        wire::patch_id(&mut out[at..], id);
    }

    /// Append every slot's first `OpenSession`.
    pub fn opens(&self, out: &mut Vec<u8>, mut expect: impl FnMut(Expect, usize)) {
        for slot in 0..self.slots.len() {
            Turns::push(out, &self.encoded[slot].open, self.id(slot));
            expect(Expect::Opened(self.id(slot)), out.len());
        }
    }

    /// Append the next turn's frames; `expect` gets each frame's reply and
    /// the length of `out` after the frame.
    pub fn turn(&mut self, out: &mut Vec<u8>, mut expect: impl FnMut(Expect, usize)) {
        let s = self.next;
        self.next = (s + 1) % self.slots.len();
        let Slot { pos, end, .. } = self.slots[s];
        if pos == end {
            let old = self.id(s);
            Turns::push(out, &self.close, old);
            expect(
                Expect::Closed {
                    id: old,
                    decisions: end as u64,
                },
                out.len(),
            );
            let len = self.templates[s].requests.len();
            self.slots[s] = Slot {
                life: self.slots[s].life + 1,
                pos: 0,
                end: len,
            };
            Turns::push(out, &self.encoded[s].open, self.id(s));
            expect(Expect::Opened(self.id(s)), out.len());
        }
        let pos = self.slots[s].pos;
        Turns::push(out, self.encoded[s].decide(pos), self.id(s));
        expect(
            Expect::Decision {
                id: self.id(s),
                level: self.templates[s].levels[pos],
            },
            out.len(),
        );
        self.slots[s].pos += 1;
    }

    /// Append a `CloseSession` for every live session.
    pub fn close_all(&self, out: &mut Vec<u8>, mut expect: impl FnMut(Expect, usize)) {
        for (s, slot) in self.slots.iter().enumerate() {
            Turns::push(out, &self.close, self.id(s));
            expect(
                Expect::Closed {
                    id: self.id(s),
                    decisions: slot.pos as u64,
                },
                out.len(),
            );
        }
    }
}

/// A served fleet after set-up: the reactor running on its own thread,
/// the client connection handshaken and every held session admitted.
struct Fleet {
    addr: SocketAddr,
    conn: TcpStream,
    server: JoinHandle<StatsSnapshot>,
}

fn read_reply(conn: &mut TcpStream, reader: &mut ReplyReader) -> Result<Frame, String> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame() {
            return frame;
        }
        match conn.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => reader.push(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// Everything the program does before the first decision: bind a server
/// with a fresh video provider (the video is synthesized on the first
/// admission), start its reactor, connect, handshake and admit every held
/// session.
fn set_up(
    turns: &Turns<'_>,
    config: ServerConfig,
    provider: VideoProvider,
) -> Result<Fleet, String> {
    let bound = Server::bind("127.0.0.1:0", config, provider).map_err(|e| format!("bind: {e}"))?;
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    // Handshake and admission are pipelined in one write, as a client that
    // knows its sessions would: the replies (22 bytes per `OpenOk`) stay far
    // below the server's write-buffer cap, so the server never stops reading
    // while the client is still writing.
    let mut out = wire::frame_bytes(&Frame::Hello {
        version: PROTOCOL_VERSION,
    });
    let mut expect = Vec::new();
    turns.opens(&mut out, |e, _| expect.push(e));
    conn.write_all(&out)
        .map_err(|e| format!("admission: {e}"))?;
    let mut reader = ReplyReader::default();
    match read_reply(&mut conn, &mut reader)? {
        Frame::HelloOk { .. } => {}
        other => return Err(format!("handshake answered with {other:?}")),
    }
    for e in &expect {
        let reply = read_reply(&mut conn, &mut reader)?;
        if !e.matches(&reply) {
            return Err(format!("admission: expected {e:?}, got {reply:?}"));
        }
    }
    Ok(Fleet { addr, conn, server })
}

/// Close the client connection, shut the server down and wait for it.
fn tear_down(fleet: Fleet) -> Result<StatsSnapshot, String> {
    drop(fleet.conn);
    loadgen::shutdown_server(fleet.addr).map_err(|e| format!("shutdown: {e:?}"))?;
    fleet
        .server
        .join()
        .map_err(|_| "server thread panicked".to_string())
}

/// Set up [`SETUPS`] times, tearing down all but the last; returns the
/// last fleet and the median set-up time.
fn set_up_repeatedly(
    turns: &Turns<'_>,
    config: ServerConfig,
    mut spans: Option<&mut SpanBuf>,
) -> Result<(Fleet, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut fleet = None;
    for k in 0..SETUPS {
        if let Some(previous) = fleet.take() {
            tear_down(previous)?;
        }
        let t0 = Instant::now();
        let f = set_up(turns, config, dataset_provider())?;
        let t1 = Instant::now();
        times.push((t1 - t0).as_secs_f64());
        if let Some(s) = spans.as_mut() {
            s.record("setup", k as u64, None, t0, t1);
        }
        fleet = Some(f);
    }
    stats::sort(&mut times);
    let fleet = fleet.expect("SETUPS > 0");
    Ok((fleet, times[times.len() / 2]))
}

/// What one socket run measured.
#[derive(Default)]
struct SocketRun {
    /// Decide frames sent.
    attempted: u64,
    /// Decide frames whose reply was missing or wrong.
    failed: u64,
    /// First few mismatches, for the report.
    errors: Vec<String>,
    /// Decisions answered per second.
    throughput_per_s: f64,
    /// Per-decision latencies (ms), sorted.
    latencies_ms: Vec<f64>,
    /// Paced only: generator lateness per request (ms), sorted.
    lateness_ms: Vec<f64>,
    /// Wall time of the measured window, first send to last decision.
    wall_s: f64,
    /// Flood only: the host-speed probes its figures are scaled by. The
    /// paced loop's figures are set by the reactor's doze timer, not by
    /// CPU speed, and stay as measured.
    speed: Option<Speed>,
    reads: u64,
    replies: u64,
    writes: u64,
    bytes_written: u64,
}

impl SocketRun {
    fn check(&mut self, e: &Expect, reply: &Frame) {
        if !e.matches(reply) {
            if matches!(e, Expect::Decision { .. }) {
                self.failed += 1;
            }
            if self.errors.len() < 5 {
                self.errors.push(format!("expected {e:?}, got {reply:?}"));
            }
        }
    }
}

/// An expected reply and when its request was due and sent.
struct InFlight {
    expect: Expect,
    due: Instant,
    sent: Instant,
}

/// The paced loop's sender: one turn per due time, each expectation
/// queued for the receiver before its frames are written. Returns
/// (decisions sent, writes, bytes written); dropping `tx` on return tells
/// the receiver that nothing more is coming.
fn send_paced(
    turns: &mut Turns<'_>,
    writer: &mut TcpStream,
    tx: mpsc::Sender<InFlight>,
    start: Instant,
    n_due: u64,
) -> Result<(u64, u64, u64), String> {
    let mut out = Vec::new();
    let (mut writes, mut bytes) = (0u64, 0u64);
    let mut expected = Vec::new();
    for k in 0..n_due {
        let due = start + Duration::from_nanos(stats::due_ns(k, PACED_RATE_PER_S));
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        out.clear();
        turns.turn(&mut out, |e, _| expected.push(e));
        let sent = Instant::now();
        for expect in expected.drain(..) {
            let _ = tx.send(InFlight { expect, due, sent });
        }
        writer.write_all(&out).map_err(|e| format!("send: {e}"))?;
        writes += 1;
        bytes += out.len() as u64;
    }
    out.clear();
    turns.close_all(&mut out, |e, _| expected.push(e));
    let sent = Instant::now();
    for expect in expected.drain(..) {
        let _ = tx.send(InFlight {
            expect,
            due: sent,
            sent,
        });
    }
    writer.write_all(&out).map_err(|e| format!("close: {e}"))?;
    Ok((n_due, writes + 1, bytes + out.len() as u64))
}

/// The paced open loop: a sender thread sends one decision per due time
/// and a receiver thread times each reply from its due time.
fn run_paced(
    fleet: &mut Fleet,
    turns: &mut Turns<'_>,
    seconds: f64,
    mut spans: Option<&mut SpanBuf>,
) -> Result<SocketRun, String> {
    let mut writer = fleet.conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    let reader_conn = &mut fleet.conn;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    let n_due = (seconds * PACED_RATE_PER_S).round() as u64;
    let receiver = move || -> Result<SocketRun, String> {
        let mut run = SocketRun::default();
        let mut reader = ReplyReader::default();
        let mut buf = vec![0u8; 64 * 1024];
        let mut last_decision = start;
        let mut samples = Vec::new();
        while let Ok(flight) = rx.recv() {
            let reply = loop {
                if let Some(frame) = reader.next_frame() {
                    break frame?;
                }
                match reader_conn.read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        run.reads += 1;
                        reader.push(&buf[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            };
            let now = Instant::now();
            run.replies += 1;
            run.check(&flight.expect, &reply);
            if let Expect::Decision { id, .. } = flight.expect {
                last_decision = now;
                samples.push((flight.due, flight.sent, now, id));
            }
        }
        run.wall_s = (last_decision - start).as_secs_f64();
        for (due, sent, replied, _) in &samples {
            let ns = |t: &Instant| (*t - start).as_nanos() as u64;
            let t = open_loop_timing(ns(due), ns(sent), ns(replied));
            run.latencies_ms.push(t.latency_ns as f64 / 1e6);
            run.lateness_ms.push(t.lateness_ns as f64 / 1e6);
        }
        if let Some(s) = spans.as_mut() {
            for (due, sent, replied, id) in &samples {
                if id.is_multiple_of(PACED_TRACE_EVERY) {
                    let root = s.record("serve.request", *id, None, *due, *replied);
                    s.record("gen.late", *id, Some(root), *due, *sent);
                }
            }
        }
        Ok(run)
    };
    let (sent, received) = thread::scope(|scope| {
        let receiver = scope.spawn(receiver);
        (
            send_paced(turns, &mut writer, tx, start, n_due),
            receiver.join(),
        )
    });
    let (attempted, writes, bytes) = sent?;
    let mut run = received.map_err(|_| "receiver panicked".to_string())??;
    run.attempted = attempted;
    run.writes = writes;
    run.bytes_written = bytes;
    run.throughput_per_s = attempted as f64 / run.wall_s.max(1e-9);
    Ok(run)
}

/// The flood: one nonblocking thread writes decisions as fast as the
/// socket takes them (up to [`FLOOD_WINDOW`] in flight) and reads the
/// replies in between.
fn run_flood(
    fleet: &mut Fleet,
    turns: &mut Turns<'_>,
    seconds: f64,
    mut spans: Option<&mut SpanBuf>,
) -> Result<SocketRun, String> {
    let conn = &mut fleet.conn;
    conn.set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let mut run = SocketRun::default();
    // Expected replies in send order, with the stream offset at which each
    // frame's last byte is written and the instant that write returned.
    let mut flight: VecDeque<(Expect, u64, Option<Instant>)> = VecDeque::new();
    let mut unsent = 0usize; // index in `flight` of the first unsent frame
    let mut in_flight_decisions = 0usize;
    let (mut out, mut wpos) = (Vec::<u8>::with_capacity(1 << 17), 0usize);
    let mut written: u64 = 0; // bytes written so far; `out[wpos]` is byte `written`
    let mut reader = ReplyReader::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut speed = Speed::new(Probe::Mixed);
    let mut slowdown = speed.slowdown();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut generating = true;
    let mut closing = false;
    let mut last_decision = start;
    // Wall time is scaled to reference speed interval by interval: each
    // interval between probes by the slowdown measured at its end.
    let mut mark = start;
    let mut scaled_s = 0.0;
    loop {
        let now = Instant::now();
        if now - mark >= PROBE_EVERY {
            speed.probe();
            slowdown = speed.slowdown();
            scaled_s += (now - mark).as_secs_f64() / slowdown;
            mark = now;
        }
        if generating {
            if now >= stop {
                generating = false;
            } else {
                let base = written - wpos as u64;
                while in_flight_decisions < FLOOD_WINDOW && out.len() - wpos < 1 << 16 {
                    turns.turn(&mut out, |e, end| {
                        flight.push_back((e, base + end as u64, None));
                        if matches!(e, Expect::Decision { .. }) {
                            in_flight_decisions += 1;
                            run.attempted += 1;
                        }
                    });
                }
            }
        }
        if !generating && !closing && in_flight_decisions == 0 {
            closing = true;
            let base = written - wpos as u64;
            turns.close_all(&mut out, |e, end| {
                flight.push_back((e, base + end as u64, None))
            });
        }
        let mut progress = false;
        if wpos < out.len() {
            match conn.write(&out[wpos..]) {
                Ok(n) => {
                    let now = Instant::now();
                    progress = true;
                    wpos += n;
                    written += n as u64;
                    run.writes += 1;
                    run.bytes_written += n as u64;
                    while unsent < flight.len() && flight[unsent].1 <= written {
                        flight[unsent].2 = Some(now);
                        unsent += 1;
                    }
                    if wpos == out.len() {
                        out.clear();
                        wpos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        match conn.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let now = Instant::now();
                progress = true;
                run.reads += 1;
                reader.push(&buf[..n]);
                while let Some(reply) = reader.next_frame() {
                    let reply = reply?;
                    let Some((expect, _, sent)) = flight.pop_front() else {
                        return Err(format!("unexpected reply {reply:?}"));
                    };
                    unsent = unsent.saturating_sub(1);
                    run.replies += 1;
                    run.check(&expect, &reply);
                    if let Expect::Decision { id, .. } = expect {
                        in_flight_decisions -= 1;
                        last_decision = now;
                        let sent = sent.unwrap_or(now);
                        run.latencies_ms
                            .push((now - sent).as_secs_f64() * 1e3 / slowdown);
                        if let Some(s) = spans.as_mut() {
                            if id.is_multiple_of(FLOOD_TRACE_EVERY) {
                                s.record("serve.request", id, None, sent, now);
                            }
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        if closing && flight.is_empty() {
            break;
        }
        if !progress {
            thread::yield_now();
        }
    }
    conn.set_nonblocking(false)
        .map_err(|e| format!("blocking: {e}"))?;
    run.wall_s = (last_decision - start).as_secs_f64();
    if last_decision > mark {
        scaled_s += (last_decision - mark).as_secs_f64() / slowdown;
    }
    run.throughput_per_s = run.attempted as f64 / scaled_s;
    run.speed = Some(speed);
    Ok(run)
}

/// Check the server's own counters against what the client saw.
fn check_counters(stats: &StatsSnapshot, decisions: u64, errors: &mut Vec<String>) {
    let mut require = |ok: bool, what: String| {
        if !ok {
            errors.push(what);
        }
    };
    require(
        stats.decisions == decisions,
        format!(
            "server counted {} decisions, client got {decisions}",
            stats.decisions
        ),
    );
    for (name, value) in [
        ("protocol_errors", stats.protocol_errors),
        ("degraded_decisions", stats.degraded_decisions),
        ("degraded_opens", stats.degraded_opens),
        ("sessions_aborted", stats.sessions_aborted),
        ("sessions_evicted", stats.sessions_evicted),
        ("connections_reaped", stats.connections_reaped),
    ] {
        require(
            value == 0,
            format!("server counter {name} = {value}, expected 0"),
        );
    }
}

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve-paced`.
    Paced,
    /// `serve-flood`.
    Flood,
}

/// One measured pass: set up, drive, tear down, check.
struct Pass {
    setup_s: f64,
    run: SocketRun,
    stats: StatsSnapshot,
}

fn pass(
    mode: Mode,
    templates: &[Template],
    encoded: &[EncodedTemplate],
    seconds: f64,
    mut spans: Option<&mut SpanBuf>,
) -> Result<Pass, String> {
    let config = server_config(templates.len());
    let mut turns = Turns::new(templates, encoded);
    let (mut fleet, setup_s) = set_up_repeatedly(&turns, config, spans.as_deref_mut())?;
    let mut run = match mode {
        Mode::Paced => run_paced(&mut fleet, &mut turns, seconds, spans)?,
        Mode::Flood => run_flood(&mut fleet, &mut turns, seconds, spans)?,
    };
    let stats = tear_down(fleet)?;
    check_counters(&stats, run.attempted, &mut run.errors);
    stats::sort(&mut run.latencies_ms);
    stats::sort(&mut run.lateness_ms);
    Ok(Pass {
        setup_s,
        run,
        stats,
    })
}

/// Run `serve-paced` or `serve-flood`.
pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let held = match mode {
        Mode::Paced => PACED_SESSIONS,
        Mode::Flood => FLOOD_SESSIONS,
    };
    let mut spans = trace.then(SpanBuf::new);
    // Input generation: not part of any metric but the traced layers.
    let t0 = Instant::now();
    let handle = inputs::video_handle();
    let t1 = Instant::now();
    if let Some(s) = spans.as_mut() {
        s.record("video.synth", 0, None, t0, t1);
    }
    let templates = inputs::serve_templates(seed, held, &handle, spans.as_mut())?;
    let encoded: Vec<EncodedTemplate> = templates.iter().map(EncodedTemplate::new).collect();
    let config = server_config(held);
    let prebuilt = handle.clone();
    let provider: VideoProvider =
        Arc::new(move |name: &str| (name == VIDEO).then(|| prebuilt.clone()));
    let cost = wire::replay(&templates, &encoded, provider, config.store, spans.as_mut())?;

    let untraced = pass(mode, &templates, &encoded, seconds, None)?;
    let mut report = Report::new();
    report.note(format!("config: {config:?}"));
    report.note(format!(
        "inputs: seed {seed}, video {VIDEO}, {held} held sessions over {} requests ({}), \
         offered load {}",
        templates.iter().map(|t| t.requests.len()).sum::<usize>(),
        inputs::SERVE_SCHEMES.join("/"),
        match mode {
            Mode::Paced => format!("{PACED_RATE_PER_S}/s open loop on 1 connection"),
            Mode::Flood => format!("flood on 1 connection, {FLOOD_WINDOW} decisions in flight"),
        }
    ));
    let run = &untraced.run;
    let lat = &run.latencies_ms;
    report.note(format!(
        "decisions: {} in {:.3} s, latency p50 {:?} p90 {:?} p99 {:?} ms over {} samples{}",
        run.attempted,
        run.wall_s,
        stats::percentile(lat, 50.0),
        stats::percentile(lat, 90.0),
        stats::percentile(lat, 99.0),
        lat.len(),
        match mode {
            Mode::Paced => " (from due time)",
            Mode::Flood => " (from send)",
        }
    ));
    if mode == Mode::Paced {
        let late = &run.lateness_ms;
        report.note(format!(
            "generator lateness: p50 {:?} p99 {:?} max {:?} ms",
            stats::percentile(late, 50.0),
            stats::percentile(late, 99.0),
            late.last()
        ));
    }
    if let Some(speed) = &run.speed {
        report.note(format!(
            "{}; raw {:.0} decisions/s; throughput and latencies below are at reference speed",
            speed.describe(),
            run.attempted as f64 / run.wall_s
        ));
    }
    report.attempted = run.attempted;
    report.failed = run.failed;
    if let Some(first) = &cost.first_mismatch {
        report
            .errors
            .push(format!("{first} ({} decisions in all)", cost.mismatches));
    }
    report.errors.extend(run.errors.iter().cloned());
    report.setup_s = untraced.setup_s;
    report.throughput_per_s = run.throughput_per_s;
    report.set_latency(lat)?;

    if let Some(mut spans) = spans {
        let traced = pass(mode, &templates, &encoded, seconds, Some(&mut spans))?;
        let mut layers = Layers::default();
        layers.add_spans(&spans);
        layers.wire(&cost);
        layers.socket(
            traced.run.wall_s,
            traced.run.attempted,
            cost.frame_ns_per_decision(),
            (traced.run.replies, traced.run.reads),
            (traced.run.bytes_written, traced.run.writes),
            &traced.stats,
        );
        if mode == Mode::Paced {
            layers.paced(&traced.run.latencies_ms, &traced.run.lateness_ms);
        }
        report.traced(
            layers,
            &traced.run.latencies_ms,
            traced.run.throughput_per_s,
            spans,
        );
    }
    Ok(report)
}
