//! Deterministic record/replay of serving runs.
//!
//! Every serve/chaos/soak run can record a **versioned, length-prefixed
//! event log**: frames in and out of the server, session-store transitions
//! (admit / decide / close / orphan / resume / evict / reap / abort),
//! client-side fault injections, and the logical tick each event happened
//! on. The log is the run: feeding it back through a [`ReplayPlayer`]
//! re-executes every recorded decision tick-for-tick against freshly built
//! algorithm instances, through the store's own per-session decision step
//! (`store::SessionState::decide`), and checks the answers bit-for-bit, so
//! any one-in-a-thousand chaos divergence becomes a replayable regression
//! fixture instead of an anecdote. The golden fixture under
//! `tests/fixtures/` is one such log, kept as the oracle for the store
//! and this player.
//!
//! The wire format mirrors [`crate::protocol`] deliberately: records are
//! `[u32 length][u8 event-type][u64 tick][payload]`, all integers
//! little-endian, floats as IEEE-754 bit patterns, preceded by a 5-byte
//! file header (magic `CAVR` + version byte). The record types are
//! declared once, in the [`Event`] table below; the enum, the encoder and
//! the decoder are generated from it with the same field codecs and the
//! same length-prefix rule as the wire protocol (see `codec.rs`), and
//! `tests/codec_pins.rs` pins every record's bytes. Decoding is **total**: any
//! byte sequence either decodes or yields a typed [`ReplayError`], and a
//! log cut off mid-record (a crashed run) still decodes to its intact
//! prefix with [`EventLog::truncated`] set. The normative spec, field
//! layouts included, lives in `docs/REPLAY.md`.
//!
//! Time travel: [`ReplayPlayer::step_forward`] applies events up to a
//! target tick, [`ReplayPlayer::seek_to_tick`] rebuilds from the initial
//! state and steps forward (so seeking is always equivalent to stepping —
//! there is no incremental rewind to get subtly wrong), and [`diff_logs`]
//! names the first event at which two logs diverge.
//!
//! Determinism note: the [`Recorder`] assigns each event a globally
//! ordered logical tick under one lock, so the recorded order **is** the
//! canonical order of the run. Per-session decision order is exact
//! (decisions on one session serialize under the session lock); the
//! interleaving *between* sessions is whatever the scheduler produced, and
//! replay follows the recorded interleaving rather than re-racing it.

use crate::codec::{next_body, put_prefixed, wire_enum, Cur, Wire};
use crate::lock;
use crate::protocol::{WireError, MAX_FRAME_LEN};
use crate::scheme;
use crate::store::{SessionState, VideoProvider};
use abr_sim::{DecisionRequest, DecisionResponse};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Environment variable naming a default record path: `cava serve` (and
/// `cava loadgen`) record to it when `--record` is not given. Empty or
/// unset disables recording.
pub const RECORD_ENV: &str = "ABR_SERVE_RECORD";

/// The [`RECORD_ENV`] record path, if the variable is set and non-empty.
pub fn record_path_from_env() -> Option<String> {
    std::env::var(RECORD_ENV).ok().filter(|v| !v.is_empty())
}

/// File magic: the first four bytes of every replay log.
pub const REPLAY_MAGIC: [u8; 4] = *b"CAVR";

/// Event-log format version written by this build (one byte, fifth in the
/// file). Decoders reject versions they do not speak. Version 2 added the
/// population-workload records `SessionAbandon` (0x0E) and `Seek` (0x0F);
/// see docs/REPLAY.md §7.
pub const REPLAY_VERSION: u8 = 2;

/// Hard ceiling on a record's length prefix, shared with the wire
/// protocol's [`MAX_FRAME_LEN`]: every legitimate event is small (strings
/// are `u16`-capped), so anything larger is corruption and is rejected
/// before allocation.
pub const MAX_EVENT_LEN: u32 = MAX_FRAME_LEN;

wire_enum! {
    /// One recorded event, and the one declaration of the record format:
    /// each row's `0xNN` is its event-type byte, and its fields travel in
    /// row order (little-endian, after the tick). `docs/REPLAY.md` is the
    /// normative spec; lint R10 checks its record-type table against the
    /// rows here, both ways.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// Run preamble: what produced this log.
        RunMeta = 0x01 {
            /// Free-form run label (experiment name, CLI invocation, …).
            label: String,
            /// The run's primary seed (0 when the run had none).
            seed: u64,
        },
        /// The store admitted a session ([`crate::store::SessionStore::open`]).
        SessionOpened = 0x02 {
            /// Connection that opened the session.
            conn: u64,
            /// The session id.
            session_id: u64,
            /// Dataset video name the session is bound to.
            video: String,
            /// Scheme wire name ([`crate::scheme::SchemeKind::wire`]).
            scheme: String,
            /// VMAF device model code (0 = TV, 1 = phone).
            vmaf_model: u8,
            /// True when admitted in stateless graceful-degradation mode.
            degraded: bool,
            /// Track count of the bound manifest.
            n_tracks: u32,
            /// Chunk count of the bound manifest.
            n_chunks: u32,
        },
        /// The store served a decision — the replayable heart of the log.
        Decision = 0x03 {
            /// The session that decided.
            session_id: u64,
            /// True when the answer came from the retransmission cache (a
            /// client retry after a dead connection); replay verifies the
            /// cache instead of advancing algorithm state.
            retransmit: bool,
            /// The request exactly as applied.
            request: DecisionRequest,
            /// The response exactly as served.
            response: DecisionResponse,
        },
        /// A session closed cleanly ([`crate::store::SessionStore::close`]).
        SessionClosed = 0x04 {
            /// The session id.
            session_id: u64,
            /// Lifetime decision count reported at close.
            decisions: u64,
        },
        /// A connection died and parked this session ownerless.
        SessionOrphaned = 0x05 {
            /// The session id.
            session_id: u64,
            /// The connection that died.
            conn: u64,
        },
        /// An orphaned session was re-attached by `ResumeSession`.
        SessionResumed = 0x06 {
            /// The session id.
            session_id: u64,
            /// The connection that adopted it.
            conn: u64,
            /// Decisions served before the reconnect.
            decisions: u64,
        },
        /// An idle session was evicted under capacity pressure.
        SessionEvicted = 0x07 {
            /// The session id.
            session_id: u64,
        },
        /// An orphan's grace window lapsed (or its slot was reclaimed under
        /// pressure) and it was reaped.
        OrphanReaped = 0x08 {
            /// The session id.
            session_id: u64,
        },
        /// A connection died with orphaning disabled; its session was removed
        /// outright.
        SessionAborted = 0x09 {
            /// The session id.
            session_id: u64,
            /// The connection that died.
            conn: u64,
        },
        /// The server decoded one frame from a client.
        FrameIn = 0x0A {
            /// Receiving connection.
            conn: u64,
            /// The frame's wire type byte.
            frame_type: u8,
            /// Full wire length, length prefix included.
            wire_len: u32,
        },
        /// The server wrote one frame to a client.
        FrameOut = 0x0B {
            /// Sending connection.
            conn: u64,
            /// The frame's wire type byte.
            frame_type: u8,
            /// Full wire length, length prefix included.
            wire_len: u32,
        },
        /// The load generator injected a fault before a send.
        FaultInjected = 0x0C {
            /// Client connection index (loadgen-side, 0-based).
            conn_index: u64,
            /// Fault kind: 0 = mid-frame stall, 1 = truncated write,
            /// 2 = connection reset.
            kind: u8,
            /// The connection's send counter when the fault fired.
            send_seq: u64,
        },
        /// Clean end-of-run marker; a log without one was cut off mid-run.
        RunEnd = 0x0D {
            /// Events recorded before this one.
            events: u64,
        },
        /// A population-mode viewer abandoned its session mid-stream (the
        /// client walked away; the session still closes normally afterward).
        SessionAbandon = 0x0E {
            /// The session id.
            session_id: u64,
            /// Wall time watched before abandoning, seconds.
            watched_s: f64,
            /// Chunks downloaded before abandoning.
            chunks: u64,
        },
        /// A population-mode viewer seeked: buffer flushed, playhead jumped.
        Seek = 0x0F {
            /// The session id.
            session_id: u64,
            /// Target chunk index of the seek.
            to_chunk: u64,
            /// Wall time (session-relative) at which the seek fired, seconds.
            at_s: f64,
        },
    }
}

/// An [`Event`] plus the logical tick the recorder stamped it with.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    /// Logical tick (1-based, globally ordered within the run).
    pub tick: u64,
    /// The event.
    pub event: Event,
}

/// Typed decode failure. Mirrors [`WireError`]'s taxonomy: corruption
/// *inside* a record is an error, a log that simply stops mid-record is
/// not (see [`EventLog::truncated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The first four bytes are not [`REPLAY_MAGIC`].
    BadMagic,
    /// Version byte this build does not speak.
    UnsupportedVersion(u8),
    /// A record's length prefix was zero or above [`MAX_EVENT_LEN`].
    Oversized {
        /// Index of the offending record.
        index: usize,
        /// The declared length.
        len: u32,
    },
    /// Event-type byte outside the format.
    UnknownEventType {
        /// Index of the offending record.
        index: usize,
        /// The unknown type byte.
        ty: u8,
    },
    /// A record body failed to decode (short payload, bad tag, …).
    BadRecord {
        /// Index of the offending record.
        index: usize,
        /// What the field decoder rejected.
        what: &'static str,
    },
    /// A record body decoded but bytes were left over.
    Trailing {
        /// Index of the offending record.
        index: usize,
        /// Undecoded byte count.
        extra: usize,
    },
    /// Encode-side: the event would need a record longer than
    /// [`MAX_EVENT_LEN`].
    TooLong {
        /// Body length the record would have needed.
        len: usize,
    },
    /// Transport-level I/O failure reading the log.
    Io(io::ErrorKind),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadMagic => write!(f, "not a replay log (bad magic)"),
            ReplayError::UnsupportedVersion(v) => {
                write!(f, "log version {v} (this build speaks {REPLAY_VERSION})")
            }
            ReplayError::Oversized { index, len } => {
                write!(
                    f,
                    "record {index}: length prefix {len} outside 1..={MAX_EVENT_LEN}"
                )
            }
            ReplayError::UnknownEventType { index, ty } => {
                write!(f, "record {index}: unknown event type 0x{ty:02X}")
            }
            ReplayError::BadRecord { index, what } => {
                write!(f, "record {index}: bad payload: {what}")
            }
            ReplayError::Trailing { index, extra } => {
                write!(f, "record {index}: {extra} trailing bytes after event")
            }
            ReplayError::TooLong { len } => {
                write!(
                    f,
                    "event body {len} bytes exceeds MAX_EVENT_LEN {MAX_EVENT_LEN}"
                )
            }
            ReplayError::Io(kind) => write!(f, "io error: {kind}"),
        }
    }
}

impl std::error::Error for ReplayError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode one record to its full form: `[u32 len][u8 type][u64 tick]
/// [payload]`. The length covers everything after the prefix.
pub fn encode_event(tick: u64, event: &Event) -> Result<Vec<u8>, ReplayError> {
    let mut wire = Vec::with_capacity(64);
    put_prefixed(&mut wire, |out| {
        tick.put(out);
        event.put_fields(out)
    })
    .map_err(|len| ReplayError::TooLong { len })?;
    Ok(wire)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A fully decoded log: header facts plus every intact record.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// The file's version byte.
    pub version: u8,
    /// The decoded records, in recorded order.
    pub events: Vec<Recorded>,
    /// True when the byte stream stopped mid-record: the run crashed or
    /// the file was cut. The intact prefix above is still valid.
    pub truncated: bool,
}

impl EventLog {
    /// Number of decoded records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Tick of the last record (0 for an empty log).
    pub fn last_tick(&self) -> u64 {
        self.events.last().map_or(0, |r| r.tick)
    }

    /// Whether the log closes with a [`Event::RunEnd`] marker (a run that
    /// finished and flushed, as opposed to one that died mid-flight).
    pub fn ended(&self) -> bool {
        matches!(
            self.events.last(),
            Some(Recorded {
                event: Event::RunEnd { .. },
                ..
            })
        )
    }
}

/// Place a field-codec failure at record `index`.
fn record_error(index: usize, e: WireError) -> ReplayError {
    match e {
        WireError::Oversized { len } => ReplayError::Oversized { index, len },
        WireError::UnknownFrameType(ty) => ReplayError::UnknownEventType { index, ty },
        WireError::Trailing { extra } => ReplayError::Trailing { index, extra },
        WireError::BadPayload(what) => ReplayError::BadRecord { index, what },
        _ => ReplayError::BadRecord {
            index,
            what: "malformed field",
        },
    }
}

fn decode_record(body: &[u8]) -> Result<Recorded, WireError> {
    let mut cur = Cur::new(body);
    let ty = u8::get(&mut cur)?;
    let tick = u64::get(&mut cur)?;
    let event = Event::get_fields(ty, &mut cur)?.ok_or(WireError::UnknownFrameType(ty))?;
    cur.all_read()?;
    Ok(Recorded { tick, event })
}

/// Decode a whole log from bytes. Total: corruption inside a record is a
/// typed error; a byte stream that simply *stops* mid-record (crashed run,
/// torn copy) yields the intact prefix with [`EventLog::truncated`] set.
pub fn decode_log(bytes: &[u8]) -> Result<EventLog, ReplayError> {
    if bytes.len() < 4 || bytes[..4] != REPLAY_MAGIC {
        return Err(ReplayError::BadMagic);
    }
    let Some(&version) = bytes.get(4) else {
        // Magic intact but the version byte never made it: a truncated
        // header is an empty truncated log, not corruption.
        return Ok(EventLog {
            version: REPLAY_VERSION,
            events: Vec::new(),
            truncated: true,
        });
    };
    if version != REPLAY_VERSION {
        return Err(ReplayError::UnsupportedVersion(version));
    }
    let mut events = Vec::new();
    let mut rest = &bytes[5..];
    let mut truncated = false;
    while !rest.is_empty() {
        let index = events.len();
        let Some(body) = next_body(rest).map_err(|e| record_error(index, e))? else {
            truncated = true;
            break;
        };
        events.push(decode_record(body).map_err(|e| record_error(index, e))?);
        rest = &rest[4 + body.len()..];
    }
    Ok(EventLog {
        version,
        events,
        truncated,
    })
}

/// Read and decode a log file.
pub fn read_log(path: &Path) -> Result<EventLog, ReplayError> {
    let bytes = std::fs::read(path).map_err(|e| ReplayError::Io(e.kind()))?;
    decode_log(&bytes)
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

struct RecorderInner {
    sink: Box<dyn Write + Send>,
    tick: u64,
    events: u64,
    error: Option<io::ErrorKind>,
}

/// Thread-safe event recorder. One global lock assigns ticks and writes
/// records, so the recorded order is the canonical order of the run; the
/// lock is a leaf (nothing else is acquired under it). Write failures are
/// remembered ([`Recorder::io_error`]) rather than panicking mid-serve —
/// recording must never take the service down.
pub struct Recorder {
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// Wrap a sink, writing the 5-byte file header immediately.
    pub fn new(mut sink: Box<dyn Write + Send>) -> io::Result<Recorder> {
        sink.write_all(&REPLAY_MAGIC)?;
        sink.write_all(&[REPLAY_VERSION])?;
        Ok(Recorder {
            inner: Mutex::new(RecorderInner {
                sink,
                tick: 0,
                events: 0,
                error: None,
            }),
        })
    }

    /// Record to a freshly created (buffered) file.
    pub fn to_file(path: &Path) -> io::Result<Recorder> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Recorder::new(Box::new(io::BufWriter::new(file)))
    }

    /// Append one event, assigning and returning its logical tick.
    pub fn record(&self, event: &Event) -> u64 {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        inner.events += 1;
        let tick = inner.tick;
        match encode_event(tick, event) {
            Ok(bytes) => {
                if let Err(e) = inner.sink.write_all(&bytes) {
                    if inner.error.is_none() {
                        inner.error = Some(e.kind());
                    }
                }
            }
            Err(_) => {
                if inner.error.is_none() {
                    inner.error = Some(io::ErrorKind::InvalidData);
                }
            }
        }
        tick
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        lock(&self.inner).events
    }

    /// The first write failure, if any occurred.
    pub fn io_error(&self) -> Option<io::ErrorKind> {
        lock(&self.inner).error
    }

    /// Append the [`Event::RunEnd`] marker, flush the sink, and return the
    /// total event count (marker included). Errors report the first write
    /// failure of the whole run, not just the flush.
    pub fn finish(&self) -> io::Result<u64> {
        let events = self.events();
        self.record(&Event::RunEnd { events });
        let mut inner = lock(&self.inner);
        let flush = inner.sink.flush();
        if let Some(kind) = inner.error {
            return Err(io::Error::from(kind));
        }
        flush?;
        Ok(inner.events)
    }
}

/// An in-memory [`Recorder`] sink (tests, diff-against-live): cloneable,
/// contents retrievable while the recorder still holds the writer half.
#[derive(Clone, Default)]
pub struct MemoryLog {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemoryLog {
    /// A fresh, empty buffer.
    pub fn new() -> MemoryLog {
        MemoryLog::default()
    }

    /// Snapshot the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        lock(&self.buf).clone()
    }
}

impl Write for MemoryLog {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        lock(&self.buf).extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// A point where replay disagreed with the recording — the bug fixture a
/// chaos run pays out.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the divergent event in [`EventLog::events`].
    pub index: usize,
    /// Its logical tick.
    pub tick: u64,
    /// The session involved (0 when none applies).
    pub session_id: u64,
    /// Human-readable account of recorded vs replayed.
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event {} (tick {}, session {}): {}",
            self.index, self.tick, self.session_id, self.what
        )
    }
}

/// Replay-visible progress counters (see [`ReplayPlayer::summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Records in the log.
    pub events: usize,
    /// Records applied so far.
    pub applied: usize,
    /// The player's current logical tick.
    pub current_tick: u64,
    /// Decisions re-executed (cache-answered retransmits excluded).
    pub decisions: u64,
    /// Decisions the replayed retransmission cache answered.
    pub retransmits: u64,
    /// Fault injections seen.
    pub faults: u64,
    /// Session abandonments seen (population workloads).
    pub abandons: u64,
    /// Mid-session seeks seen (population workloads).
    pub seeks: u64,
    /// Server-side frames in.
    pub frames_in: u64,
    /// Server-side frames out.
    pub frames_out: u64,
    /// Sessions live at the current tick.
    pub open_sessions: usize,
    /// Divergences found so far.
    pub divergences: usize,
}

/// Re-executes a recorded run tick-for-tick.
///
/// The player replays at the **decision level** with the store's own
/// session core: `SessionOpened` builds a fresh `SessionState` (its
/// algorithm from the same [`scheme::SchemeKind`] catalog the store used,
/// none for a degraded admission), and every recorded `Decision` runs
/// through `SessionState::decide`, the very step
/// [`crate::store::SessionStore::decide`] takes. The returned level,
/// degraded flag and retransmit flag must equal the recorded ones bit for
/// bit, so a retransmit is checked against the replayed cache and a fresh
/// request that repeats the last applied one is a divergence. Store
/// bookkeeping events (orphan/resume/evict/…) drive session lifetime;
/// frame and fault events are verified counters.
///
/// Movement API (after the exemplar players this module cites in
/// ROADMAP/PAPERS): [`ReplayPlayer::step_forward`] advances a number of
/// ticks, applying every event stamped inside the window;
/// [`ReplayPlayer::seek_to_tick`] rebuilds from the initial state and
/// steps forward to the target, which makes seeking *definitionally*
/// consistent with stepping.
pub struct ReplayPlayer {
    log: EventLog,
    provider: VideoProvider,
    sessions: BTreeMap<u64, SessionState>,
    /// Sessions whose open could not be replayed (unknown video/scheme in
    /// this environment); their decisions are skipped after the one
    /// divergence recorded at open.
    lost: BTreeSet<u64>,
    cursor: usize,
    current_tick: u64,
    decisions: u64,
    retransmits: u64,
    faults: u64,
    abandons: u64,
    seeks: u64,
    frames_in: u64,
    frames_out: u64,
    divergences: Vec<Divergence>,
}

impl ReplayPlayer {
    /// Wrap a decoded log. `provider` resolves video names exactly like
    /// the recording server's provider did.
    pub fn new(log: EventLog, provider: VideoProvider) -> ReplayPlayer {
        ReplayPlayer {
            log,
            provider,
            sessions: BTreeMap::new(),
            lost: BTreeSet::new(),
            cursor: 0,
            current_tick: 0,
            decisions: 0,
            retransmits: 0,
            faults: 0,
            abandons: 0,
            seeks: 0,
            frames_in: 0,
            frames_out: 0,
            divergences: Vec::new(),
        }
    }

    /// The underlying log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The player's current logical tick.
    pub fn current_tick(&self) -> u64 {
        self.current_tick
    }

    /// Divergences found so far, in event order.
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }

    /// The first divergence, if any — what `cava replay` reports.
    pub fn first_divergence(&self) -> Option<&Divergence> {
        self.divergences.first()
    }

    /// Reset to the initial state (before any event).
    pub fn reset(&mut self) {
        self.sessions.clear();
        self.lost.clear();
        self.cursor = 0;
        self.current_tick = 0;
        self.decisions = 0;
        self.retransmits = 0;
        self.faults = 0;
        self.abandons = 0;
        self.seeks = 0;
        self.frames_in = 0;
        self.frames_out = 0;
        self.divergences.clear();
    }

    /// Advance `ticks` logical ticks, applying every event stamped at or
    /// before the resulting tick. Returns the number of events applied.
    pub fn step_forward(&mut self, ticks: u64) -> usize {
        let target = self.current_tick.saturating_add(ticks);
        let mut applied = 0;
        while self.cursor < self.log.events.len() && self.log.events[self.cursor].tick <= target {
            self.apply(self.cursor);
            self.cursor += 1;
            applied += 1;
        }
        self.current_tick = target;
        applied
    }

    /// Jump to `tick` by rebuilding from the initial state and stepping
    /// forward — byte-identical to having stepped there one tick at a
    /// time. Returns the number of events applied.
    pub fn seek_to_tick(&mut self, tick: u64) -> usize {
        self.reset();
        self.step_forward(tick)
    }

    /// Apply every remaining event. Returns the number applied.
    pub fn run_to_end(&mut self) -> usize {
        let last = self.log.last_tick();
        let ticks = last.saturating_sub(self.current_tick);
        self.step_forward(ticks)
    }

    /// Progress counters at the current tick.
    pub fn summary(&self) -> ReplaySummary {
        ReplaySummary {
            events: self.log.events.len(),
            applied: self.cursor,
            current_tick: self.current_tick,
            decisions: self.decisions,
            retransmits: self.retransmits,
            faults: self.faults,
            abandons: self.abandons,
            seeks: self.seeks,
            frames_in: self.frames_in,
            frames_out: self.frames_out,
            open_sessions: self.sessions.len(),
            divergences: self.divergences.len(),
        }
    }

    /// An order-sensitive digest of all replay-visible state at the
    /// current tick: counters, live sessions, their histories and caches
    /// (floats by bit pattern). Two players that agree here have applied
    /// the same events to the same effect — the `seek == step` oracle.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.mix(self.cursor as u64);
        h.mix(self.decisions);
        h.mix(self.retransmits);
        h.mix(self.faults);
        h.mix(self.abandons);
        h.mix(self.seeks);
        h.mix(self.frames_in);
        h.mix(self.frames_out);
        h.mix(self.divergences.len() as u64);
        for (id, sess) in &self.sessions {
            h.mix(*id);
            h.mix(sess.decisions);
            h.mix(u64::from(sess.algo.is_some()));
            h.mix(sess.history.len() as u64);
            for tp in &sess.history {
                h.mix(tp.to_bits());
            }
            match &sess.last_response {
                None => h.mix(u64::MAX),
                Some(r) => {
                    h.mix(r.level as u64);
                    h.mix(u64::from(r.degraded));
                }
            }
            match &sess.last_request {
                None => h.mix(u64::MAX),
                Some(r) => {
                    h.mix(r.chunk_index as u64);
                    h.mix(r.buffer_s.to_bits());
                    h.mix(r.wall_time_s.to_bits());
                }
            }
        }
        h.finish()
    }

    fn diverge(&mut self, index: usize, tick: u64, session_id: u64, what: String) {
        self.divergences.push(Divergence {
            index,
            tick,
            session_id,
            what,
        });
    }

    fn apply(&mut self, index: usize) {
        let Recorded { tick, event } = self.log.events[index].clone();
        match event {
            Event::RunMeta { .. } | Event::RunEnd { .. } => {}
            Event::FrameIn { .. } => self.frames_in += 1,
            Event::FrameOut { .. } => self.frames_out += 1,
            Event::FaultInjected { .. } => self.faults += 1,
            // Viewer-behaviour annotations: the decisions they imply are
            // themselves recorded, so replay only counts them.
            Event::SessionAbandon { .. } => self.abandons += 1,
            Event::Seek { .. } => self.seeks += 1,
            Event::SessionOpened {
                session_id,
                video,
                scheme: scheme_name,
                vmaf_model,
                degraded,
                ..
            } => {
                if self.sessions.contains_key(&session_id) {
                    self.diverge(index, tick, session_id, "duplicate SessionOpened".into());
                    return;
                }
                let Some(handle) = (self.provider)(&video) else {
                    self.diverge(
                        index,
                        tick,
                        session_id,
                        format!("video {video:?} unknown to this provider"),
                    );
                    self.lost.insert(session_id);
                    return;
                };
                let Some(model) = scheme::vmaf_model_from_code(vmaf_model) else {
                    self.diverge(
                        index,
                        tick,
                        session_id,
                        format!("VMAF model code {vmaf_model} outside the protocol"),
                    );
                    self.lost.insert(session_id);
                    return;
                };
                let algo = if degraded {
                    // The store throws the instance away on a degraded
                    // admission; replay mirrors that.
                    None
                } else {
                    match scheme::build_scheme(&scheme_name, &handle.video, model) {
                        Ok(algo) => Some(algo),
                        Err(e) => {
                            self.diverge(index, tick, session_id, e);
                            self.lost.insert(session_id);
                            return;
                        }
                    }
                };
                self.sessions
                    .insert(session_id, SessionState::new(handle, algo));
            }
            Event::Decision {
                session_id,
                retransmit,
                request,
                response,
            } => self.replay_decision(index, tick, session_id, retransmit, request, response),
            Event::SessionClosed {
                session_id,
                decisions,
            } => {
                if self.lost.remove(&session_id) {
                    return;
                }
                match self.sessions.remove(&session_id) {
                    None => self.diverge(
                        index,
                        tick,
                        session_id,
                        "SessionClosed for a session replay does not hold".into(),
                    ),
                    Some(sess) if sess.decisions != decisions => self.diverge(
                        index,
                        tick,
                        session_id,
                        format!(
                            "close reported {decisions} decisions, replay counted {}",
                            sess.decisions
                        ),
                    ),
                    Some(_) => {}
                }
            }
            Event::SessionResumed {
                session_id,
                decisions,
                ..
            } => {
                if self.lost.contains(&session_id) {
                    return;
                }
                match self.sessions.get(&session_id) {
                    None => self.diverge(
                        index,
                        tick,
                        session_id,
                        "SessionResumed for a session replay does not hold".into(),
                    ),
                    Some(sess) if sess.decisions != decisions => self.diverge(
                        index,
                        tick,
                        session_id,
                        format!(
                            "resume reported {decisions} decisions, replay counted {}",
                            sess.decisions
                        ),
                    ),
                    Some(_) => {}
                }
            }
            // Orphaning keeps state; only removal events drop the session.
            Event::SessionOrphaned { .. } => {}
            Event::SessionEvicted { session_id }
            | Event::OrphanReaped { session_id }
            | Event::SessionAborted { session_id, .. } => {
                self.lost.remove(&session_id);
                self.sessions.remove(&session_id);
            }
        }
    }

    fn replay_decision(
        &mut self,
        index: usize,
        tick: u64,
        session_id: u64,
        retransmit: bool,
        request: DecisionRequest,
        recorded: DecisionResponse,
    ) {
        if self.lost.contains(&session_id) {
            return;
        }
        let Some(sess) = self.sessions.get_mut(&session_id) else {
            self.diverge(
                index,
                tick,
                session_id,
                "Decision for a session replay does not hold".into(),
            );
            return;
        };
        // The store's own decision step: a request the cache answers comes
        // back flagged as a retransmit, and must have been recorded as one.
        let (replayed, cached) = sess.decide(&request);
        if cached {
            self.retransmits += 1;
        } else {
            self.decisions += 1;
        }
        if (replayed.level, replayed.degraded, cached)
            != (recorded.level, recorded.degraded, retransmit)
        {
            self.diverge(
                index,
                tick,
                session_id,
                format!(
                    "recorded level {} (degraded {}, retransmit {retransmit}), \
                     replay chose level {} (degraded {}, retransmit {cached})",
                    recorded.level, recorded.degraded, replayed.level, replayed.degraded
                ),
            );
        }
    }
}

/// Decode-and-verify convenience: replay the whole log and return the
/// player for inspection.
pub fn verify(log: EventLog, provider: VideoProvider) -> ReplayPlayer {
    let mut player = ReplayPlayer::new(log, provider);
    player.run_to_end();
    player
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// The first point at which two logs disagree (see [`diff_logs`]).
#[derive(Debug, Clone)]
pub struct LogDiff {
    /// Index of the first divergent record.
    pub index: usize,
    /// The left log's record there (`None`: log ended first).
    pub left: Option<String>,
    /// The right log's record there (`None`: log ended first).
    pub right: Option<String>,
}

impl fmt::Display for LogDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let absent = "<log ends>".to_string();
        write!(
            f,
            "first divergent event at index {}:\n  left:  {}\n  right: {}",
            self.index,
            self.left.as_ref().unwrap_or(&absent),
            self.right.as_ref().unwrap_or(&absent),
        )
    }
}

fn describe(r: &Recorded) -> String {
    format!("tick {}: {:?}", r.tick, r.event)
}

/// Bisect two logs to the first divergent event. Records are compared by
/// their encoded bytes, so the verdict is bit-exact (NaN payloads
/// included) and corruption anywhere in a field counts. `None` means the
/// logs are identical record-for-record.
pub fn diff_logs(left: &EventLog, right: &EventLog) -> Option<LogDiff> {
    let n = left.events.len().max(right.events.len());
    for index in 0..n {
        let l = left.events.get(index);
        let r = right.events.get(index);
        match (l, r) {
            (Some(a), Some(b)) => {
                let ea = encode_event(a.tick, &a.event);
                let eb = encode_event(b.tick, &b.event);
                let same = match (&ea, &eb) {
                    (Ok(ba), Ok(bb)) => ba == bb,
                    _ => false,
                };
                if !same {
                    return Some(LogDiff {
                        index,
                        left: Some(describe(a)),
                        right: Some(describe(b)),
                    });
                }
            }
            (Some(a), None) => {
                return Some(LogDiff {
                    index,
                    left: Some(describe(a)),
                    right: None,
                })
            }
            (None, Some(b)) => {
                return Some(LogDiff {
                    index,
                    left: None,
                    right: Some(describe(b)),
                })
            }
            (None, None) => {}
        }
    }
    None
}

/// FNV-1a, 64-bit, over `u64` words — deterministic across platforms,
/// no ambient hasher state (lint R3).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dataset_provider;

    fn every_event() -> Vec<Event> {
        vec![
            Event::RunMeta {
                label: "unit".into(),
                seed: 42,
            },
            Event::SessionOpened {
                conn: 1,
                session_id: 7,
                video: "ED-youtube-h264".into(),
                scheme: "cava".into(),
                vmaf_model: 0,
                degraded: false,
                n_tracks: 5,
                n_chunks: 120,
            },
            Event::Decision {
                session_id: 7,
                retransmit: false,
                request: DecisionRequest {
                    chunk_index: 3,
                    buffer_s: 11.25,
                    estimated_bandwidth_bps: Some(2.5e6),
                    last_level: Some(2),
                    latest_throughput_bps: Some(2.4e6),
                    wall_time_s: 12.0,
                    startup_complete: true,
                    visible_chunks: 120,
                },
                response: DecisionResponse {
                    level: 3,
                    degraded: false,
                },
            },
            Event::SessionClosed {
                session_id: 7,
                decisions: 1,
            },
            Event::SessionOrphaned {
                session_id: 8,
                conn: 2,
            },
            Event::SessionResumed {
                session_id: 8,
                conn: 3,
                decisions: 4,
            },
            Event::SessionEvicted { session_id: 9 },
            Event::OrphanReaped { session_id: 10 },
            Event::SessionAborted {
                session_id: 11,
                conn: 4,
            },
            Event::FrameIn {
                conn: 1,
                frame_type: 0x05,
                wire_len: 80,
            },
            Event::FrameOut {
                conn: 1,
                frame_type: 0x06,
                wire_len: 26,
            },
            Event::FaultInjected {
                conn_index: 0,
                kind: 2,
                send_seq: 15,
            },
            Event::SessionAbandon {
                session_id: 7,
                watched_s: 123.5,
                chunks: 41,
            },
            Event::Seek {
                session_id: 7,
                to_chunk: 80,
                at_s: 40.25,
            },
            Event::RunEnd { events: 14 },
        ]
    }

    fn encode_log(events: &[Event]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REPLAY_MAGIC);
        bytes.push(REPLAY_VERSION);
        for (i, e) in events.iter().enumerate() {
            bytes.extend_from_slice(&encode_event(i as u64 + 1, e).unwrap());
        }
        bytes
    }

    #[test]
    fn every_event_round_trips() {
        let events = every_event();
        let log = decode_log(&encode_log(&events)).unwrap();
        assert!(!log.truncated);
        assert!(log.ended());
        assert_eq!(log.len(), events.len());
        for (i, rec) in log.events.iter().enumerate() {
            assert_eq!(rec.tick, i as u64 + 1);
            assert_eq!(rec.event, events[i], "event {i} changed in transit");
        }
    }

    #[test]
    fn recorder_writes_header_ticks_and_run_end() {
        let sink = MemoryLog::new();
        let rec = Recorder::new(Box::new(sink.clone())).unwrap();
        assert_eq!(
            rec.record(&Event::RunMeta {
                label: "r".into(),
                seed: 1
            }),
            1
        );
        assert_eq!(rec.record(&Event::SessionEvicted { session_id: 3 }), 2);
        assert_eq!(rec.finish().unwrap(), 3);
        assert!(rec.io_error().is_none());
        let log = decode_log(&sink.contents()).unwrap();
        assert_eq!(log.version, REPLAY_VERSION);
        assert!(log.ended());
        assert_eq!(log.last_tick(), 3);
        assert_eq!(
            log.events.last().unwrap().event,
            Event::RunEnd { events: 2 }
        );
    }

    #[test]
    fn truncated_log_decodes_to_prefix() {
        let events = every_event();
        let bytes = encode_log(&events);
        // Record boundaries: byte offsets at which a cut is "clean".
        let mut boundaries = vec![5usize];
        for e in &events {
            let rec = encode_event(1, e).unwrap();
            boundaries.push(boundaries.last().unwrap() + rec.len());
        }
        // Every proper prefix decodes without panicking; whole records
        // survive; a cut mid-record flags `truncated`, a cut exactly on a
        // record boundary is a clean (shorter) log.
        for cut in 0..bytes.len() {
            let sub = &bytes[..cut];
            match decode_log(sub) {
                Ok(log) => {
                    assert!(log.len() <= events.len());
                    let clean = boundaries.contains(&cut);
                    assert_eq!(
                        log.truncated, !clean,
                        "cut {cut}: truncated flag disagrees with boundary set"
                    );
                    // The decoded prefix is the count of fully encoded records.
                    let whole = boundaries
                        .iter()
                        .filter(|&&b| b <= cut)
                        .count()
                        .saturating_sub(1);
                    assert_eq!(log.len(), whole, "cut {cut}");
                }
                Err(ReplayError::BadMagic) => assert!(cut < 4),
                Err(e) => panic!("prefix {cut}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn corrupt_magic_and_version_are_typed() {
        let bytes = encode_log(&[Event::RunEnd { events: 0 }]);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_log(&bad), Err(ReplayError::BadMagic));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(decode_log(&bad), Err(ReplayError::UnsupportedVersion(99)));
        let mut bad = bytes;
        bad[9] = 0xEE; // event-type byte of record 0
        assert!(matches!(
            decode_log(&bad),
            Err(ReplayError::UnknownEventType { index: 0, ty: 0xEE })
        ));
    }

    #[test]
    fn oversized_and_zero_prefixes_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REPLAY_MAGIC);
        bytes.push(REPLAY_VERSION);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_log(&bytes),
            Err(ReplayError::Oversized { index: 0, len: 0 })
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REPLAY_MAGIC);
        bytes.push(REPLAY_VERSION);
        bytes.extend_from_slice(&(MAX_EVENT_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_log(&bytes),
            Err(ReplayError::Oversized { index: 0, .. })
        ));
    }

    #[test]
    fn bit_flips_never_panic() {
        // Deterministic LCG (lint R3) walks single-byte corruptions across
        // the whole encoded log; every one must decode or fail typed.
        let bytes = encode_log(&every_event());
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..2_000 {
            let pos = (lcg() % bytes.len() as u64) as usize;
            let bit = (lcg() % 8) as u32;
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1u8 << bit;
            let _ = decode_log(&mutated); // must not panic
        }
    }

    #[test]
    fn player_replays_decision_log_bit_identically() {
        // A tiny hand-made log: open one cava session, record the
        // decisions a real cava instance makes, close. Replay must agree.
        let provider = dataset_provider();
        let handle = provider("ED-youtube-h264").unwrap();
        let mut algo =
            scheme::build_scheme("cava", &handle.video, vbr_video::quality::VmafModel::Tv).unwrap();
        let mut history: Vec<f64> = Vec::new();
        let mut events = vec![Event::SessionOpened {
            conn: 1,
            session_id: 1,
            video: "ED-youtube-h264".into(),
            scheme: "cava".into(),
            vmaf_model: 0,
            degraded: false,
            n_tracks: handle.manifest.n_tracks() as u32,
            n_chunks: handle.manifest.n_chunks() as u32,
        }];
        let mut last = None;
        for chunk in 0..6usize {
            let request = DecisionRequest {
                chunk_index: chunk,
                buffer_s: chunk as f64 * 2.0,
                estimated_bandwidth_bps: if chunk == 0 { None } else { Some(2.0e6) },
                last_level: last,
                latest_throughput_bps: if chunk == 0 { None } else { Some(2.0e6) },
                wall_time_s: chunk as f64 * 4.0,
                startup_complete: chunk > 0,
                visible_chunks: handle.manifest.n_chunks(),
            };
            if let Some(tp) = request.latest_throughput_bps {
                history.push(tp);
            }
            let level = algo.choose_level(&request.context(&handle.manifest, &history));
            last = Some(level);
            events.push(Event::Decision {
                session_id: 1,
                retransmit: false,
                request,
                response: DecisionResponse {
                    level,
                    degraded: false,
                },
            });
        }
        events.push(Event::SessionClosed {
            session_id: 1,
            decisions: 6,
        });
        let log = decode_log(&encode_log(&events)).unwrap();
        let player = verify(log.clone(), provider.clone());
        assert!(
            player.divergences().is_empty(),
            "unexpected divergences: {:?}",
            player.divergences()
        );
        assert_eq!(player.summary().decisions, 6);

        // Perturb one recorded level: replay must name exactly that event.
        let mut perturbed = events.clone();
        if let Event::Decision { response, .. } = &mut perturbed[3] {
            response.level = response.level.wrapping_add(1) % handle.manifest.n_tracks();
        } else {
            panic!("event 3 should be a Decision");
        }
        let bad = decode_log(&encode_log(&perturbed)).unwrap();
        let player = verify(bad, provider);
        assert_eq!(player.divergences().len(), 1);
        let d = player.first_divergence().unwrap();
        assert_eq!(d.index, 3);
        assert_eq!(d.session_id, 1);
        assert!(d.what.contains("recorded level"), "{}", d.what);
    }

    #[test]
    fn seek_matches_stepping_one_tick_at_a_time() {
        let provider = dataset_provider();
        let events = every_event();
        let log = decode_log(&encode_log(&events)).unwrap();
        let last = log.last_tick();
        for target in 0..=last {
            let mut seeker = ReplayPlayer::new(log.clone(), provider.clone());
            seeker.seek_to_tick(target);
            let mut stepper = ReplayPlayer::new(log.clone(), provider.clone());
            for _ in 0..target {
                stepper.step_forward(1);
            }
            assert_eq!(seeker.current_tick(), stepper.current_tick());
            assert_eq!(
                seeker.state_digest(),
                stepper.state_digest(),
                "seek({target}) disagrees with {target} single steps"
            );
        }
    }

    #[test]
    fn diff_names_first_divergent_event() {
        let events = every_event();
        let a = decode_log(&encode_log(&events)).unwrap();
        assert!(diff_logs(&a, &a).is_none());

        let mut other = events.clone();
        other[6] = Event::SessionEvicted { session_id: 999 };
        let b = decode_log(&encode_log(&other)).unwrap();
        let d = diff_logs(&a, &b).unwrap();
        assert_eq!(d.index, 6);
        assert!(d.left.as_deref().unwrap().contains("SessionEvicted"));
        assert!(d.right.as_deref().unwrap().contains("999"));

        // A shorter log diverges at its end.
        let c = decode_log(&encode_log(&events[..5])).unwrap();
        let d = diff_logs(&a, &c).unwrap();
        assert_eq!(d.index, 5);
        assert!(d.right.is_none());
        assert!(format!("{d}").contains("<log ends>"));
    }

    #[test]
    fn memory_log_recorder_round_trip_with_decisions() {
        let sink = MemoryLog::new();
        let rec = Recorder::new(Box::new(sink.clone())).unwrap();
        for e in every_event() {
            if !matches!(e, Event::RunEnd { .. }) {
                rec.record(&e);
            }
        }
        rec.finish().unwrap();
        let log = decode_log(&sink.contents()).unwrap();
        assert!(log.ended());
        assert_eq!(log.len(), every_event().len());
    }

    /// The `SessionOpened` event for session 1 on ED-youtube-h264.
    fn opened(scheme: &str, degraded: bool) -> Event {
        let handle = dataset_provider()("ED-youtube-h264").unwrap();
        Event::SessionOpened {
            conn: 1,
            session_id: 1,
            video: "ED-youtube-h264".into(),
            scheme: scheme.into(),
            vmaf_model: 0,
            degraded,
            n_tracks: handle.manifest.n_tracks() as u32,
            n_chunks: handle.manifest.n_chunks() as u32,
        }
    }

    fn request(chunk: usize) -> DecisionRequest {
        DecisionRequest {
            chunk_index: chunk,
            buffer_s: chunk as f64 * 2.0,
            estimated_bandwidth_bps: (chunk > 0).then_some(2.0e6),
            last_level: (chunk > 0).then_some(1),
            latest_throughput_bps: (chunk > 0).then_some(2.0e6),
            wall_time_s: chunk as f64 * 4.0,
            startup_complete: chunk > 0,
            visible_chunks: 120,
        }
    }

    /// A session state on ED-youtube-h264 as the store builds it.
    fn state(scheme: &str, degraded: bool) -> SessionState {
        let handle = dataset_provider()("ED-youtube-h264").unwrap();
        let algo = (!degraded).then(|| {
            scheme::build_scheme(scheme, &handle.video, vbr_video::quality::VmafModel::Tv).unwrap()
        });
        SessionState::new(handle, algo)
    }

    /// The `Decision` event `state` records for `request`.
    fn decided(state: &mut SessionState, request: DecisionRequest) -> Event {
        let (response, retransmit) = state.decide(&request);
        Event::Decision {
            session_id: 1,
            retransmit,
            request,
            response,
        }
    }

    #[test]
    fn fresh_decision_repeating_the_last_request_is_a_divergence() {
        // The store answers a bit-for-bit repeat from its cache and records
        // it as a retransmit, so a log that calls it fresh did not come
        // from the store.
        let mut sess = state("cava", false);
        let first = decided(&mut sess, request(0));
        let Event::Decision { response, .. } = first else {
            unreachable!("decided returns a Decision");
        };
        let events = vec![
            opened("cava", false),
            first,
            Event::Decision {
                session_id: 1,
                retransmit: false,
                request: request(0),
                response,
            },
        ];
        let player = verify(
            decode_log(&encode_log(&events)).unwrap(),
            dataset_provider(),
        );
        assert_eq!(player.divergences().len(), 1, "{:?}", player.divergences());
        let d = player.first_divergence().unwrap();
        assert_eq!(d.index, 2);
        assert!(d.what.contains("retransmit false"), "{}", d.what);
        assert!(d.what.contains("retransmit true"), "{}", d.what);
    }

    #[test]
    fn recorded_retransmit_is_checked_against_the_cache_without_advancing_state() {
        let mut sess = state("cava", false);
        let mut events = vec![opened("cava", false)];
        events.push(decided(&mut sess, request(0)));
        events.push(decided(&mut sess, request(1)));
        let retransmit = decided(&mut sess, request(1));
        assert!(matches!(
            retransmit,
            Event::Decision {
                retransmit: true,
                ..
            }
        ));
        events.push(retransmit);
        let log = decode_log(&encode_log(&events)).unwrap();

        let mut player = ReplayPlayer::new(log.clone(), dataset_provider());
        player.step_forward(3);
        let before = &player.sessions[&1];
        let (decisions, history) = (before.decisions, before.history.clone());
        assert_eq!(decisions, 2);
        player.step_forward(1);
        let after = &player.sessions[&1];
        assert_eq!(after.decisions, decisions, "a retransmit is not a decision");
        assert_eq!(after.history, history, "a retransmit adds no sample");
        assert!(
            player.divergences().is_empty(),
            "{:?}",
            player.divergences()
        );
        let summary = player.summary();
        assert_eq!((summary.decisions, summary.retransmits), (2, 1));

        // A retransmit whose recorded answer is not what the cache holds.
        let mut perturbed = log;
        let Event::Decision { response, .. } = &mut perturbed.events[3].event else {
            unreachable!("event 3 is the retransmit");
        };
        response.level += 1;
        let player = verify(perturbed, dataset_provider());
        assert_eq!(player.divergences().len(), 1);
        assert_eq!(player.first_divergence().unwrap().index, 3);
    }

    #[test]
    fn degraded_open_then_decisions_replays_clean() {
        let mut sess = state("cava", true);
        let mut events = vec![opened("cava", true)];
        for chunk in 0..5 {
            events.push(decided(&mut sess, request(chunk)));
        }
        assert!(events[1..]
            .iter()
            .all(|e| matches!(e, Event::Decision { response, .. } if response.degraded)));
        events.push(Event::SessionClosed {
            session_id: 1,
            decisions: 5,
        });
        let player = verify(
            decode_log(&encode_log(&events)).unwrap(),
            dataset_provider(),
        );
        assert!(
            player.divergences().is_empty(),
            "{:?}",
            player.divergences()
        );
        assert_eq!(player.summary().decisions, 5);
        assert_eq!(player.summary().open_sessions, 0);
    }

    #[test]
    fn retransmit_without_cache_is_a_divergence() {
        let events = vec![
            Event::SessionOpened {
                conn: 1,
                session_id: 1,
                video: "ED-youtube-h264".into(),
                scheme: "rba".into(),
                vmaf_model: 0,
                degraded: false,
                n_tracks: 5,
                n_chunks: 120,
            },
            Event::Decision {
                session_id: 1,
                retransmit: true,
                request: DecisionRequest {
                    chunk_index: 0,
                    buffer_s: 0.0,
                    estimated_bandwidth_bps: None,
                    last_level: None,
                    latest_throughput_bps: None,
                    wall_time_s: 0.0,
                    startup_complete: false,
                    visible_chunks: 120,
                },
                response: DecisionResponse {
                    level: 0,
                    degraded: false,
                },
            },
        ];
        let log = decode_log(&encode_log(&events)).unwrap();
        let player = verify(log, dataset_provider());
        assert_eq!(player.divergences().len(), 1);
        assert!(player
            .first_divergence()
            .unwrap()
            .what
            .contains("retransmit"));
    }
}
