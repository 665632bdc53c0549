//! The deterministic fleet load generator.
//!
//! Drives N simulated players from `abr-sim` against a running server over
//! real TCP sockets. The arrival process is seeded: session attributes
//! (video, scheme, trace seed) are a pure function of the session id, and
//! the order sessions hit the server is a seeded Fisher–Yates shuffle —
//! same seed, same fleet, regardless of how many client connections carry
//! it.
//!
//! Each session is the real simulator suspended at every decision point
//! ([`abr_sim::SessionStepper`]): each decision it needs becomes a
//! `Decide` frame on the wire, and the server's answer is the level it
//! plays. That makes the **decision parity** check exact — after the drive,
//! the same seed is replayed fully in-process and the two
//! [`SessionResult`]s must compare equal, byte for byte. Any divergence
//! between the serving layer and the simulator (history drift, float
//! truncation, state reuse) fails the comparison.
//!
//! **One drive loop.** Each connection keeps at most
//! [`LoadgenConfig::pipeline`] sessions in flight and exchanges *waves*:
//! one `Decide` per in-flight session, written as one flush and read back
//! in request order, so `pipeline` decisions cost one syscall pair instead
//! of `pipeline` round trips. A finished session's slot goes to the next
//! session. The window bounds what is in flight, so client and server
//! buffers can never mutually fill (no write–write deadlock). Sessions are
//! independent, so results are byte-identical at every depth; a
//! decision's latency is its wave's round trip. At `pipeline = 1` every
//! wave is a single request/response, and each session runs to completion
//! before the next starts — the serial drive. Opens and closes go out in
//! waves through the same fault-aware exchange.
//!
//! In **hold** mode the fleet opens every session (batched by `pipeline`)
//! before driving any of them (two [`Barrier`]s), so the server really
//! holds `sessions` concurrent sessions — the soak acceptance criterion —
//! and one connection samples the held count at the hold point. Closes
//! follow the second barrier. In **arrival** mode a session is opened when
//! it takes a slot and closed as soon as it finishes. Parity replays run
//! after the drive window in both modes: they are local work, not serving
//! load.
//!
//! **Chaos mode**: an optional seeded [`FaultConfig`] turns the fleet into
//! a deterministic adversary at any depth. Every `period`-th frame first
//! send on a connection draws a fault from the connection's own LCG stream
//! — a mid-frame stall, a truncated write followed by a hard close, or a
//! connection reset between frames. The client then does what a real
//! player would: retries with capped exponential backoff, reconnects, and
//! re-attaches its sessions with `ResumeSession` before resending the
//! unanswered rest of the wave. The server's retransmission dedup makes
//! the resend exactly-once, so the decision parity check must **still pass
//! under every injected fault** — that is the point of the whole exercise.
//!
//! **Population mode**: setting [`LoadgenConfig::population`] replaces the
//! round-robin fleet with a seeded `abr-pop` population. Sessions hit the
//! server in *arrival order* (the diurnal schedule), each one streams its
//! cohort's network regime with its cohort's player configuration, and the
//! viewer's behaviour overlay — mid-session seeks and abandonment — is
//! executed by the real simulator driving real sockets, so an abandoning
//! viewer closes its session early exactly as it would in production. The
//! parity replay runs the same controlled session in-process, so decision
//! parity holds for truncated and seek-torn sessions too. Seeks and
//! abandons are recorded as [`Event::Seek`]/[`Event::SessionAbandon`]
//! annotations when a recorder is attached.
//!
//! No wall clock is read here: latency measurement comes from the injected
//! `now` closure (backed by the bench journal's `Stopwatch` in real use).
//! Fault stalls and backoff use `thread::sleep`, which consumes time but
//! never reads it. Population arrival times order the fleet; they are not
//! slept out — the drive runs as fast as the server allows.

use crate::protocol::{ErrorCode, Frame, StatsSnapshot, WireError, PROTOCOL_VERSION};
use crate::replay::{Event, Recorder};
use crate::scheme;
use crate::store::{VideoHandle, VideoProvider};
use crate::{lock, protocol};
use abr_pop::{Cohort, PopConfig, Population};
use abr_sim::{
    AbrAlgorithm, PlayerConfig, SessionControl, SessionResult, SessionStepper, Simulator,
};
use net_trace::lte::{lte_trace, LteConfig};
use sim_report::stats::percentile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;
use vbr_video::quality::VmafModel;

/// Fleet shape and behavior knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total sessions to run.
    pub sessions: usize,
    /// Client connections (threads) carrying them.
    pub connections: usize,
    /// Master seed: shuffles arrival order and derives per-session trace
    /// seeds (`seed + session_index`).
    pub seed: u64,
    /// Videos assigned round-robin by session index.
    pub videos: Vec<String>,
    /// Schemes assigned round-robin by session index.
    pub schemes: Vec<String>,
    /// VMAF device model for quality-aware schemes.
    pub vmaf_model: VmafModel,
    /// Open every session before driving any (barrier-synchronized), so
    /// the server holds the whole fleet concurrently.
    pub hold: bool,
    /// Replay each session in-process and require equality.
    pub parity: bool,
    /// Deterministic fault injection; `None` runs the fleet clean.
    pub faults: Option<FaultConfig>,
    /// Player configuration used by both the remote drive and the parity
    /// replay (population cohorts override it per session).
    pub player: PlayerConfig,
    /// Population mode: derive the fleet from a seeded `abr-pop`
    /// population instead of the round-robin plan. Overrides `sessions`
    /// (the population's size wins) and per-session trace seeds, network
    /// regimes, player configs, and VMAF models; `videos` and `schemes`
    /// are still assigned round-robin by population index.
    pub population: Option<PopConfig>,
    /// Sessions in flight per connection, and so decisions batched per
    /// flush. `1` (the default) drives sessions serially, one round trip
    /// per decision. Faults work at every depth. Keep `pipeline × ~100 B`
    /// under the socket buffer (≤ 512 is always safe).
    pub pipeline: usize,
    /// Check decision parity on every `parity_every`-th session id
    /// (`session_id % parity_every == 0`). `1` checks every session
    /// (classic behavior); larger values sample, so 100k-session soaks
    /// don't pay a full in-process replay per session; `0` disables the
    /// check outright. Only consulted when [`LoadgenConfig::parity`] is
    /// set.
    pub parity_every: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            sessions: 50,
            connections: 4,
            seed: 42,
            videos: vec!["ED-youtube-h264".to_string()],
            schemes: vec!["cava".to_string(), "bola".to_string(), "rba".to_string()],
            vmaf_model: VmafModel::Tv,
            hold: true,
            parity: true,
            faults: None,
            player: PlayerConfig::default(),
            population: None,
            pipeline: 1,
            parity_every: 1,
        }
    }
}

/// Seeded fault-injection plan. Faults fire at deterministic points: the
/// `period`-th, `2·period`-th, … frame send on each connection draws its
/// fault kind from an LCG stream derived from `seed` and the connection
/// index — same seed, same chaos, run after run, at any pipeline depth.
/// Only a frame's first send counts toward `period`; retries run clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the per-connection fault streams.
    pub seed: u64,
    /// Inject one fault every `period` first sends (`0` = never; useful
    /// for enabling the retry machinery without any injected faults).
    pub period: u64,
    /// How long a mid-frame stall holds the wire, in milliseconds. Keep it
    /// under the server's read deadline to exercise survivable stalls, or
    /// above it to force reaps.
    pub stall_ms: u64,
    /// Retries per wave after a transport failure (so up to
    /// `max_retries + 1` attempts).
    pub max_retries: u32,
    /// First retry backoff, milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 1,
            period: 7,
            stall_ms: 10,
            max_retries: 4,
            backoff_base_ms: 5,
            backoff_cap_ms: 100,
        }
    }
}

/// What a fault draw does to the next frame send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Write half the frame, hold the wire for `stall_ms`, write the rest.
    /// The connection survives (unless the server's deadline is shorter).
    Stall,
    /// Write half the frame, then hard-close the socket mid-body.
    Truncate,
    /// Hard-close the socket between frames, before writing anything.
    Reset,
}

/// Client-side fault/recovery counters, summed across the fleet's
/// connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Mid-frame stalls injected.
    pub stalls: u64,
    /// Truncated writes injected (each kills the connection).
    pub truncated_writes: u64,
    /// Connection resets injected between frames.
    pub resets: u64,
    /// Successful re-dials after a connection died.
    pub reconnects: u64,
    /// Sessions re-attached via `ResumeSession` after a reconnect.
    pub resumes: u64,
    /// Wave retries (resends after a transport failure).
    pub retries: u64,
    /// Client-side socket-option failures (`set_nodelay`).
    pub sockopt_errors: u64,
}

impl ClientStats {
    /// Fold another connection's counters into this one.
    pub fn absorb(&mut self, other: &ClientStats) {
        self.stalls += other.stalls;
        self.truncated_writes += other.truncated_writes;
        self.resets += other.resets;
        self.reconnects += other.reconnects;
        self.resumes += other.resumes;
        self.retries += other.retries;
        self.sockopt_errors += other.sockopt_errors;
    }

    /// Total faults injected.
    pub fn faults_injected(&self) -> u64 {
        self.stalls + self.truncated_writes + self.resets
    }
}

/// One session's identity: a pure function of `(config, session index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Wire session id (`index + 1`).
    pub session_id: u64,
    /// Video streamed.
    pub video: String,
    /// Scheme serving the decisions.
    pub scheme: String,
    /// Seed of the session's network trace (LTE in the classic fleet; the
    /// cohort's regime in population mode).
    pub trace_seed: u64,
    /// Population cohort (`None` in the classic round-robin fleet).
    pub cohort: Option<Cohort>,
    /// Viewer behaviour overlay: seeks and abandonment (passive in the
    /// classic fleet).
    pub control: SessionControl,
}

impl SessionPlan {
    /// The network trace this session streams over: the cohort's regime in
    /// population mode, the classic LTE generator otherwise.
    fn trace(&self) -> net_trace::Trace {
        match &self.cohort {
            Some(c) => c.network.trace(self.trace_seed),
            None => lte_trace(self.trace_seed, &LteConfig::default()),
        }
    }

    /// The player configuration for this session (cohort override or the
    /// fleet default).
    fn player(&self, default: PlayerConfig) -> PlayerConfig {
        self.cohort.map_or(default, |c| c.player_config())
    }

    /// The VMAF viewing model for this session (cohort device or the
    /// fleet default).
    fn vmaf(&self, default: VmafModel) -> VmafModel {
        self.cohort.map_or(default, |c| c.qoe_config().vmaf_model)
    }
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The plan that ran.
    pub plan: SessionPlan,
    /// True if the server admitted or served the session degraded.
    pub degraded: bool,
    /// The remotely-driven session record (absent if the session never
    /// got off the ground).
    pub result: Option<SessionResult>,
    /// Per-decision round-trip latency, seconds, in request order.
    pub latencies_s: Vec<f64>,
    /// Parallel to `latencies_s`: `true` where the decision's round trip
    /// absorbed an injected fault (a stall inflating it in place, or a
    /// retry after a kill). Clean decisions — the ones a latency gate may
    /// judge — are the `false` entries.
    pub latency_faulted: Vec<bool>,
    /// Parity verdict: `Some(true)` = byte-identical to the in-process
    /// replay, `None` = check skipped (disabled, degraded, or errored).
    pub parity: Option<bool>,
    /// Lifetime decision count the server reported at close.
    pub closed_decisions: Option<u64>,
    /// First error this session hit, if any.
    pub error: Option<String>,
}

impl SessionOutcome {
    fn new(plan: SessionPlan) -> SessionOutcome {
        SessionOutcome {
            plan,
            degraded: false,
            result: None,
            latencies_s: Vec::new(),
            latency_faulted: Vec::new(),
            parity: None,
            closed_decisions: None,
            error: None,
        }
    }
}

/// The fleet's collected results, outcomes in session-id order.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// One entry per planned session, ordered by session id.
    pub outcomes: Vec<SessionOutcome>,
    /// Wall time of the whole drive (connect through last close), from the
    /// injected clock.
    pub wall_time_s: f64,
    /// Wall time of the *decision-serving* phase alone — the widest drive
    /// window across connections: barrier to barrier in hold mode, which
    /// excludes opens and closes; never parity replays. Throughput rates
    /// divide by this.
    pub drive_wall_s: f64,
    /// Sessions the server held concurrently, sampled at the hold point
    /// (hold mode only; `None` in arrival mode, or if the sampling
    /// connection was down at the hold point).
    pub held_sessions: Option<u64>,
    /// Server counters sampled after the drive.
    pub server_stats: Option<StatsSnapshot>,
    /// Client-side fault/recovery counters summed across connections.
    pub client_stats: ClientStats,
}

impl LoadgenReport {
    /// Total decisions served over the wire.
    pub fn decisions(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.latencies_s.len() as u64)
            .sum()
    }

    /// Session ids whose parity check failed.
    pub fn parity_mismatches(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.parity == Some(false))
            .map(|o| o.plan.session_id)
            .collect()
    }

    /// Sessions that were served degraded at any point.
    pub fn degraded_sessions(&self) -> usize {
        self.outcomes.iter().filter(|o| o.degraded).count()
    }

    /// `(session id, error)` for every errored session.
    pub fn errors(&self) -> Vec<(u64, String)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.error.clone().map(|e| (o.plan.session_id, e)))
            .collect()
    }

    /// All decision latencies, concatenated in session order.
    pub fn latencies(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .flat_map(|o| o.latencies_s.iter().copied())
            .collect()
    }

    /// Latencies of decisions whose round trip did **not** absorb an
    /// injected fault. Together with [`LoadgenReport::faulted_latencies`]
    /// this partitions [`LoadgenReport::latencies`] exactly:
    /// `decisions() == clean.len() + faulted.len()`.
    pub fn clean_latencies(&self) -> Vec<f64> {
        self.split_latencies(false)
    }

    /// Latencies of decisions that rode through an injected fault (stall,
    /// kill + retry). These carry the fault's self-inflicted delay and are
    /// excluded from clean-path latency gates.
    pub fn faulted_latencies(&self) -> Vec<f64> {
        self.split_latencies(true)
    }

    fn split_latencies(&self, faulted: bool) -> Vec<f64> {
        self.outcomes
            .iter()
            .flat_map(|o| {
                o.latencies_s
                    .iter()
                    .zip(&o.latency_faulted)
                    .filter(move |(_, &f)| f == faulted)
                    .map(|(&l, _)| l)
            })
            .collect()
    }

    /// Percentile over all decision latencies (`None` if no decisions).
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.latencies(), p)
    }

    /// Percentile over clean (unfaulted) decision latencies only — the
    /// number a chaos run's latency gate judges, since faulted round trips
    /// carry injected stalls and backoff by design.
    pub fn clean_latency_percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.clean_latencies(), p)
    }
}

/// Load-generator failure (fleet-level; per-session failures live in
/// [`SessionOutcome::error`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LoadgenError {
    /// The configuration cannot describe a fleet.
    BadConfig(String),
    /// Socket-level failure.
    Io(String),
    /// Wire decode failure.
    Wire(WireError),
    /// The server answered with an error frame.
    Server(String),
    /// The server answered with a frame the client did not expect.
    Unexpected(String),
}

impl fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadgenError::BadConfig(msg) => write!(f, "bad loadgen config: {msg}"),
            LoadgenError::Io(msg) => write!(f, "io: {msg}"),
            LoadgenError::Wire(e) => write!(f, "wire: {e}"),
            LoadgenError::Server(msg) => write!(f, "server error: {msg}"),
            LoadgenError::Unexpected(msg) => write!(f, "unexpected reply: {msg}"),
        }
    }
}

impl std::error::Error for LoadgenError {}

/// Deterministic shuffle source (no ambient entropy — R3).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// Expand a config into the fleet's session plans, in seeded arrival
/// order. Pure: same config, same plans.
pub fn plan(config: &LoadgenConfig) -> Result<Vec<SessionPlan>, LoadgenError> {
    if config.sessions == 0 && config.population.is_none() {
        return Err(LoadgenError::BadConfig(
            "sessions must be at least 1".into(),
        ));
    }
    if config.connections == 0 {
        return Err(LoadgenError::BadConfig(
            "connections must be at least 1".into(),
        ));
    }
    if config.videos.is_empty() {
        return Err(LoadgenError::BadConfig("no videos given".into()));
    }
    if config.schemes.is_empty() {
        return Err(LoadgenError::BadConfig("no schemes given".into()));
    }
    if config.pipeline == 0 {
        return Err(LoadgenError::BadConfig(
            "pipeline must be at least 1".into(),
        ));
    }
    for name in &config.videos {
        if !scheme::is_known_video(name) {
            return Err(LoadgenError::BadConfig(format!("unknown video {name:?}")));
        }
    }
    for name in &config.schemes {
        if !scheme::is_known_scheme(name) {
            return Err(LoadgenError::BadConfig(format!("unknown scheme {name:?}")));
        }
    }
    if let Some(pop_config) = config.population {
        // Population mode: the seeded diurnal schedule is the arrival
        // order, and every per-session attribute comes from the viewer's
        // derivation — same seed, same fleet, same order.
        let population = Population::new(pop_config);
        return Ok(population
            .schedule()
            .into_iter()
            .map(|viewer| SessionPlan {
                session_id: viewer.index as u64 + 1,
                video: config.videos[viewer.index % config.videos.len()].clone(),
                scheme: config.schemes[viewer.index % config.schemes.len()].clone(),
                trace_seed: viewer.trace_seed,
                cohort: Some(viewer.cohort),
                control: viewer.control,
            })
            .collect());
    }
    let mut order: Vec<usize> = (0..config.sessions).collect();
    let mut rng = Lcg(config.seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in (1..order.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    Ok(order
        .into_iter()
        .map(|idx| SessionPlan {
            session_id: idx as u64 + 1,
            video: config.videos[idx % config.videos.len()].clone(),
            scheme: config.schemes[idx % config.schemes.len()].clone(),
            trace_seed: config.seed.wrapping_add(idx as u64),
            cohort: None,
            control: SessionControl::default(),
        })
        .collect())
}

/// Buffered frame transport over one TCP connection.
struct FrameIo {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Socket-option failures hit while dialing (surfaced into
    /// [`ClientStats::sockopt_errors`], not silently dropped).
    sockopt_errors: u64,
}

impl FrameIo {
    fn connect(addr: SocketAddr) -> Result<FrameIo, LoadgenError> {
        let stream = TcpStream::connect(addr).map_err(|e| LoadgenError::Io(e.to_string()))?;
        let sockopt_errors = u64::from(stream.set_nodelay(true).is_err());
        let clone = stream
            .try_clone()
            .map_err(|e| LoadgenError::Io(e.to_string()))?;
        Ok(FrameIo {
            reader: BufReader::new(stream),
            writer: BufWriter::new(clone),
            sockopt_errors,
        })
    }

    /// Queue a frame without flushing — the wave batcher.
    /// Callers pair it with [`FrameIo::flush`] once the wave is written.
    fn send_buffered(&mut self, frame: &Frame) -> Result<(), LoadgenError> {
        protocol::write_frame(&mut self.writer, frame).map_err(LoadgenError::Wire)
    }

    fn flush(&mut self) -> Result<(), LoadgenError> {
        self.writer
            .flush()
            .map_err(|e| LoadgenError::Io(e.to_string()))
    }

    /// Write raw pre-encoded bytes and flush them onto the wire — the
    /// fault injector's scalpel for splitting a frame mid-body.
    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), LoadgenError> {
        self.writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| LoadgenError::Io(e.to_string()))
    }

    fn recv(&mut self) -> Result<Frame, LoadgenError> {
        protocol::read_frame(&mut self.reader).map_err(LoadgenError::Wire)
    }

    fn call(&mut self, frame: &Frame) -> Result<Frame, LoadgenError> {
        self.send_buffered(frame)?;
        self.flush()?;
        self.recv()
    }

    fn handshake(&mut self) -> Result<(), LoadgenError> {
        match self.call(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Frame::HelloOk { .. } => Ok(()),
            Frame::Error { code, message } => {
                Err(LoadgenError::Server(format!("{code:?}: {message}")))
            }
            other => Err(LoadgenError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// One client connection's stateful endpoint: the transport plus
/// everything needed to survive its death — the fault stream, the list of
/// sessions to re-attach on reconnect, and the recovery counters.
struct Conn {
    addr: SocketAddr,
    io: Option<FrameIo>,
    faults: Option<FaultConfig>,
    rng: Lcg,
    sends: u64,
    ever_connected: bool,
    /// Sessions this connection believes are open, each with its open
    /// sequence number; every reconnect re-attaches all of them, in open
    /// order, with `ResumeSession` before any frame is resent.
    opened: BTreeMap<u64, u64>,
    /// Sequence number the next opened session gets.
    open_seq: u64,
    /// Degraded flags learned from `ResumeOk`, so an open retry that lands
    /// on `DuplicateSession` still reports the right service mode.
    degraded_hint: BTreeMap<u64, bool>,
    /// Sessions a reconnect could not resume (`UnknownSession`): closed
    /// server-side with the ack lost, or reaped. A close retry hitting one
    /// of these is a success, not an error.
    lost: BTreeSet<u64>,
    stats: ClientStats,
    /// This connection's 0-based fleet index, stamped into recorded
    /// fault-injection events.
    index: u64,
    /// Optional event recorder (see [`crate::replay`]): every fault drawn
    /// by [`Conn::next_fault`] lands in the log as
    /// [`Event::FaultInjected`].
    recorder: Option<Arc<Recorder>>,
}

/// What one [`Conn::exchange`] went through besides its replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wave {
    /// First reply index still missing at the first retry (the wave's
    /// length if none): replies from here on answer a resend.
    retried_from: usize,
    /// The wave stalled or was retried: its latencies are not clean.
    faulted: bool,
}

impl Conn {
    fn new(
        addr: SocketAddr,
        index: usize,
        faults: Option<FaultConfig>,
        recorder: Option<Arc<Recorder>>,
    ) -> Conn {
        let seed = faults.map_or(0, |f| f.seed);
        Conn {
            addr,
            io: None,
            faults,
            rng: Lcg(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            sends: 0,
            ever_connected: false,
            opened: BTreeMap::new(),
            open_seq: 0,
            degraded_hint: BTreeMap::new(),
            lost: BTreeSet::new(),
            stats: ClientStats::default(),
            index: index as u64,
            recorder,
        }
    }

    /// Dial, handshake, and re-attach every session this connection has
    /// open, in open order.
    fn dial(&mut self) -> Result<FrameIo, LoadgenError> {
        let mut io = FrameIo::connect(self.addr)?;
        self.stats.sockopt_errors += io.sockopt_errors;
        io.handshake()?;
        if self.ever_connected {
            self.stats.reconnects += 1;
        }
        self.ever_connected = true;
        let mut resume: Vec<(u64, u64)> =
            self.opened.iter().map(|(&sid, &seq)| (seq, sid)).collect();
        resume.sort_unstable();
        for (_, sid) in resume {
            let reply = io.call(&Frame::ResumeSession { session_id: sid })?;
            self.resumed(sid, reply)?;
        }
        Ok(io)
    }

    /// Interpret the reply to session `sid`'s `ResumeSession`.
    /// `UnknownSession` is recorded, not fatal (the session may simply have
    /// closed with its ack lost); `SessionBusy` is an error so the caller's
    /// backoff gives the server time to finish tearing the dead connection
    /// down.
    fn resumed(&mut self, sid: u64, reply: Frame) -> Result<(), LoadgenError> {
        match reply {
            Frame::ResumeOk {
                session_id,
                degraded,
                ..
            } if session_id == sid => {
                self.stats.resumes += 1;
                self.degraded_hint.insert(sid, degraded);
                Ok(())
            }
            Frame::Error {
                code: ErrorCode::UnknownSession,
                ..
            } => {
                self.lost.insert(sid);
                Ok(())
            }
            Frame::Error { code, message } => Err(LoadgenError::Server(format!(
                "resume {sid}: {code:?}: {message}"
            ))),
            other => Err(LoadgenError::Unexpected(format!("resume {sid}: {other:?}"))),
        }
    }

    fn ensure_connected(&mut self) -> Result<&mut FrameIo, LoadgenError> {
        if self.io.is_none() {
            self.io = Some(self.dial()?);
        }
        self.io
            .as_mut()
            .ok_or_else(|| LoadgenError::Io("connection vanished".into()))
    }

    /// Draw the fault (if any) scheduled for the next frame send.
    fn next_fault(&mut self) -> Option<FaultKind> {
        let f = self.faults?;
        if f.period == 0 {
            return None;
        }
        self.sends += 1;
        if !self.sends.is_multiple_of(f.period) {
            return None;
        }
        let kind = match self.rng.next() % 3 {
            0 => FaultKind::Stall,
            1 => FaultKind::Truncate,
            _ => FaultKind::Reset,
        };
        if let Some(recorder) = &self.recorder {
            recorder.record(&Event::FaultInjected {
                conn_index: self.index,
                kind: match kind {
                    FaultKind::Stall => 0,
                    FaultKind::Truncate => 1,
                    FaultKind::Reset => 2,
                },
                send_seq: self.sends,
            });
        }
        Some(kind)
    }

    /// Send a wave of frames and collect one reply per frame, in order,
    /// into `replies` — the connection's only send path. A transport
    /// failure or an [`ErrorCode::Timeout`] reply drops the connection;
    /// each of up to `max_retries` retries backs off (capped exponential),
    /// redials (resuming every open session) and resends only the
    /// unanswered frames. Frames still unanswered get the last error.
    fn exchange(&mut self, frames: &[Frame], replies: &mut Vec<Result<Frame, String>>) -> Wave {
        replies.clear();
        let mut wave = Wave {
            retried_from: frames.len(),
            faulted: false,
        };
        let max_retries = self.faults.map_or(0, |f| f.max_retries);
        let mut retries = 0;
        while replies.len() < frames.len() {
            let unanswered = &frames[replies.len()..];
            let Err(e) = self.attempt(unanswered, retries == 0, replies, &mut wave.faulted) else {
                break;
            };
            self.io = None;
            if retries == max_retries {
                replies.resize(frames.len(), Err(e.to_string()));
                break;
            }
            retries += 1;
            if retries == 1 {
                wave.retried_from = replies.len();
                wave.faulted = true;
            }
            self.stats.retries += 1;
            if let Some(f) = self.faults {
                let backoff = f
                    .backoff_base_ms
                    .saturating_mul(1u64 << u32::min(retries - 1, 16))
                    .min(f.backoff_cap_ms);
                thread::sleep(Duration::from_millis(backoff));
            }
        }
        wave
    }

    /// One attempt at a wave's unanswered `frames`: write them in order,
    /// then read their replies into `replies`. Only the first attempt
    /// draws faults (one per frame, its first send), so retries run clean.
    /// A kill first lets the frames ahead of it land and be answered, so
    /// the fault schedule alone decides what reached the server.
    fn attempt(
        &mut self,
        frames: &[Frame],
        first: bool,
        replies: &mut Vec<Result<Frame, String>>,
        faulted: &mut bool,
    ) -> Result<(), LoadgenError> {
        let stall_ms = self.faults.map_or(0, |f| f.stall_ms);
        for (ahead, frame) in frames.iter().enumerate() {
            let fault = if first { self.next_fault() } else { None };
            *faulted |= fault.is_some();
            match fault {
                None => self.ensure_connected()?.send_buffered(frame)?,
                Some(FaultKind::Stall) => {
                    let bytes = protocol::encode_frame(frame).map_err(LoadgenError::Wire)?;
                    let (head, tail) = bytes.split_at((bytes.len() / 2).max(1));
                    self.stats.stalls += 1;
                    let io = self.ensure_connected()?;
                    io.send_raw(head)?;
                    thread::sleep(Duration::from_millis(stall_ms));
                    io.send_raw(tail)?;
                }
                Some(FaultKind::Truncate) => {
                    let bytes = protocol::encode_frame(frame).map_err(LoadgenError::Wire)?;
                    self.collect(ahead, replies)?;
                    self.stats.truncated_writes += 1;
                    let head = &bytes[..(bytes.len() / 2).max(1)];
                    let _ = self.ensure_connected()?.send_raw(head);
                    self.io = None;
                    return Err(LoadgenError::Io("injected truncated write".into()));
                }
                Some(FaultKind::Reset) => {
                    self.collect(ahead, replies)?;
                    self.stats.resets += 1;
                    self.io = None;
                    return Err(LoadgenError::Io("injected connection reset".into()));
                }
            }
        }
        self.collect(frames.len(), replies)
    }

    /// Flush what the current attempt wrote and read its `n` replies into
    /// `replies`, in order. A `Timeout` reply is a transport failure.
    fn collect(
        &mut self,
        n: usize,
        replies: &mut Vec<Result<Frame, String>>,
    ) -> Result<(), LoadgenError> {
        if n == 0 {
            return Ok(());
        }
        let Some(io) = self.io.as_mut() else {
            return Err(LoadgenError::Io("connection lost mid-wave".into()));
        };
        io.flush()?;
        for _ in 0..n {
            let reply = io.recv()?;
            if let Frame::Error {
                code: ErrorCode::Timeout,
                message,
            } = &reply
            {
                let reaped = format!("server reaped connection: {message}");
                return Err(LoadgenError::Io(reaped));
            }
            replies.push(Ok(reply));
        }
        Ok(())
    }

    fn forget(&mut self, sid: u64) {
        self.opened.remove(&sid);
        self.lost.remove(&sid);
    }

    /// The `OpenSession` frame for `plan`. The id goes on the resume list
    /// *before* the frame is sent, so a reconnect mid-open re-attaches a
    /// half-acknowledged session instead of leaking it; a retry landing on
    /// `DuplicateSession` after that resume is therefore a success.
    // abr-lint: cold — once-per-session control traffic, not the decision loop
    fn open_frame(&mut self, plan: &SessionPlan, vmaf: u8) -> Frame {
        let sid = plan.session_id;
        if !self.opened.contains_key(&sid) {
            self.opened.insert(sid, self.open_seq);
            self.open_seq += 1;
        }
        Frame::OpenSession {
            session_id: sid,
            video: plan.video.clone(),
            scheme: plan.scheme.clone(),
            vmaf_model: vmaf,
        }
    }

    /// Interpret the reply to session `sid`'s [`Conn::open_frame`]
    /// (`retried`: it answers a resend): `Ok(degraded)` once the server
    /// holds the session. That also takes it off `lost`, where a resume
    /// puts an open that had not landed yet.
    // abr-lint: cold — once-per-session control traffic, not the decision loop
    fn opened(
        &mut self,
        sid: u64,
        reply: Result<Frame, String>,
        retried: bool,
    ) -> Result<bool, String> {
        let held = match reply {
            Ok(Frame::OpenOk {
                session_id,
                degraded,
                ..
            }) if session_id == sid => Ok(degraded),
            Ok(Frame::Error {
                code: ErrorCode::DuplicateSession,
                ..
            }) if retried => Ok(self.degraded_hint.get(&sid).copied().unwrap_or(false)),
            Ok(Frame::Error { code, message }) => Err(format!("{code:?}: {message}")),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(e),
        };
        if held.is_ok() {
            self.lost.remove(&sid);
        } else {
            self.forget(sid);
        }
        held
    }

    /// Interpret the reply to session `sid`'s `CloseSession`. `None`
    /// decisions means the close landed but its acknowledgement died with
    /// a connection — the reconnect's resume pass already reported the
    /// session gone.
    // abr-lint: cold — once-per-session control traffic, not the decision loop
    fn closed(&mut self, sid: u64, reply: Result<Frame, String>) -> Result<Option<u64>, String> {
        let was_lost = self.lost.contains(&sid);
        self.forget(sid);
        match reply {
            Ok(Frame::Closed {
                session_id,
                decisions,
            }) if session_id == sid => Ok(Some(decisions)),
            Ok(Frame::Error {
                code: ErrorCode::UnknownSession,
                ..
            }) if was_lost => Ok(None),
            Ok(Frame::Error { code, message }) => Err(format!("{code:?}: {message}")),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(e),
        }
    }
}

/// Should this session's decisions be parity-replayed in-process? Sampled
/// by session id so the verdict set is identical however the fleet is
/// striped across connections.
fn parity_selected(config: &LoadgenConfig, session_id: u64) -> bool {
    config.parity && config.parity_every > 0 && session_id.is_multiple_of(config.parity_every)
}

/// Population annotations: the seeks that actually fired (the first
/// `n_seeks` in time order) and the abandonment, if any, land in the
/// event log next to the session's decisions.
fn record_behaviour(
    recorder: &Recorder,
    session_id: u64,
    control: &SessionControl,
    result: &SessionResult,
) {
    if result.n_seeks > 0 {
        let mut fired: Vec<&abr_sim::SeekEvent> = control.seeks.iter().collect();
        fired.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        for seek in fired.into_iter().take(result.n_seeks) {
            recorder.record(&Event::Seek {
                session_id,
                to_chunk: seek.to_chunk as u64,
                at_s: seek.at_s,
            });
        }
    }
    if result.abandoned {
        recorder.record(&Event::SessionAbandon {
            session_id,
            watched_s: result.wall_time_s,
            chunks: result.records.len() as u64,
        });
    }
}

/// Cross-connection shared state for one fleet run: the hold barriers,
/// the widest drive window seen, and the held-session sample.
struct FleetShared {
    barrier: Barrier,
    /// Widest first-barrier-to-second-barrier window across connections —
    /// the denominator for decision throughput.
    drive_wall_s: Mutex<f64>,
    /// `open_sessions` sampled at the hold point (hold mode only).
    held_sessions: Mutex<Option<u64>>,
}

impl FleetShared {
    fn new(n_threads: usize) -> FleetShared {
        FleetShared {
            barrier: Barrier::new(n_threads),
            drive_wall_s: Mutex::new(0.0),
            held_sessions: Mutex::new(None),
        }
    }

    /// Fold one connection's drive window into the fleet-wide maximum.
    fn note_drive(&self, window_s: f64) {
        let mut widest = lock(&self.drive_wall_s);
        if window_s > *widest {
            *widest = window_s;
        }
    }
}

/// Per-session inputs resolved once per drive: the video, the network
/// trace, and the resolved player configuration.
struct SessionCtx {
    handle: VideoHandle,
    trace: net_trace::Trace,
    player: PlayerConfig,
    /// The local scheme's display name, stamped into the remote result so
    /// it compares field-for-field with the parity replay.
    name: String,
    /// The local scheme instance, kept only when the session is selected
    /// for the parity replay.
    local: Option<Box<dyn AbrAlgorithm>>,
}

impl SessionCtx {
    fn build(
        plan: &SessionPlan,
        config: &LoadgenConfig,
        provider: &VideoProvider,
    ) -> Result<SessionCtx, String> {
        let handle =
            provider(&plan.video).ok_or_else(|| format!("provider lost video {:?}", plan.video))?;
        let local =
            scheme::build_scheme(&plan.scheme, &handle.video, plan.vmaf(config.vmaf_model))?;
        Ok(SessionCtx {
            trace: plan.trace(),
            player: plan.player(config.player),
            name: local.name().to_string(),
            local: parity_selected(config, plan.session_id).then_some(local),
            handle,
        })
    }
}

/// A session in flight: its index into the connection's plans, its
/// inputs, and the simulator suspended at its next decision point.
struct Live<'c> {
    i: usize,
    ctx: &'c SessionCtx,
    stepper: SessionStepper<'c>,
}

/// Fold one `Decide` reply into its session: apply the chosen level, or
/// record the error and finish the session locally at the lowest level,
/// so no further frame goes out for it.
fn apply_reply(
    out: &mut SessionOutcome,
    slot: &mut Live<'_>,
    reply: Result<Frame, String>,
    rtt: f64,
    faulted: bool,
) {
    let n_tracks = slot.ctx.handle.manifest.n_tracks();
    let error = match reply {
        Ok(Frame::Decision {
            session_id,
            response,
        }) if session_id == out.plan.session_id => {
            if response.level < n_tracks {
                out.degraded |= response.degraded;
                out.latencies_s.push(rtt);
                out.latency_faulted.push(faulted);
                slot.stepper.apply_level(response.level);
                return;
            }
            format!(
                "server chose level {} outside 0..{n_tracks}",
                response.level
            )
        }
        Ok(Frame::Error { code, message }) => format!("{code:?}: {message}"),
        Ok(other) => format!("unexpected reply {other:?}"),
        Err(e) => e,
    };
    out.error = Some(error);
    slot.stepper.apply_level(0);
    while slot.stepper.next_request().is_some() {
        slot.stepper.apply_level(0);
    }
}

/// One connection's drive: the fault-aware endpoint, the sessions it
/// carries, and what each of them produced.
struct Drive<'a> {
    conn: Conn,
    plans: &'a [SessionPlan],
    config: &'a LoadgenConfig,
    now: &'a (dyn Fn() -> f64 + Sync),
    outcomes: Vec<SessionOutcome>,
}

impl Drive<'_> {
    /// Open the sessions `batch` names in one wave, recording each one's
    /// service mode or error.
    // abr-lint: cold — once-per-session control traffic, not the decision loop
    fn open_batch(&mut self, batch: &[usize]) {
        let plans = self.plans;
        let mut frames = Vec::with_capacity(batch.len());
        for &i in batch {
            let vmaf = scheme::vmaf_model_code(plans[i].vmaf(self.config.vmaf_model));
            frames.push(self.conn.open_frame(&plans[i], vmaf));
        }
        let mut replies = Vec::with_capacity(batch.len());
        let wave = self.conn.exchange(&frames, &mut replies);
        for (k, (&i, reply)) in batch.iter().zip(replies).enumerate() {
            let retried = k >= wave.retried_from;
            match self.conn.opened(plans[i].session_id, reply, retried) {
                Ok(degraded) => self.outcomes[i].degraded = degraded,
                Err(e) => self.outcomes[i].error = Some(e),
            }
        }
    }

    /// Close the sessions `batch` names in one wave, recording each one's
    /// server-side decision count or error.
    // abr-lint: cold — once-per-session control traffic, not the decision loop
    fn close_batch(&mut self, batch: &[usize]) {
        let plans = self.plans;
        let frames: Vec<Frame> = batch
            .iter()
            .map(|&i| Frame::CloseSession {
                session_id: plans[i].session_id,
            })
            .collect();
        let mut replies = Vec::with_capacity(batch.len());
        self.conn.exchange(&frames, &mut replies);
        for (&i, reply) in batch.iter().zip(replies) {
            match self.conn.closed(plans[i].session_id, reply) {
                Ok(decisions) => self.outcomes[i].closed_decisions = decisions,
                Err(e) => self.outcomes[i].error = Some(e),
            }
        }
    }

    /// Drive the sessions `order` names to completion: at most `pipeline`
    /// in flight, each wave one `Decide` per in-flight session, and a
    /// finished session's slot going to the next in `order`. With
    /// `arrival` a session is opened when it takes a slot and closed as
    /// soon as it finishes; otherwise every session is already open and
    /// stays open.
    fn drive(&mut self, order: &[usize], ctxs: &[Option<SessionCtx>], arrival: bool) {
        let pipeline = self.config.pipeline;
        let plans = self.plans;
        let mut live: Vec<Live<'_>> = Vec::with_capacity(pipeline);
        let mut admitted: Vec<usize> = Vec::with_capacity(pipeline);
        let mut finished: Vec<usize> = Vec::with_capacity(pipeline);
        let mut frames: Vec<Frame> = Vec::with_capacity(pipeline);
        let mut replies = Vec::with_capacity(pipeline);
        let mut next = 0;
        loop {
            admitted.clear();
            while live.len() + admitted.len() < pipeline && next < order.len() {
                admitted.push(order[next]);
                next += 1;
            }
            if arrival {
                self.open_batch(&admitted);
            }
            for &i in &admitted {
                if let (Some(ctx), None) = (&ctxs[i], &self.outcomes[i].error) {
                    let stepper = SessionStepper::new(
                        &Simulator::new(ctx.player),
                        &ctx.handle.manifest,
                        &ctx.trace,
                        &plans[i].control,
                    );
                    live.push(Live { i, ctx, stepper });
                }
            }
            if live.is_empty() && next == order.len() {
                break;
            }

            // Collect the wave; sessions that are over leave their slot.
            frames.clear();
            finished.clear();
            let mut k = 0;
            while k < live.len() {
                match live[k].stepper.next_request() {
                    Some(request) => {
                        frames.push(Frame::Decide {
                            session_id: plans[live[k].i].session_id,
                            request,
                        });
                        k += 1;
                    }
                    None => {
                        let done = live.remove(k);
                        if self.outcomes[done.i].error.is_none() {
                            finished.push(done.i);
                        }
                        self.finish(done);
                    }
                }
            }
            if arrival {
                self.close_batch(&finished);
            }
            if frames.is_empty() {
                continue;
            }

            // Every decision in the wave shares its round trip.
            let t0 = (self.now)();
            let wave = self.conn.exchange(&frames, &mut replies);
            let rtt = (self.now)() - t0;
            for (slot, reply) in live.iter_mut().zip(replies.drain(..)) {
                apply_reply(&mut self.outcomes[slot.i], slot, reply, rtt, wave.faulted);
            }
        }
    }

    /// A session is over: keep its result and log its behaviour.
    fn finish(&mut self, done: Live<'_>) {
        let plan = &self.plans[done.i];
        let result = done.stepper.into_result(&done.ctx.name);
        if let Some(recorder) = &self.conn.recorder {
            record_behaviour(recorder, plan.session_id, &plan.control, &result);
        }
        self.outcomes[done.i].result = Some(result);
    }

    /// Sample the server's open-session count over this connection at the
    /// hold point. The request bypasses the fault schedule, and a dead
    /// connection is not redialed here — the next wave does that.
    fn sample_held(&mut self) -> Option<u64> {
        let reply = self.conn.io.as_mut()?.call(&Frame::StatsReq);
        match reply {
            Ok(Frame::StatsReply(stats)) => Some(stats.open_sessions),
            Ok(_) => None,
            Err(_) => {
                self.conn.io = None;
                None
            }
        }
    }

    /// Replay every selected, cleanly served session in-process and record
    /// the verdict. Local work, so it runs outside the drive window.
    fn check_parity(&mut self, ctxs: &mut [Option<SessionCtx>]) {
        for (out, ctx) in self.outcomes.iter_mut().zip(ctxs) {
            let Some(ctx) = ctx else { continue };
            let (Some(local), Some(result)) = (ctx.local.as_mut(), &out.result) else {
                continue;
            };
            if out.error.is_some() || out.degraded {
                continue;
            }
            let replay = Simulator::new(ctx.player).run_controlled(
                local.as_mut(),
                &ctx.handle.manifest,
                &ctx.trace,
                &out.plan.control,
            );
            out.parity = Some(replay == *result);
        }
    }
}

/// One client connection's whole lifetime. Always hits every barrier the
/// other connections will, even after a fatal connect error — otherwise a
/// failed client would deadlock the fleet.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: SocketAddr,
    index: usize,
    plans: &[SessionPlan],
    config: &LoadgenConfig,
    provider: &VideoProvider,
    now: &(dyn Fn() -> f64 + Sync),
    shared: &FleetShared,
    recorder: Option<Arc<Recorder>>,
) -> (Vec<SessionOutcome>, Option<LoadgenError>, ClientStats) {
    let mut conn = Conn::new(addr, index, config.faults, recorder);
    let fatal = conn.ensure_connected().err();
    let mut drive = Drive {
        conn,
        plans,
        config,
        now,
        outcomes: plans
            .iter()
            .map(|p| SessionOutcome::new(p.clone()))
            .collect(),
    };
    // Resolve every session's inputs up front; failures stay per-session.
    let mut ctxs: Vec<Option<SessionCtx>> = drive
        .outcomes
        .iter_mut()
        .map(|out| {
            let ctx = match &fatal {
                Some(e) => Err(format!("connection failed: {e}")),
                None => SessionCtx::build(&out.plan, config, provider),
            };
            ctx.map_err(|e| out.error = Some(e)).ok()
        })
        .collect();
    let ready: Vec<usize> = (0..plans.len()).filter(|&i| ctxs[i].is_some()).collect();

    if config.hold {
        for batch in ready.chunks(config.pipeline) {
            drive.open_batch(batch);
        }
        if shared.barrier.wait().is_leader() {
            if let Some(held) = drive.sample_held() {
                *lock(&shared.held_sessions) = Some(held);
            }
        }
        let t_drive = now();
        let opened: Vec<usize> = ready
            .into_iter()
            .filter(|&i| drive.outcomes[i].error.is_none())
            .collect();
        drive.drive(&opened, &ctxs, false);
        shared.note_drive(now() - t_drive);
        shared.barrier.wait();
        let closable: Vec<usize> = opened
            .into_iter()
            .filter(|&i| drive.outcomes[i].error.is_none())
            .collect();
        for batch in closable.chunks(config.pipeline) {
            drive.close_batch(batch);
        }
    } else {
        // Arrival mode has no hold phase: the drive window spans the whole
        // open→drive→close loop.
        let t_drive = now();
        drive.drive(&ready, &ctxs, true);
        shared.note_drive(now() - t_drive);
    }
    drive.check_parity(&mut ctxs);
    (drive.outcomes, fatal, drive.conn.stats)
}

/// Run the fleet against the server at `addr`. Latency and wall time come
/// from the injected `now` closure (monotonic seconds).
pub fn run(
    addr: SocketAddr,
    config: &LoadgenConfig,
    provider: &VideoProvider,
    now: &(dyn Fn() -> f64 + Sync),
) -> Result<LoadgenReport, LoadgenError> {
    run_recorded(addr, config, provider, now, None)
}

/// [`run`] with an event recorder attached: every fault the fleet injects
/// is logged as an [`Event::FaultInjected`] (see [`crate::replay`]). Pass
/// the same recorder the server was bound with to interleave client-side
/// fault events with the server's own frame and store events.
pub fn run_recorded(
    addr: SocketAddr,
    config: &LoadgenConfig,
    provider: &VideoProvider,
    now: &(dyn Fn() -> f64 + Sync),
    recorder: Option<Arc<Recorder>>,
) -> Result<LoadgenReport, LoadgenError> {
    let plans = plan(config)?;
    let t0 = now();
    let n_threads = config.connections.min(plans.len()).max(1);
    let shared = FleetShared::new(n_threads);
    let collected: Mutex<Vec<Option<SessionOutcome>>> = Mutex::new(vec![None; plans.len()]);
    let fatal: Mutex<Option<LoadgenError>> = Mutex::new(None);
    let client_stats: Mutex<ClientStats> = Mutex::new(ClientStats::default());

    thread::scope(|scope| {
        for t in 0..n_threads {
            let my_plans: Vec<SessionPlan> =
                plans.iter().skip(t).step_by(n_threads).cloned().collect();
            let shared = &shared;
            let collected = &collected;
            let fatal = &fatal;
            let client_stats = &client_stats;
            let recorder = recorder.clone();
            scope.spawn(move || {
                let (outcomes, err, stats) =
                    drive_connection(addr, t, &my_plans, config, provider, now, shared, recorder);
                let mut slots = lock(collected);
                for out in outcomes {
                    let idx = (out.plan.session_id - 1) as usize;
                    slots[idx] = Some(out);
                }
                lock(client_stats).absorb(&stats);
                if let Some(e) = err {
                    let mut f = lock(fatal);
                    if f.is_none() {
                        *f = Some(e);
                    }
                }
            });
        }
    });

    let wall_time_s = now() - t0;
    if let Some(e) = lock(&fatal).take() {
        return Err(e);
    }
    let outcomes: Vec<SessionOutcome> = lock(&collected)
        .drain(..)
        .map(|slot| slot.ok_or(LoadgenError::BadConfig("session slot never filled".into())))
        .collect::<Result<_, _>>()?;

    let server_stats = fetch_stats(addr).ok();
    let client_stats = *lock(&client_stats);
    let drive_wall_s = *lock(&shared.drive_wall_s);
    let held_sessions = *lock(&shared.held_sessions);
    Ok(LoadgenReport {
        outcomes,
        wall_time_s,
        drive_wall_s,
        held_sessions,
        server_stats,
        client_stats,
    })
}

/// Sample the server's counters over a fresh connection.
pub fn fetch_stats(addr: SocketAddr) -> Result<StatsSnapshot, LoadgenError> {
    let mut io = FrameIo::connect(addr)?;
    io.handshake()?;
    match io.call(&Frame::StatsReq)? {
        Frame::StatsReply(stats) => Ok(stats),
        Frame::Error { code, message } => Err(LoadgenError::Server(format!("{code:?}: {message}"))),
        other => Err(LoadgenError::Unexpected(format!("{other:?}"))),
    }
}

/// Ask the server at `addr` to shut down and wait for the acknowledgement.
pub fn shutdown_server(addr: SocketAddr) -> Result<(), LoadgenError> {
    let mut io = FrameIo::connect(addr)?;
    io.handshake()?;
    match io.call(&Frame::Shutdown)? {
        Frame::ShutdownOk => Ok(()),
        Frame::Error { code, message } => Err(LoadgenError::Server(format!("{code:?}: {message}"))),
        other => Err(LoadgenError::Unexpected(format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_covers_every_session() {
        let config = LoadgenConfig {
            sessions: 20,
            ..LoadgenConfig::default()
        };
        let a = plan(&config).unwrap();
        let b = plan(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        let mut ids: Vec<u64> = a.iter().map(|p| p.session_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
        // Attributes are keyed by session index, not arrival order.
        for p in &a {
            let idx = (p.session_id - 1) as usize;
            assert_eq!(p.scheme, config.schemes[idx % config.schemes.len()]);
            assert_eq!(p.trace_seed, config.seed.wrapping_add(idx as u64));
        }
    }

    #[test]
    fn different_seeds_shuffle_differently() {
        let base = LoadgenConfig {
            sessions: 32,
            ..LoadgenConfig::default()
        };
        let a = plan(&base).unwrap();
        let b = plan(&LoadgenConfig { seed: 7, ..base }).unwrap();
        assert_ne!(
            a.iter().map(|p| p.session_id).collect::<Vec<_>>(),
            b.iter().map(|p| p.session_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn population_plan_is_deterministic_and_arrival_ordered() {
        let config = LoadgenConfig {
            population: Some(PopConfig {
                sessions: 64,
                ..PopConfig::default()
            }),
            sessions: 0, // ignored in population mode
            ..LoadgenConfig::default()
        };
        let a = plan(&config).unwrap();
        let b = plan(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        // Every session appears once, with cohort and control attached.
        let mut ids: Vec<u64> = a.iter().map(|p| p.session_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=64).collect::<Vec<u64>>());
        assert!(a.iter().all(|p| p.cohort.is_some()));
        // Arrival order matches the population's own schedule.
        let pop = Population::new(config.population.unwrap());
        let sched = pop.schedule();
        for (p, v) in a.iter().zip(&sched) {
            assert_eq!(p.session_id, v.index as u64 + 1);
            assert_eq!(p.trace_seed, v.trace_seed);
            assert_eq!(p.control, v.control);
        }
        // Some viewers abandon and some seek — the behaviour overlay made
        // it into the plans.
        assert!(a.iter().any(|p| p.control.abandon_at_s.is_some()));
        assert!(a.iter().any(|p| !p.control.seeks.is_empty()));
    }

    /// An open whose frame died mid-wave: the reconnect's resume misses the
    /// session (it never landed) and marks it lost; the resent open then
    /// lands. From there on the session is live, so a later
    /// `UnknownSession` on close is a genuine error, not a lost ack.
    #[test]
    fn an_open_that_lands_on_resend_is_no_longer_lost() {
        let config = LoadgenConfig::default();
        let plans = plan(&config).unwrap();
        let sid = plans[0].session_id;
        let mut conn = Conn::new("127.0.0.1:9".parse().unwrap(), 0, None, None);
        let open = conn.open_frame(&plans[0], 0);
        assert!(matches!(open, Frame::OpenSession { session_id, .. } if session_id == sid));
        let unknown = |message: &str| Frame::Error {
            code: ErrorCode::UnknownSession,
            message: message.into(),
        };
        conn.resumed(sid, unknown("resume")).unwrap();
        assert!(conn.lost.contains(&sid));
        let reply = Ok(Frame::OpenOk {
            session_id: sid,
            degraded: false,
            n_tracks: 6,
            n_chunks: 10,
        });
        assert_eq!(conn.opened(sid, reply, true), Ok(false));
        assert!(!conn.lost.contains(&sid));
        assert!(conn.closed(sid, Ok(unknown("close"))).is_err());
    }

    #[test]
    fn bad_configs_are_rejected() {
        let ok = LoadgenConfig::default();
        for broken in [
            LoadgenConfig {
                sessions: 0,
                ..ok.clone()
            },
            LoadgenConfig {
                connections: 0,
                ..ok.clone()
            },
            LoadgenConfig {
                videos: vec![],
                ..ok.clone()
            },
            LoadgenConfig {
                schemes: vec!["nope".into()],
                ..ok.clone()
            },
            LoadgenConfig {
                videos: vec!["no-such-video".into()],
                ..ok.clone()
            },
        ] {
            assert!(matches!(plan(&broken), Err(LoadgenError::BadConfig(_))));
        }
    }
}
