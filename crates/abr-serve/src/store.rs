//! The multi-tenant session store.
//!
//! Each open session is one `SessionState`: a boxed [`AbrAlgorithm`], its
//! accumulated throughput history, and the retransmission cache, stepped
//! by `SessionState::decide`. The replay player steps the same type, so
//! CAVR replay checks the code that served the run, not a copy of it. The
//! manifest is shared through a [`VideoHandle`] handed out by a memoizing
//! [`VideoProvider`], so a thousand sessions on the same title share one
//! synthesized video. Admission is capacity-bounded: at capacity the store
//! first reclaims orphans and then evicts sessions idle for more than
//! [`StoreConfig::idle_ticks`] logical ticks, and if that frees nothing it
//! still admits the session — in **degraded** mode, where every decide is
//! answered by a fresh stateless RBA instead of erroring. Graceful
//! degradation over hard failure, per the roadmap's overload posture.
//!
//! Every removal other than a close — orphan sweeps, orphan reclaim, idle
//! eviction, and the aborts of a grace-0 connection drop — goes through
//! one reclaim pass that walks the shards one lock at a time. The store
//! also keeps every session counter the server reports (opened, closed,
//! aborted, evicted, orphaned, resumed, degraded, decisions, peak); see
//! [`SessionStore::stats`].
//!
//! Concurrency layout: the session map is **sharded** by
//! `session_id % StoreConfig::shards`, each shard behind its own
//! short-lived lock, so admission, resume, sweeps, and eviction on one
//! session never contend with decisions on the rest of the fleet. Each
//! session additionally carries its own lock held only for the duration of
//! one decision. Decisions on different sessions proceed in
//! parallel; decisions on one session serialize, which is exactly the
//! ordering the parity guarantee needs. Cross-shard bookkeeping (open
//! count, parked-orphan count) lives in atomics: `open_sessions` is O(1)
//! and orphan sweeps are skipped entirely while no orphan exists, so
//! admission stays O(1) at 100k+ held sessions. No two shard locks are
//! ever held at once. Idle-ness is measured in logical ticks (one per
//! store operation), not wall time — this crate reads no clock.

use crate::lock;
use crate::protocol::{ErrorCode, StatsSnapshot};
use crate::replay::{Event, Recorder};
use crate::scheme::{self, SchemeKind};
use abr_baselines::Rba;
use abr_sim::{AbrAlgorithm, DecisionRequest, DecisionResponse};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vbr_video::quality::VmafModel;
use vbr_video::{Manifest, Video};

/// A shared, immutable (video, manifest) pair.
#[derive(Clone)]
pub struct VideoHandle {
    /// The synthesized video (quality tables included).
    pub video: Arc<Video>,
    /// Its manifest, the view algorithms decide against.
    pub manifest: Arc<Manifest>,
}

impl VideoHandle {
    /// Build a handle by deriving the manifest from `video`.
    pub fn new(video: Video) -> VideoHandle {
        VideoHandle {
            manifest: Arc::new(Manifest::from_video(&video)),
            video: Arc::new(video),
        }
    }
}

/// Resolves a video name to a [`VideoHandle`], or `None` if unknown. The
/// provider owns whatever caching it wants; [`dataset_provider`] memoizes,
/// and `bench` plugs in its engine cache.
pub type VideoProvider = Arc<dyn Fn(&str) -> Option<VideoHandle> + Send + Sync>;

/// A [`VideoProvider`] over the built-in dataset (plus the two encoder
/// variants), memoizing each synthesized video on first use.
pub fn dataset_provider() -> VideoProvider {
    let cache: Mutex<BTreeMap<String, VideoHandle>> = Mutex::new(BTreeMap::new());
    Arc::new(move |name: &str| {
        if let Some(hit) = lock(&cache).get(name) {
            return Some(hit.clone());
        }
        // Synthesis happens outside the lock; a racing thread may do the
        // same work once, but the first insert wins and both get one handle.
        let handle = VideoHandle::new(scheme::load_video(name).ok()?);
        let mut map = lock(&cache);
        Some(map.entry(name.to_string()).or_insert(handle).clone())
    })
}

/// Store sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Maximum sessions admitted with full (stateful) service.
    pub capacity: usize,
    /// Logical-tick idle threshold beyond which a session is evictable
    /// when the store is at capacity.
    pub idle_ticks: u64,
    /// Logical-tick grace window an **orphaned** session (its connection
    /// died without closing it) survives awaiting a `ResumeSession`. `0`
    /// disables orphaning entirely: a dead connection reaps its sessions
    /// immediately, the pre-resume behavior.
    pub orphan_grace_ticks: u64,
    /// Session-map shards; ids land on shard `session_id % shards`. More
    /// shards mean less lock contention between sessions; `0` is treated
    /// as `1`.
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            capacity: 1024,
            idle_ticks: 100_000,
            orphan_grace_ticks: 50_000,
            shards: 8,
        }
    }
}

/// Typed admission/lookup failure, mapped onto wire [`ErrorCode`]s by the
/// server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The provider does not know the named video.
    UnknownVideo(String),
    /// The scheme registry does not know the named scheme.
    UnknownScheme(String),
    /// No live session has this id.
    UnknownSession(u64),
    /// A live session already has this id.
    DuplicateSession(u64),
    /// The VMAF model code is outside the protocol.
    BadVmafModel(u8),
    /// `resume` targeted a session still attached to a live connection.
    SessionBusy(u64),
}

impl StoreError {
    /// The wire code this error is reported as.
    pub fn code(&self) -> ErrorCode {
        match self {
            StoreError::UnknownVideo(_) => ErrorCode::UnknownVideo,
            StoreError::UnknownScheme(_) => ErrorCode::UnknownScheme,
            StoreError::UnknownSession(_) => ErrorCode::UnknownSession,
            StoreError::DuplicateSession(_) => ErrorCode::DuplicateSession,
            StoreError::BadVmafModel(_) => ErrorCode::BadFrame,
            StoreError::SessionBusy(_) => ErrorCode::SessionBusy,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownVideo(name) => write!(f, "unknown video {name:?}"),
            StoreError::UnknownScheme(name) => write!(f, "unknown scheme {name:?}"),
            StoreError::UnknownSession(id) => write!(f, "unknown session {id}"),
            StoreError::DuplicateSession(id) => write!(f, "session {id} already open"),
            StoreError::BadVmafModel(code) => write!(f, "VMAF model code {code} outside {{0,1}}"),
            StoreError::SessionBusy(id) => {
                write!(f, "session {id} is attached to a live connection")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What an admission produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenOutcome {
    /// True when the session was admitted in stateless fallback mode.
    pub degraded: bool,
    /// Track count of the bound manifest.
    pub n_tracks: usize,
    /// Chunk count of the bound manifest.
    pub n_chunks: usize,
}

/// What a `resume` produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeOutcome {
    /// True when the session runs in stateless fallback mode.
    pub degraded: bool,
    /// Decisions served before the reconnect.
    pub decisions: u64,
    /// Track count of the bound manifest.
    pub n_tracks: usize,
    /// Chunk count of the bound manifest.
    pub n_chunks: usize,
}

/// One session's decision state, and the one decision step over it.
///
/// The store keeps one behind each slot's lock, and the replay player
/// keeps one per replayed session, so a recorded run is checked by the
/// very code that served it.
pub(crate) struct SessionState {
    pub(crate) video: VideoHandle,
    /// `None` marks a degraded session: no per-session algorithm state,
    /// every decide is served by a fresh stateless RBA.
    pub(crate) algo: Option<Box<dyn AbrAlgorithm + Send>>,
    pub(crate) history: Vec<f64>,
    /// Decisions applied (retransmits answered from cache excluded).
    pub(crate) decisions: u64,
    /// The last *applied* request and its answer, for retransmission
    /// dedup: a client resending the identical request after a reconnect
    /// gets the cached response instead of advancing algorithm state twice
    /// (see [`DecisionRequest::is_retransmit_of`]).
    pub(crate) last_request: Option<DecisionRequest>,
    pub(crate) last_response: Option<DecisionResponse>,
}

impl SessionState {
    /// A fresh session on `video`; `algo: None` makes it degraded.
    pub(crate) fn new(
        video: VideoHandle,
        algo: Option<Box<dyn AbrAlgorithm + Send>>,
    ) -> SessionState {
        // Sized for the whole playback up front: `decide` pushes one
        // throughput sample per chunk, and a session serves at most
        // `n_chunks` chunks, so the hot path never regrows it.
        let history = Vec::with_capacity(video.manifest.n_chunks());
        SessionState {
            video,
            algo,
            history,
            decisions: 0,
            last_request: None,
            last_response: None,
        }
    }

    /// Serve one decision; the flag is true when the answer came from the
    /// retransmission cache. A request that is a bit-for-bit retransmission
    /// of the last applied one answers from cache without touching
    /// algorithm state. Otherwise full sessions accumulate the request's
    /// newest throughput observation and run their own algorithm, and
    /// degraded sessions get a fresh stateless RBA.
    pub(crate) fn decide(&mut self, request: &DecisionRequest) -> (DecisionResponse, bool) {
        if let (Some(prev), Some(cached)) = (&self.last_request, self.last_response) {
            if request.is_retransmit_of(prev) {
                return (cached, true);
            }
        }
        self.decisions += 1;
        let response = match &mut self.algo {
            Some(algo) => {
                if let Some(tp) = request.latest_throughput_bps {
                    self.history.push(tp);
                }
                let ctx = request.context(&self.video.manifest, &self.history);
                DecisionResponse {
                    level: algo.choose_level(&ctx),
                    degraded: false,
                }
            }
            None => {
                let mut fallback = Rba::paper_default();
                let ctx = request.context(&self.video.manifest, &[]);
                DecisionResponse {
                    level: fallback.choose_level(&ctx),
                    degraded: true,
                }
            }
        };
        self.last_request = Some(*request);
        self.last_response = Some(response);
        (response, false)
    }
}

/// Owner sentinel for an orphaned slot. Real connection ids are minted
/// from 1 by the server's connection sequence.
const ORPHANED: u64 = 0;

struct SessionSlot {
    /// Connection currently attached to the session ([`ORPHANED`] when its
    /// connection died and the slot awaits a `ResumeSession`).
    owner: AtomicU64,
    /// Tick of the slot's last use, for idle eviction and orphan grace.
    last_used: AtomicU64,
    state: Mutex<SessionState>,
}

/// The session half of [`StatsSnapshot`], as the store counts it.
#[derive(Default)]
struct Books {
    opened: AtomicU64,
    degraded_opens: AtomicU64,
    peak: AtomicU64,
    closed: AtomicU64,
    /// Sessions removed by a grace-0 connection drop.
    aborted: AtomicU64,
    orphaned: AtomicU64,
    orphan_reaped: AtomicU64,
    resumed: AtomicU64,
    evicted: AtomicU64,
    /// Every decide answered, retransmits included.
    decisions: AtomicU64,
    degraded_decisions: AtomicU64,
}

/// The session store. All methods are `&self` and thread-safe.
pub struct SessionStore {
    config: StoreConfig,
    provider: VideoProvider,
    /// Session slots, sharded by `session_id % shards.len()`. No method
    /// ever holds two shard locks at once.
    shards: Vec<Mutex<BTreeMap<u64, Arc<SessionSlot>>>>,
    /// Live sessions across all shards: `open_sessions` and the capacity
    /// check read this instead of walking the shards.
    open_count: AtomicU64,
    /// Slots currently parked ownerless. Orphan sweeps are skipped
    /// entirely while this is zero, which keeps admission O(1) on the
    /// clean path however many sessions are held.
    orphan_count: AtomicU64,
    tick: AtomicU64,
    books: Books,
    /// Optional event recorder (see [`crate::replay`]). Transition events
    /// are recorded while the relevant lock is held, so the recorded order
    /// matches the order mutations were applied in; the recorder's own
    /// lock is a leaf.
    recorder: Option<Arc<Recorder>>,
}

impl SessionStore {
    /// Create an empty store.
    pub fn new(config: StoreConfig, provider: VideoProvider) -> SessionStore {
        SessionStore::recorded(config, provider, None)
    }

    /// Create an empty store that records every session transition to
    /// `recorder` (when given). [`SessionStore::new`] delegates here with
    /// recording off.
    pub fn recorded(
        config: StoreConfig,
        provider: VideoProvider,
        recorder: Option<Arc<Recorder>>,
    ) -> SessionStore {
        let n_shards = config.shards.max(1);
        SessionStore {
            config,
            provider,
            shards: (0..n_shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            open_count: AtomicU64::new(0),
            orphan_count: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            books: Books::default(),
            recorder,
        }
    }

    fn note(&self, event: Event) {
        if let Some(recorder) = &self.recorder {
            recorder.record(&event);
        }
    }

    fn bump_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The shard holding `session_id`.
    fn shard(&self, session_id: u64) -> &Mutex<BTreeMap<u64, Arc<SessionSlot>>> {
        &self.shards[(session_id % self.shards.len() as u64) as usize]
    }

    /// Bookkeeping for a slot leaving its shard map, whatever removed it.
    fn forget(&self, slot: &SessionSlot) {
        self.open_count.fetch_sub(1, Ordering::Relaxed);
        if slot.owner.load(Ordering::Relaxed) == ORPHANED {
            self.orphan_count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Remove every slot `doomed` picks, one shard lock at a time, counting
    /// each in `counter` and recording `event(id)` under the shard lock.
    /// Shards are visited in order and ids in ascending order within one.
    fn reclaim(
        &self,
        counter: &AtomicU64,
        doomed: impl Fn(&SessionSlot) -> bool,
        event: impl Fn(u64) -> Event,
    ) {
        for shard in &self.shards {
            lock(shard).retain(|&id, slot| {
                if !doomed(slot) {
                    return true;
                }
                self.forget(slot);
                counter.fetch_add(1, Ordering::Relaxed);
                self.note(event(id));
                false
            });
        }
    }

    /// Reap orphans whose grace window has lapsed. Runs on every admission
    /// and connection drop so orphans cannot accumulate even without
    /// capacity pressure — but exits at once (no locks) while no orphan
    /// exists.
    fn sweep_orphans(&self, tick: u64) {
        if self.orphan_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let grace = self.config.orphan_grace_ticks;
        self.reclaim(
            &self.books.orphan_reaped,
            |slot| {
                slot.owner.load(Ordering::Relaxed) == ORPHANED
                    && tick.saturating_sub(slot.last_used.load(Ordering::Relaxed)) > grace
            },
            |session_id| Event::OrphanReaped { session_id },
        );
    }

    /// Admit a session for connection `conn`. Over capacity, idle sessions
    /// are evicted first; if the store is still full the session is
    /// admitted **degraded** rather than rejected.
    ///
    /// Admission allocates by design (scheme construction, the session
    /// slot) — it runs once per session, not per decision.
    // abr-lint: cold — admission/reclaim path; the per-decision path is `decide`
    pub fn open(
        &self,
        conn: u64,
        session_id: u64,
        video_name: &str,
        scheme_name: &str,
        vmaf_code: u8,
    ) -> Result<OpenOutcome, StoreError> {
        let model: VmafModel =
            scheme::vmaf_model_from_code(vmaf_code).ok_or(StoreError::BadVmafModel(vmaf_code))?;
        let kind = SchemeKind::from_wire(scheme_name)
            .ok_or_else(|| StoreError::UnknownScheme(scheme_name.to_string()))?;
        let handle = (self.provider)(video_name)
            .ok_or_else(|| StoreError::UnknownVideo(video_name.to_string()))?;
        // Scheme construction can be heavy (PANDA-CQ precomputes quality
        // tables), so it happens before the map lock. A degraded admission
        // throws the instance away — correctness first, the overload path
        // is not the fast path.
        let algo = kind.build(&handle.video, model);
        let tick = self.bump_tick();
        let n_tracks = handle.manifest.n_tracks();
        let n_chunks = handle.manifest.n_chunks();

        self.sweep_orphans(tick);
        // The reclaim passes below lock other shards, so the home-shard
        // lock cannot be held across them (no two shard locks at once);
        // the insert re-checks for a duplicate under the same lock.
        if lock(self.shard(session_id)).contains_key(&session_id) {
            return Err(StoreError::DuplicateSession(session_id));
        }
        let at_capacity =
            |s: &SessionStore| s.open_count.load(Ordering::Relaxed) >= s.config.capacity as u64;
        if at_capacity(self) && self.orphan_count.load(Ordering::Relaxed) > 0 {
            // Orphans are the cheapest reclaim under pressure: their
            // connection is already dead, so resume-after-eviction is a
            // clean typed UnknownSession, not lost live service.
            self.reclaim(
                &self.books.orphan_reaped,
                |slot| slot.owner.load(Ordering::Relaxed) == ORPHANED,
                |session_id| Event::OrphanReaped { session_id },
            );
        }
        if at_capacity(self) {
            let threshold = self.config.idle_ticks;
            self.reclaim(
                &self.books.evicted,
                |slot| {
                    // A slot whose state lock is held has a decision in
                    // flight on another worker — never evict it mid-decide,
                    // whatever its idle age claims.
                    let in_flight = matches!(
                        slot.state.try_lock(),
                        Err(std::sync::TryLockError::WouldBlock)
                    );
                    !in_flight
                        && tick.saturating_sub(slot.last_used.load(Ordering::Relaxed)) > threshold
                },
                |session_id| Event::SessionEvicted { session_id },
            );
        }
        let degraded = at_capacity(self);
        let slot = Arc::new(SessionSlot {
            owner: AtomicU64::new(conn),
            last_used: AtomicU64::new(tick),
            state: Mutex::new(SessionState::new(handle, (!degraded).then_some(algo))),
        });
        let mut map = lock(self.shard(session_id));
        if map.contains_key(&session_id) {
            return Err(StoreError::DuplicateSession(session_id));
        }
        map.insert(session_id, slot);
        let open = self.open_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.books.opened.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.books.degraded_opens.fetch_add(1, Ordering::Relaxed);
        }
        self.books.peak.fetch_max(open, Ordering::Relaxed);
        self.note(Event::SessionOpened {
            conn,
            session_id,
            video: video_name.to_string(),
            scheme: scheme_name.to_string(),
            vmaf_model: vmaf_code,
            degraded,
            n_tracks: n_tracks as u32,
            n_chunks: n_chunks as u32,
        });
        Ok(OpenOutcome {
            degraded,
            n_tracks,
            n_chunks,
        })
    }

    /// Re-attach an orphaned session to connection `conn`. The session's
    /// algorithm state, throughput history, and retransmission cache are
    /// untouched, so the decision stream continues exactly where the dead
    /// connection left it. Sessions still attached to a live connection
    /// answer [`StoreError::SessionBusy`] (the old worker has not finished
    /// tearing the connection down yet — retryable); evicted or closed
    /// ones answer [`StoreError::UnknownSession`].
    pub fn resume(&self, conn: u64, session_id: u64) -> Result<ResumeOutcome, StoreError> {
        let tick = self.bump_tick();
        let map = lock(self.shard(session_id));
        let slot = map
            .get(&session_id)
            .ok_or(StoreError::UnknownSession(session_id))?;
        if slot.owner.load(Ordering::Relaxed) != ORPHANED {
            return Err(StoreError::SessionBusy(session_id));
        }
        slot.owner.store(conn, Ordering::Relaxed);
        slot.last_used.store(tick, Ordering::Relaxed);
        self.orphan_count.fetch_sub(1, Ordering::Relaxed);
        self.books.resumed.fetch_add(1, Ordering::Relaxed);
        let state = lock(&slot.state);
        self.note(Event::SessionResumed {
            session_id,
            conn,
            decisions: state.decisions,
        });
        Ok(ResumeOutcome {
            degraded: state.algo.is_none(),
            decisions: state.decisions,
            n_tracks: state.video.manifest.n_tracks(),
            n_chunks: state.video.manifest.n_chunks(),
        })
    }

    /// Serve one decision through the session's `SessionState::decide`:
    /// full sessions run their own algorithm, degraded ones a fresh
    /// stateless RBA.
    ///
    /// A request that is a bit-for-bit retransmission of the last applied
    /// one (a client retrying after its connection died mid round-trip)
    /// answers from cache without touching algorithm state — exactly-once
    /// application, which is what keeps decision parity intact across
    /// reconnects.
    // abr-lint: hot-path
    pub fn decide(
        &self,
        session_id: u64,
        request: &DecisionRequest,
    ) -> Result<DecisionResponse, StoreError> {
        let tick = self.bump_tick();
        let slot = lock(self.shard(session_id))
            .get(&session_id)
            .cloned()
            .ok_or(StoreError::UnknownSession(session_id))?;
        slot.last_used.store(tick, Ordering::Relaxed);
        let mut state = lock(&slot.state);
        let (response, retransmit) = state.decide(request);
        self.books.decisions.fetch_add(1, Ordering::Relaxed);
        if response.degraded {
            self.books
                .degraded_decisions
                .fetch_add(1, Ordering::Relaxed);
        }
        // Recorded under the session's state lock: the log's per-session
        // decision order is exactly the order state advanced in.
        self.note(Event::Decision {
            session_id,
            retransmit,
            request: *request,
            response,
        });
        Ok(response)
    }

    /// Retire a session, returning its lifetime decision count.
    pub fn close(&self, session_id: u64) -> Result<u64, StoreError> {
        self.bump_tick();
        let slot = lock(self.shard(session_id))
            .remove(&session_id)
            .ok_or(StoreError::UnknownSession(session_id))?;
        self.forget(&slot);
        self.books.closed.fetch_add(1, Ordering::Relaxed);
        let decisions = lock(&slot.state).decisions;
        self.note(Event::SessionClosed {
            session_id,
            decisions,
        });
        Ok(decisions)
    }

    /// Handle the death of connection `conn`: its sessions are orphaned
    /// (resumable within [`StoreConfig::orphan_grace_ticks`] logical
    /// ticks) — or removed outright when the grace window is zero. Lapsed
    /// orphans from earlier disconnects are swept on the same pass.
    pub fn drop_connection(&self, conn: u64) {
        let tick = self.bump_tick();
        if self.config.orphan_grace_ticks == 0 {
            self.reclaim(
                &self.books.aborted,
                |slot| slot.owner.load(Ordering::Relaxed) == conn,
                |session_id| Event::SessionAborted { session_id, conn },
            );
            return;
        }
        for shard in &self.shards {
            let map = lock(shard);
            for (id, slot) in map.iter() {
                if slot.owner.load(Ordering::Relaxed) == conn {
                    slot.owner.store(ORPHANED, Ordering::Relaxed);
                    slot.last_used.store(tick, Ordering::Relaxed);
                    self.orphan_count.fetch_add(1, Ordering::Relaxed);
                    self.books.orphaned.fetch_add(1, Ordering::Relaxed);
                    self.note(Event::SessionOrphaned {
                        session_id: *id,
                        conn,
                    });
                }
            }
        }
        self.sweep_orphans(tick);
    }

    /// Sessions currently held. O(1): reads the cross-shard atomic count
    /// instead of walking the shards.
    pub fn open_sessions(&self) -> usize {
        self.open_count.load(Ordering::Relaxed) as usize
    }

    /// Sessions reclaimed by idle eviction so far.
    pub fn evicted_count(&self) -> u64 {
        self.books.evicted.load(Ordering::Relaxed)
    }

    /// Orphaned sessions reaped (grace lapsed or reclaimed under
    /// capacity pressure) so far.
    pub fn orphan_reaped_count(&self) -> u64 {
        self.books.orphan_reaped.load(Ordering::Relaxed)
    }

    /// The session counters of a [`StatsSnapshot`]; the connection and
    /// frame counters, which the server owns, are left at zero.
    // abr-lint: cold — a counter snapshot per `StatsReq`, not per decision
    pub fn stats(&self) -> StatsSnapshot {
        let b = &self.books;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            open_sessions: self.open_count.load(Ordering::Relaxed),
            peak_sessions: get(&b.peak),
            sessions_opened: get(&b.opened),
            sessions_closed: get(&b.closed),
            // Orphans reaped after their grace died without a close too,
            // so they count as aborted.
            sessions_aborted: get(&b.aborted) + get(&b.orphan_reaped),
            sessions_evicted: get(&b.evicted),
            degraded_opens: get(&b.degraded_opens),
            decisions: get(&b.decisions),
            degraded_decisions: get(&b.degraded_decisions),
            sessions_orphaned: get(&b.orphaned),
            sessions_resumed: get(&b.resumed),
            ..StatsSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize, idle_ticks: u64) -> SessionStore {
        store_grace(
            capacity,
            idle_ticks,
            StoreConfig::default().orphan_grace_ticks,
        )
    }

    fn store_grace(capacity: usize, idle_ticks: u64, orphan_grace_ticks: u64) -> SessionStore {
        SessionStore::new(
            StoreConfig {
                capacity,
                idle_ticks,
                orphan_grace_ticks,
                ..StoreConfig::default()
            },
            dataset_provider(),
        )
    }

    fn request_for_chunk(chunk: usize, throughput: Option<f64>) -> DecisionRequest {
        DecisionRequest {
            chunk_index: chunk,
            buffer_s: chunk as f64 * 1.5,
            estimated_bandwidth_bps: throughput,
            last_level: if chunk == 0 { None } else { Some(0) },
            latest_throughput_bps: throughput,
            wall_time_s: chunk as f64 * 4.0,
            startup_complete: chunk > 0,
            visible_chunks: dataset_provider()("ED-youtube-h264")
                .unwrap()
                .manifest
                .n_chunks(),
        }
    }

    fn first_request() -> DecisionRequest {
        let n_chunks = dataset_provider()("ED-youtube-h264")
            .unwrap()
            .manifest
            .n_chunks();
        DecisionRequest {
            chunk_index: 0,
            buffer_s: 0.0,
            estimated_bandwidth_bps: None,
            last_level: None,
            latest_throughput_bps: None,
            wall_time_s: 0.0,
            startup_complete: false,
            visible_chunks: n_chunks,
        }
    }

    #[test]
    fn open_decide_close_lifecycle() {
        let s = store(8, 1_000);
        let out = s.open(1, 7, "ED-youtube-h264", "cava", 0).unwrap();
        assert!(!out.degraded);
        assert!(out.n_tracks > 0 && out.n_chunks > 0);
        let resp = s.decide(7, &first_request()).unwrap();
        assert!(!resp.degraded);
        assert!(resp.level < out.n_tracks);
        assert_eq!(s.close(7).unwrap(), 1);
        assert_eq!(s.open_sessions(), 0);
        assert_eq!(s.close(7), Err(StoreError::UnknownSession(7)));
    }

    #[test]
    fn admission_errors_are_typed() {
        let s = store(8, 1_000);
        assert!(matches!(
            s.open(1, 1, "no-such-video", "cava", 0),
            Err(StoreError::UnknownVideo(_))
        ));
        assert!(matches!(
            s.open(1, 1, "ED-youtube-h264", "no-such-scheme", 0),
            Err(StoreError::UnknownScheme(_))
        ));
        assert!(matches!(
            s.open(1, 1, "ED-youtube-h264", "cava", 9),
            Err(StoreError::BadVmafModel(9))
        ));
        s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap();
        assert_eq!(
            s.open(1, 1, "ED-youtube-h264", "cava", 0),
            Err(StoreError::DuplicateSession(1))
        );
        assert_eq!(
            s.decide(99, &first_request()),
            Err(StoreError::UnknownSession(99))
        );
    }

    #[test]
    fn over_capacity_admission_degrades_not_errors() {
        let s = store(2, 1_000_000);
        s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap();
        s.open(1, 2, "ED-youtube-h264", "bola", 0).unwrap();
        let out = s.open(1, 3, "ED-youtube-h264", "rba", 0).unwrap();
        assert!(out.degraded, "third session should degrade, not fail");
        let resp = s.decide(3, &first_request()).unwrap();
        assert!(resp.degraded);
        // Degraded decisions match a fresh stateless RBA.
        let mut rba = Rba::paper_default();
        let handle = dataset_provider()("ED-youtube-h264").unwrap();
        let req = first_request();
        let expected = rba.choose_level(&req.context(&handle.manifest, &[]));
        assert_eq!(s.decide(3, &req).unwrap().level, expected);
    }

    #[test]
    fn idle_sessions_are_evicted_under_pressure() {
        // idle_ticks 0: any session not used on the current tick is
        // evictable once the store is full.
        let s = store(1, 0);
        s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap();
        let out = s.open(1, 2, "ED-youtube-h264", "bola", 0).unwrap();
        assert!(!out.degraded, "eviction should free a full slot");
        assert_eq!(s.evicted_count(), 1);
        assert_eq!(
            s.decide(1, &first_request()),
            Err(StoreError::UnknownSession(1))
        );
        assert!(s.decide(2, &first_request()).is_ok());
    }

    #[test]
    fn drop_connection_with_zero_grace_reaps_immediately() {
        let s = store_grace(8, 1_000, 0);
        s.open(10, 1, "ED-youtube-h264", "cava", 0).unwrap();
        s.open(10, 2, "ED-youtube-h264", "bola", 0).unwrap();
        s.open(11, 3, "ED-youtube-h264", "rba", 0).unwrap();
        s.drop_connection(10);
        assert_eq!(s.stats().sessions_aborted, 2);
        assert_eq!(s.stats().sessions_orphaned, 0);
        assert_eq!(s.open_sessions(), 1);
        assert!(s.decide(3, &first_request()).is_ok());
        s.drop_connection(10);
        assert_eq!(s.stats().sessions_aborted, 2, "a second drop finds nothing");
    }

    #[test]
    fn orphaned_session_resumes_with_state_intact() {
        let s = store(8, 1_000_000);
        // Two identical cava sessions: one survives a connection death at
        // chunk 3, the control runs uninterrupted. Their decision streams
        // must match step for step.
        s.open(1, 100, "ED-youtube-h264", "cava", 0).unwrap();
        s.open(1, 200, "ED-youtube-h264", "cava", 0).unwrap();
        let mut interrupted = Vec::new();
        let mut control = Vec::new();
        for chunk in 0..3 {
            let req = request_for_chunk(chunk, if chunk == 0 { None } else { Some(2.5e6) });
            interrupted.push(s.decide(100, &req).unwrap().level);
            control.push(s.decide(200, &req).unwrap().level);
        }
        s.drop_connection(1);
        assert_eq!(s.stats().sessions_orphaned, 2);
        assert_eq!(s.stats().sessions_aborted, 0);
        let resumed = s.resume(2, 100).unwrap();
        assert!(!resumed.degraded);
        assert_eq!(resumed.decisions, 3);
        let resumed = s.resume(2, 200).unwrap();
        assert_eq!(resumed.decisions, 3);
        for chunk in 3..8 {
            let req = request_for_chunk(chunk, Some(2.5e6));
            interrupted.push(s.decide(100, &req).unwrap().level);
            control.push(s.decide(200, &req).unwrap().level);
        }
        assert_eq!(interrupted, control);
    }

    #[test]
    fn resume_errors_are_typed() {
        let s = store(8, 1_000);
        s.open(1, 5, "ED-youtube-h264", "cava", 0).unwrap();
        // Still attached to a live connection: busy, not resumable.
        assert_eq!(s.resume(2, 5), Err(StoreError::SessionBusy(5)));
        assert_eq!(s.resume(2, 77), Err(StoreError::UnknownSession(77)));
    }

    #[test]
    fn evicted_orphan_resume_is_clean_unknown_session() {
        // Capacity 1 with orphaning on: the orphan is reclaimed the moment
        // a new admission needs its slot, and a resume racing that
        // eviction gets a typed UnknownSession — never stale state.
        let s = store_grace(1, 0, 1_000_000);
        s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap();
        s.drop_connection(1);
        assert_eq!(s.stats().sessions_orphaned, 1);
        let out = s.open(2, 2, "ED-youtube-h264", "bola", 0).unwrap();
        assert!(!out.degraded, "orphan reclaim should free the slot");
        assert_eq!(s.orphan_reaped_count(), 1);
        assert_eq!(s.resume(3, 1), Err(StoreError::UnknownSession(1)));
        assert!(s.decide(2, &first_request()).is_ok());
    }

    #[test]
    fn lapsed_orphans_are_swept_on_admission() {
        let s = store_grace(8, 1_000_000, 2);
        s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap();
        s.drop_connection(1);
        assert_eq!(s.stats().sessions_orphaned, 1);
        // Each store operation is one logical tick; after the grace window
        // lapses the next admission sweeps the orphan.
        for i in 0..4 {
            s.open(2, 10 + i, "ED-youtube-h264", "rba", 0).unwrap();
        }
        assert_eq!(s.orphan_reaped_count(), 1);
        assert_eq!(s.resume(3, 1), Err(StoreError::UnknownSession(1)));
    }

    #[test]
    fn retransmitted_request_answers_from_cache() {
        let s = store(8, 1_000);
        s.open(1, 9, "ED-youtube-h264", "cava", 0).unwrap();
        let req0 = first_request();
        let fresh = s.decide(9, &req0).unwrap();
        // The identical request replayed (client retry after a dead
        // connection) answers from cache without advancing state.
        assert_eq!(s.decide(9, &req0).unwrap(), fresh);
        let req1 = request_for_chunk(1, Some(2.5e6));
        s.decide(9, &req1).unwrap();
        assert_eq!(
            s.close(9).unwrap(),
            2,
            "replay must not count as a decision"
        );
    }

    /// Every admitted session is closed, aborted, evicted or still held:
    /// `opened == closed + aborted + evicted + open`.
    fn assert_books_balance(s: &SessionStore) {
        let st = s.stats();
        assert_eq!(
            st.sessions_opened,
            st.sessions_closed + st.sessions_aborted + st.sessions_evicted + st.open_sessions,
            "{st:?}"
        );
    }

    /// Run one operation on store `$s`, then check its books.
    macro_rules! step {
        ($s:ident, $op:expr) => {{
            let out = $op;
            assert_books_balance(&$s);
            out
        }};
    }

    #[test]
    fn books_balance_through_every_removal_with_orphaning() {
        // Capacity 2, idle after 3 ticks, orphans lapse after 4 ticks; each
        // store operation is one tick.
        let s = store_grace(2, 3, 4);
        step!(s, s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap());
        step!(s, s.open(1, 2, "ED-youtube-h264", "bola", 0).unwrap());
        step!(s, s.decide(1, &first_request()).unwrap());
        // A retransmit: answered from cache, still a served decision.
        step!(s, s.decide(1, &first_request()).unwrap());
        // Full and nothing idle long enough: degraded admission.
        step!(
            s,
            assert!(s.open(1, 3, "ED-youtube-h264", "rba", 0).unwrap().degraded)
        );
        step!(s, assert!(s.decide(3, &first_request()).unwrap().degraded));
        // Orphan all three, resume one; the next admission reclaims the
        // other two under capacity pressure.
        step!(s, s.drop_connection(1));
        step!(s, s.resume(2, 1).unwrap());
        step!(
            s,
            assert!(!s.open(2, 4, "ED-youtube-h264", "cava", 0).unwrap().degraded)
        );
        assert_eq!(s.orphan_reaped_count(), 2);
        for chunk in 0..5 {
            step!(
                s,
                s.decide(4, &request_for_chunk(chunk, Some(2.5e6))).unwrap()
            );
        }
        // Session 1 has idled past the threshold: evicted for session 5.
        step!(
            s,
            assert!(!s.open(2, 5, "ED-youtube-h264", "bola", 0).unwrap().degraded)
        );
        assert_eq!(s.evicted_count(), 1);
        // Orphan 4 and 5, resume 4; 5's grace lapses before the next open.
        step!(s, s.drop_connection(2));
        step!(s, s.resume(3, 4).unwrap());
        for chunk in 5..9 {
            step!(
                s,
                s.decide(4, &request_for_chunk(chunk, Some(2.5e6))).unwrap()
            );
        }
        step!(s, assert_eq!(s.close(4).unwrap(), 9));
        step!(s, s.open(3, 6, "ED-youtube-h264", "rba", 0).unwrap());
        assert_eq!(s.orphan_reaped_count(), 3, "the lapsed orphan was swept");
        step!(s, s.close(6).unwrap());

        let st = s.stats();
        assert_eq!(st.open_sessions, 0);
        assert_eq!(st.peak_sessions, 3);
        assert_eq!(
            (st.sessions_opened, st.sessions_closed, st.sessions_aborted),
            (6, 2, 3)
        );
        assert_eq!(
            (st.sessions_orphaned, st.sessions_resumed, st.degraded_opens),
            (5, 2, 1)
        );
        assert_eq!((st.decisions, st.degraded_decisions), (12, 1));
    }

    #[test]
    fn books_balance_through_degraded_admission_and_grace_zero_aborts() {
        let s = store_grace(2, 1_000_000, 0);
        step!(s, s.open(1, 1, "ED-youtube-h264", "cava", 0).unwrap());
        step!(s, s.open(1, 2, "ED-youtube-h264", "bola", 0).unwrap());
        step!(
            s,
            assert!(s.open(2, 3, "ED-youtube-h264", "rba", 0).unwrap().degraded)
        );
        step!(s, s.decide(3, &first_request()).unwrap());
        step!(s, s.decide(3, &first_request()).unwrap());
        step!(s, s.drop_connection(1));
        step!(
            s,
            assert_eq!(s.close(3).unwrap(), 1, "the retransmit is not counted")
        );
        let st = s.stats();
        assert_eq!(
            (st.sessions_opened, st.sessions_closed, st.sessions_aborted),
            (3, 1, 2)
        );
        assert_eq!(st.sessions_orphaned, 0);
        // Both decides were served, the retransmit from cache.
        assert_eq!((st.decisions, st.degraded_decisions), (2, 2));
    }

    /// Colliding (same shard) and adjacent (neighbor shard) session ids
    /// admitted, decided, orphaned, resumed, and closed concurrently must
    /// leave the books exact: the cross-shard atomic counts can never
    /// drift from the per-shard maps.
    #[test]
    fn concurrent_shard_boundary_lifecycle_keeps_counts_exact() {
        let shards = StoreConfig::default().shards as u64;
        let s = Arc::new(store(1024, 1_000_000));
        // Warm the provider cache once so threads don't race synthesis.
        dataset_provider()("ED-youtube-h264").unwrap();
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for round in 0..8u64 {
                    // Same home shard for every worker (collide), plus the
                    // two neighbors of that shard (adjacent).
                    let base = (worker * 8 + round) * shards * 4;
                    for id in [base, base + 1, base + shards - 1] {
                        let conn = worker + 1;
                        s.open(conn, id, "ED-youtube-h264", "rba", 0).unwrap();
                        s.decide(id, &first_request()).unwrap();
                    }
                    // Orphan all three, resume one, close it, leave the
                    // other two for the lapsed-orphan sweep.
                    s.drop_connection(worker + 1);
                    s.resume(100 + worker, base).unwrap();
                    assert_eq!(s.close(base).unwrap(), 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 4 workers x 8 rounds x 2 orphans left behind; none reaped yet
        // (grace window far away), every resumed one closed.
        assert_eq!(s.open_sessions(), 4 * 8 * 2);
        assert_eq!(s.orphan_count.load(Ordering::Relaxed), 4 * 8 * 2);
        assert_eq!(s.evicted_count(), 0);
        assert_eq!(s.orphan_reaped_count(), 0);
        let stats = s.stats();
        assert_eq!(stats.sessions_orphaned, 4 * 8 * 3);
        assert_eq!(stats.sessions_resumed, 4 * 8);
        assert_eq!(stats.sessions_closed, 4 * 8);
    }

    /// Capacity-pressure reclaim racing admissions across shards: however
    /// the races land, the store never loses a session (open_count always
    /// matches the union of shard maps at quiescence) and never serves a
    /// decision for a reclaimed slot.
    #[test]
    fn concurrent_reclaim_and_admission_balance_books() {
        let s = Arc::new(store_grace(8, 0, 0));
        dataset_provider()("ED-youtube-h264").unwrap();
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    let id = worker * 1000 + i;
                    s.open(worker + 1, id, "ED-youtube-h264", "rba", 0).unwrap();
                    match s.decide(id, &first_request()) {
                        Ok(_) => {}
                        // Racing eviction may have reclaimed the slot.
                        Err(StoreError::UnknownSession(_)) => {}
                        Err(other) => panic!("unexpected decide error {other}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let held: usize = (0..4 * 1000 + 16)
            .filter(|id| lock(s.shard(*id)).contains_key(id))
            .count();
        assert_eq!(s.open_sessions(), held, "atomic count drifted from maps");
        assert_eq!(s.orphan_count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn provider_memoizes_handles() {
        let provider = dataset_provider();
        let a = provider("ED-youtube-h264").unwrap();
        let b = provider("ED-youtube-h264").unwrap();
        assert!(Arc::ptr_eq(&a.video, &b.video));
        assert!(provider("no-such-video").is_none());
    }
}
