//! The experiment engine: memoized dataset artifacts, one shared scheduler,
//! and the journaled experiment driver.
//!
//! Before the engine existed, every experiment binary rebuilt its videos,
//! manifests, classifications, and trace corpora from scratch, and every
//! `run_*` call spawned its own slab of threads. The engine centralizes all
//! of that:
//!
//! * **Artifact caches** — [`video`], [`video_with`], and [`traces`] memoize
//!   each dataset video (with its [`Manifest`] and [`Classification`]
//!   pre-built, see [`PreparedVideo`]) and each trace corpus behind
//!   process-wide keyed caches, so a full [`run_all`] generates each
//!   artifact exactly once. [`video_generations`]/[`trace_generations`]
//!   count actual builds, which the cache tests pin down.
//! * **Scheduler** — [`run_indexed`] is a dynamic (atomic work-queue)
//!   scheduler over `std::thread::scope`: workers pull the next index until
//!   the queue drains, so an uneven scheme × trace grid load-balances
//!   instead of waiting on the slowest fixed slab. [`run_grid`] flattens a
//!   whole scheme set × trace corpus into that single queue.
//! * **Driver** — [`run_ids`]/[`run_all`] run registry experiments with a
//!   progress line per experiment and a structured [`crate::journal`]
//!   (per-experiment wall time, seeds, trace counts, scheme sets, summary
//!   metrics) written under `results/journal/`.
//!
//! Experiment *bodies* stay sequential — their stdout is the deliverable
//! and must not interleave — while everything inside a body fans out
//! through the shared scheduler, and [`run_all`] pre-builds every dataset
//! video and the trace corpora the experiments read (LTE and FCC) in
//! parallel before the first experiment starts.
//!
//! # Registering and running an experiment
//!
//! ```no_run
//! use abr_bench::engine;
//! use abr_bench::harness::{NetworkRegime, SchemeKind};
//!
//! // An experiment body: fetch cached artifacts, fan out, print, save.
//! fn run() -> std::io::Result<()> {
//!     let video = engine::video("ED-ffmpeg-h264");     // cached, prepared
//!     let traces = engine::traces(NetworkRegime::Lte); // cached corpus
//!     let qoe = NetworkRegime::Lte.corpus_qoe();
//!     let player = abr_sim::PlayerConfig::default();
//!     let grid = engine::run_grid(&SchemeKind::FIG8, &video, &traces, &qoe, &player);
//!     for (scheme, sessions) in &grid {
//!         println!("{}: {} sessions", scheme.name(), sessions.len());
//!     }
//!     Ok(())
//! }
//!
//! // Wire it into `experiments::registry()` as ("my_exp", "...", run),
//! // then drive it (journal + progress included):
//! engine::run_ids(&["my_exp"]).unwrap();
//! ```

use std::collections::BTreeMap;
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use abr_sim::metrics::{QoeConfig, QoeMetrics};
use abr_sim::PlayerConfig;
use net_trace::Trace;
use vbr_video::{Classification, Dataset, Manifest, Video};

use crate::experiments;
use crate::harness::{self, NetworkRegime, SchemeKind};
use crate::journal;

// ---------------------------------------------------------------------------
// Dataset caches
// ---------------------------------------------------------------------------

/// A dataset video with its derived artifacts built once: the manifest the
/// player streams from and the size-quartile classification the evaluation
/// scores against.
///
/// Derefs to [`Video`], so a `&PreparedVideo` can be passed anywhere a
/// `&Video` is expected.
#[derive(Debug, Clone)]
pub struct PreparedVideo {
    /// The synthesized video.
    pub video: Video,
    /// `Manifest::from_video`, built once.
    pub manifest: Manifest,
    /// `Classification::from_video`, built once.
    pub classification: Classification,
}

impl PreparedVideo {
    /// Prepare a video: build its manifest and classification.
    pub fn new(video: Video) -> PreparedVideo {
        let manifest = Manifest::from_video(&video);
        let classification = Classification::from_video(&video);
        PreparedVideo {
            video,
            manifest,
            classification,
        }
    }
}

impl Deref for PreparedVideo {
    type Target = Video;

    fn deref(&self) -> &Video {
        &self.video
    }
}

// Ordered maps throughout (abr-lint rule R2): nothing in this crate may
// iterate in hash order, so that journal and report output is byte-stable.
type VideoCache = Mutex<BTreeMap<String, Arc<PreparedVideo>>>;
type TraceCache = Mutex<BTreeMap<(NetworkRegime, usize), Arc<Vec<Trace>>>>;

static VIDEOS: OnceLock<VideoCache> = OnceLock::new();
static TRACES: OnceLock<TraceCache> = OnceLock::new();
/// Cache insertions per key. Counted per key, not process-wide, so a test
/// can check one key's exactly-once build while other tests in the same
/// binary fill other entries concurrently.
static VIDEO_BUILDS: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());
static TRACE_BUILDS: Mutex<BTreeMap<(NetworkRegime, usize), usize>> = Mutex::new(BTreeMap::new());

/// How many videos have actually been synthesized (cache misses). Stable
/// across repeated [`video`] calls for the same name — the exactly-once
/// guarantee the cache tests assert.
pub fn video_generations() -> usize {
    VIDEO_BUILDS
        .lock()
        .expect("video build counts")
        .values()
        .sum()
}

/// How many times the video cached under `name` was synthesized: 0 before
/// the first [`video`]/[`video_with`] call for it, 1 ever after.
pub fn video_generations_of(name: &str) -> usize {
    let counts = VIDEO_BUILDS.lock().expect("video build counts");
    counts.get(name).copied().unwrap_or(0)
}

/// How many trace corpora have actually been generated (cache misses).
pub fn trace_generations() -> usize {
    TRACE_BUILDS
        .lock()
        .expect("trace build counts")
        .values()
        .sum()
}

/// How many times the `(set, count)` corpus was generated: 0 before the
/// first [`traces_n`] call for it, 1 ever after.
pub fn trace_generations_of(set: NetworkRegime, count: usize) -> usize {
    let counts = TRACE_BUILDS.lock().expect("trace build counts");
    counts.get(&(set, count)).copied().unwrap_or(0)
}

/// The named dataset video, prepared and cached. Accepts every
/// [`Dataset::names`] entry. Repeated calls return the same `Arc`.
///
/// Panics on an unknown name (programmer error: the dataset is static).
pub fn video(name: &str) -> Arc<PreparedVideo> {
    video_with(name, || {
        Dataset::by_name(name).unwrap_or_else(|| panic!("unknown dataset video `{name}`"))
    })
}

/// Like [`video`], but for ad-hoc synthesized videos (chunk-duration and
/// per-title sweeps): on a cache miss, `build` supplies the video, which is
/// then prepared and cached under `name`. The builder's video must be named
/// `name` — mismatches would silently alias cache entries, so this panics.
pub fn video_with(name: &str, build: impl FnOnce() -> Video) -> Arc<PreparedVideo> {
    let cache = VIDEOS.get_or_init(Default::default);
    if let Some(hit) = cache.lock().expect("video cache").get(name) {
        return Arc::clone(hit);
    }
    // Build outside the lock: synthesis is expensive and other names can
    // proceed in parallel. A racing build of the same name is resolved
    // below by keeping the first insertion.
    let video = build();
    assert_eq!(video.name(), name, "video_with: builder name mismatch");
    let prepared = Arc::new(PreparedVideo::new(video));
    let mut guard = cache.lock().expect("video cache");
    match guard.get(name) {
        Some(racer) => Arc::clone(racer),
        None => {
            *VIDEO_BUILDS
                .lock()
                .expect("video build counts")
                .entry(name.to_string())
                .or_default() += 1;
            guard.insert(name.to_string(), Arc::clone(&prepared));
            prepared
        }
    }
}

/// A [`VideoProvider`](abr_serve::store::VideoProvider) backed by the
/// process-wide video cache, so serving-layer experiments (soak, chaos,
/// population) share synthesized videos with every other experiment in the
/// run instead of building their own copies. There is exactly **one**
/// provider per process: every call returns a clone of the same `Arc`, so
/// the handle cache behind it is shared too — the third serving experiment
/// does not get a third copy of every video it touches.
pub fn serve_provider() -> abr_serve::store::VideoProvider {
    static PROVIDER: OnceLock<abr_serve::store::VideoProvider> = OnceLock::new();
    PROVIDER
        .get_or_init(|| {
            let handles: Mutex<BTreeMap<String, abr_serve::store::VideoHandle>> =
                Mutex::new(BTreeMap::new());
            Arc::new(move |name: &str| {
                if !abr_serve::scheme::is_known_video(name) {
                    return None;
                }
                let mut map = handles.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(hit) = map.get(name) {
                    return Some(hit.clone());
                }
                let prepared = video(name);
                let handle = abr_serve::store::VideoHandle {
                    video: Arc::new(prepared.video.clone()),
                    manifest: Arc::new(prepared.manifest.clone()),
                };
                map.insert(name.to_string(), handle.clone());
                Some(handle)
            })
        })
        .clone()
}

/// The evaluation corpus of `set` (base seed
/// [`NetworkRegime::corpus_seed`]) at the current
/// [`harness::trace_count`], cached. Repeated calls return the same `Arc`.
pub fn traces(set: NetworkRegime) -> Arc<Vec<Trace>> {
    traces_n(set, harness::trace_count())
}

/// The trace corpus for `(set, count)`, cached; also journals the corpus
/// use (set name, base seed, count) against the open experiment.
pub fn traces_n(set: NetworkRegime, count: usize) -> Arc<Vec<Trace>> {
    journal::note_traces(set.label(), set.corpus_seed(), count);
    let cache = TRACES.get_or_init(Default::default);
    if let Some(hit) = cache.lock().expect("trace cache").get(&(set, count)) {
        return Arc::clone(hit);
    }
    let generated = Arc::new(set.corpus(count, set.corpus_seed()));
    let mut guard = cache.lock().expect("trace cache");
    match guard.get(&(set, count)) {
        Some(racer) => Arc::clone(racer),
        None => {
            *TRACE_BUILDS
                .lock()
                .expect("trace build counts")
                .entry((set, count))
                .or_default() += 1;
            guard.insert((set, count), Arc::clone(&generated));
            generated
        }
    }
}

/// Warm every cache the full evaluation reads — every [`Dataset::names`]
/// video and the LTE and FCC corpora (no experiment reads the 5G or
/// satellite corpus) — through the shared scheduler, so [`run_all`]'s
/// experiments only ever hit warm caches.
pub fn prefetch() {
    let names = Dataset::names();
    let sets = [NetworkRegime::Lte, NetworkRegime::Fcc];
    let total = names.len() + sets.len();
    run_indexed(total, |i| {
        if i < names.len() {
            video(&names[i]);
        } else {
            traces(sets[i - names.len()]);
        }
    });
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// Default worker count for `n` tasks: `ABR_THREADS` if set (results are
/// identical for any value — see the partitioning-independence test), else
/// available parallelism, capped by the task count.
pub fn default_threads(n: usize) -> usize {
    std::env::var("ABR_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t: &usize| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .min(n)
        .max(1)
}

/// Run `f(0..n)` on the shared dynamic scheduler and collect the results in
/// index order. Workers pull indices from an atomic queue, so long tasks
/// don't strand short ones the way fixed slab partitioning does.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_on(default_threads(n), n, f)
}

/// [`run_indexed`] with an explicit worker count — `threads = 1` is exactly
/// a serial loop, which the partitioning-independence regression test
/// compares against.
pub fn run_indexed_on<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let collected: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in collected {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

/// Run a whole scheme set over one trace corpus as a single flattened
/// scheme × trace task queue — schemes evaluate concurrently instead of one
/// after another. Each session gets a **fresh** algorithm instance, so
/// results are independent of scheduling. Per-scheme session metrics come
/// back in trace order; each scheme's summary is journaled. The result is
/// an ordered map so downstream iteration (tables, CSVs, journals) is
/// byte-stable across runs and machines.
pub fn run_grid(
    schemes: &[SchemeKind],
    video: &PreparedVideo,
    traces: &[Trace],
    qoe: &QoeConfig,
    player: &PlayerConfig,
) -> BTreeMap<SchemeKind, Vec<QoeMetrics>> {
    run_grid_on(
        default_threads(schemes.len() * traces.len()),
        schemes,
        video,
        traces,
        qoe,
        player,
    )
}

/// [`run_grid`] with an explicit worker count — `threads = 1` is exactly a
/// serial loop, which the grid-determinism regression test compares against
/// higher worker counts for byte-identical journal summaries.
pub fn run_grid_on(
    threads: usize,
    schemes: &[SchemeKind],
    video: &PreparedVideo,
    traces: &[Trace],
    qoe: &QoeConfig,
    player: &PlayerConfig,
) -> BTreeMap<SchemeKind, Vec<QoeMetrics>> {
    let sim = abr_sim::Simulator::new(*player);
    let per = traces.len();
    let flat = run_indexed_on(threads, schemes.len() * per, |i| {
        let scheme = schemes[i / per];
        let trace = &traces[i % per];
        let mut algo = scheme.build(video, qoe.vmaf_model);
        let session = sim.run(algo.as_mut(), &video.manifest, trace);
        abr_sim::metrics::evaluate(&session, video, &video.classification, qoe)
    });
    let mut out = BTreeMap::new();
    for (k, scheme) in schemes.iter().enumerate() {
        let sessions = flat[k * per..(k + 1) * per].to_vec();
        harness::journal_scheme_summary(scheme.name(), video.name(), &sessions);
        out.insert(*scheme, sessions);
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run the registry experiments with the given ids, in the given order,
/// under one journal. Unknown ids fail before anything runs. Progress goes
/// to stderr (stdout belongs to the experiments); the journal path is
/// printed at the end.
pub fn run_ids(ids: &[&str]) -> io::Result<()> {
    let registry = experiments::registry();
    let selected: Vec<_> = ids
        .iter()
        .map(|want| {
            registry
                .iter()
                .find(|(id, _, _)| id == want)
                .copied()
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("unknown experiment id `{want}`"),
                    )
                })
        })
        .collect::<io::Result<_>>()?;
    let total = selected.len();
    journal::begin();
    let outcome = (|| {
        for (k, (id, description, entry)) in selected.iter().enumerate() {
            eprintln!("[{}/{total}] {id}: {description}", k + 1);
            journal::begin_experiment(id, description);
            let started = journal::Stopwatch::start();
            entry()?;
            journal::end_experiment();
            eprintln!(
                "[{}/{total}] {id}: done in {:.1}s",
                k + 1,
                started.seconds()
            );
        }
        Ok(())
    })();
    // Always write the journal — a failed run journals what it completed.
    if let Some(path) = journal::finish()? {
        eprintln!("journal: {}", path.display());
    }
    outcome
}

/// Run every registry experiment: prefetch all artifacts in parallel, then
/// drive the full list through [`run_ids`] under one journal.
pub fn run_all() -> io::Result<()> {
    let started = journal::Stopwatch::start();
    eprintln!("prefetching dataset videos and trace corpora...");
    prefetch();
    eprintln!("prefetch done in {:.1}s", started.seconds());
    let registry = experiments::registry();
    let ids: Vec<&str> = registry.iter().map(|(id, _, _)| *id).collect();
    run_ids(&ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_cache_returns_same_arc_and_counts_builds_once() {
        let name = "ToS-ffmpeg-h264";
        let before = video_generations_of(name);
        let a = video(name);
        let after_first = video_generations_of(name);
        let b = video(name);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc");
        // The first call built at most once (another test may have warmed
        // the entry already); the second call must not build at all.
        assert!(after_first - before <= 1);
        assert_eq!(after_first, 1, "a cached video was built exactly once");
        assert_eq!(video_generations_of(name), after_first);
        assert_eq!(a.video.name(), "ToS-ffmpeg-h264");
        assert_eq!(a.manifest.n_chunks(), a.video.n_chunks());
    }

    #[test]
    fn trace_cache_returns_same_arc_and_counts_builds_once() {
        let before = trace_generations_of(NetworkRegime::Lte, 5);
        let a = traces_n(NetworkRegime::Lte, 5);
        let after_first = trace_generations_of(NetworkRegime::Lte, 5);
        let b = traces_n(NetworkRegime::Lte, 5);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc");
        assert!(after_first - before <= 1);
        assert_eq!(after_first, 1, "a cached corpus was generated exactly once");
        assert_eq!(trace_generations_of(NetworkRegime::Lte, 5), after_first);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn distinct_seeds_give_distinct_data() {
        let lte = traces_n(NetworkRegime::Lte, 3);
        let fcc = traces_n(NetworkRegime::Fcc, 3);
        assert!(!Arc::ptr_eq(&lte, &fcc));
        assert_ne!(lte.as_slice(), fcc.as_slice());
        // Distinct counts are distinct cache entries too.
        let lte4 = traces_n(NetworkRegime::Lte, 4);
        assert!(!Arc::ptr_eq(&lte, &lte4));
        // Two videos with different content seeds differ.
        let ed = video("ED-ffmpeg-h264");
        let bbb = video("BBB-ffmpeg-h264");
        assert_ne!(
            ed.video.track(0).chunk_bytes(0),
            bbb.video.track(0).chunk_bytes(0)
        );
    }

    #[test]
    fn serve_provider_is_one_shared_instance() {
        let a = serve_provider();
        let b = serve_provider();
        assert!(Arc::ptr_eq(&a, &b), "all callers share one provider");
    }

    #[test]
    fn scheduler_preserves_index_order_and_covers_all_indices() {
        for threads in [1, 2, 7] {
            let out = run_indexed_on(threads, 23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, |i| i).is_empty());
    }
}
