//! The simulation workloads: the paper's Fig. 8 scheme set over an LTE
//! corpus, and an `abr-pop` population, each on one worker.

use crate::inputs::{step_session, Traced, VIDEO};
use crate::report::{Layers, Report};
use crate::spans::SpanBuf;
use crate::speed::{Probe, Speed};
use crate::stats;
use abr_bench::engine::PreparedVideo;
use abr_bench::population::{self, CohortSummary};
use abr_pop::{Cohort, PopConfig, Population};
use abr_serve::scheme;
use abr_serve::store::{SessionStore, StoreConfig, VideoHandle};
use abr_sim::metrics::evaluate;
use abr_sim::{QoeConfig, SessionControl, SessionResult, SessionStepper, Simulator};
use net_trace::lte::{lte_trace, LteConfig};
use net_trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vbr_video::quality::VmafModel;

/// The paper's Fig. 8 comparison set, in registry names.
pub const GRID_SCHEMES: [&str; 5] = ["cava", "mpc", "robustmpc", "panda-max-sum", "panda-max-min"];
/// LTE traces in the `sim-grid` corpus; the run cycles through them.
pub const GRID_TRACES: usize = 64;
/// Set-ups per run; `setup_s` is their median. Simulation set-up takes
/// milliseconds, so many repeats cost nothing.
pub const SETUPS: usize = 15;
/// Every this many sessions one replays through `SessionStore::decide`.
pub const REPLAY_EVERY: u64 = 16;
/// `sim-population`: viewers whose reduction is compared against
/// `population::sweep` on the same seed.
pub const SWEEP_CHECK: usize = 400;
/// `sim-population`: every this many sessions one is traced.
pub const POP_TRACE_EVERY: u64 = 64;

/// Which simulation workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `sim-grid`.
    Grid,
    /// `sim-population`.
    Population,
}

/// What set-up builds: the prepared video and, for the grid, the corpus.
struct Setup {
    video: PreparedVideo,
    corpus: Vec<Trace>,
}

fn set_up(mode: Mode, seed: u64, mut spans: Option<&mut SpanBuf>, k: u64) -> Setup {
    let t0 = Instant::now();
    let video = PreparedVideo::new(scheme::load_video(VIDEO).expect("VIDEO is in the dataset"));
    let t1 = Instant::now();
    let root = spans.as_mut().map(|s| s.record("setup", k, None, t0, t1));
    if let Some(s) = spans.as_mut() {
        s.record("video.synth", k, root, t0, t1);
    }
    let mut corpus = Vec::new();
    if mode == Mode::Grid {
        let config = LteConfig::default();
        for i in 0..GRID_TRACES as u64 {
            let t0 = Instant::now();
            corpus.push(lte_trace(seed.wrapping_add(i), &config));
            if let Some(s) = spans.as_mut() {
                s.record("trace.gen", i, root, t0, Instant::now());
            }
        }
    }
    if let (Some(s), Some(root)) = (spans.as_mut(), root) {
        s.end(root);
    }
    Setup { video, corpus }
}

fn set_up_repeatedly(mode: Mode, seed: u64, mut spans: Option<&mut SpanBuf>) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS as u64 {
        let t0 = Instant::now();
        last = Some(set_up(mode, seed, spans.as_deref_mut(), k));
        times.push(t0.elapsed().as_secs_f64());
    }
    stats::sort(&mut times);
    (last.expect("SETUPS > 0"), times[SETUPS / 2])
}

/// One session to simulate.
struct Job<'a> {
    id: u64,
    scheme: &'static str,
    sim: Simulator,
    trace: &'a Trace,
    control: &'a SessionControl,
    qoe: QoeConfig,
}

/// Simulate and score one session — `Simulator::run_controlled` and
/// `metrics::evaluate`, or with `spans` the same steps with every layer
/// call recorded. Returns the result and whether it was scored (sessions
/// abandoned before their first chunk have nothing to score).
fn simulate(
    job: &Job<'_>,
    video: &PreparedVideo,
    mut spans: Option<(&mut SpanBuf, usize)>,
) -> Result<(SessionResult, Option<(f64, f64)>), String> {
    let mut algo = scheme::build_scheme(job.scheme, &video.video, job.qoe.vmaf_model)?;
    let result = match spans.as_mut() {
        None => job
            .sim
            .run_controlled(algo.as_mut(), &video.manifest, job.trace, job.control),
        Some((s, parent)) => step_session(
            &job.sim,
            algo.as_mut(),
            job.scheme,
            &video.manifest,
            job.trace,
            job.control,
            Some(Traced {
                spans: s,
                parent: *parent,
                id: job.id,
            }),
            |_, _| {},
        )?,
    };
    if result.records.is_empty() {
        return Ok((result, None));
    }
    let t0 = Instant::now();
    let m = evaluate(&result, video, &video.classification, &job.qoe);
    if let Some((s, parent)) = spans {
        s.record("qoe.evaluate", job.id, Some(parent), t0, Instant::now());
    }
    Ok((result, Some((m.all_quality_mean, m.low_quality_pct))))
}

/// Replay `job` with every decision answered by `SessionStore::decide`
/// instead of an in-process algorithm, and require the identical result.
fn replay_through_store(
    store: &SessionStore,
    job: &Job<'_>,
    video: &PreparedVideo,
    expected: &SessionResult,
) -> Result<(), String> {
    let code = scheme::vmaf_model_code(job.qoe.vmaf_model);
    store
        .open(1, job.id, VIDEO, job.scheme, code)
        .map_err(|e| format!("store open: {e}"))?;
    let mut stepper = SessionStepper::new(&job.sim, &video.manifest, job.trace, job.control);
    while let Some(request) = stepper.next_request() {
        let response = store
            .decide(job.id, &request)
            .map_err(|e| format!("store decide: {e}"))?;
        stepper.apply_level(response.level);
    }
    store
        .close(job.id)
        .map_err(|e| format!("store close: {e}"))?;
    let replayed = stepper.into_result(&expected.algorithm);
    if &replayed != expected {
        return Err(format!(
            "session {} ({}) decided differently through SessionStore::decide",
            job.id, job.scheme
        ));
    }
    Ok(())
}

fn store_for(video: &PreparedVideo) -> SessionStore {
    let handle = VideoHandle {
        video: Arc::new(video.video.clone()),
        manifest: Arc::new(video.manifest.clone()),
    };
    SessionStore::new(
        StoreConfig {
            capacity: 16,
            idle_ticks: 100_000,
            orphan_grace_ticks: 0,
            shards: 1,
        },
        Arc::new(move |name: &str| (name == VIDEO).then(|| handle.clone())),
    )
}

/// The per-session outcome the population reduction needs.
struct Reduced {
    cohort: Cohort,
    result_summary: (f64, usize, usize, bool, f64, f64),
    quality: Option<(f64, f64)>,
}

/// Reduce per-viewer outcomes (in index order) to per-cohort summaries
/// exactly as `population::sweep` does, so the two must agree bit for bit.
fn cohort_summaries(reduced: &[Reduced]) -> Vec<CohortSummary> {
    #[derive(Default)]
    struct Acc {
        sessions: usize,
        abandoned: usize,
        seeks: usize,
        chunks: u64,
        scored: usize,
        quality: f64,
        low: f64,
        rebuffer: f64,
        startup: f64,
        watched: f64,
    }
    let mut by: BTreeMap<Cohort, Acc> = BTreeMap::new();
    for r in reduced {
        let (watched, chunks, seeks, abandoned, startup, rebuffer) = r.result_summary;
        let a = by.entry(r.cohort).or_default();
        a.sessions += 1;
        a.abandoned += usize::from(abandoned);
        a.seeks += seeks;
        a.chunks += chunks as u64;
        if let Some((q, low)) = r.quality {
            a.scored += 1;
            a.quality += q;
            a.low += low;
        }
        a.rebuffer += rebuffer;
        a.startup += startup;
        a.watched += watched;
    }
    Cohort::all()
        .into_iter()
        .filter_map(|cohort| {
            let a = by.get(&cohort)?;
            let n = a.sessions as f64;
            let scored = a.scored.max(1) as f64;
            Some(CohortSummary {
                cohort: cohort.label(),
                sessions: a.sessions,
                abandoned: a.abandoned,
                seeks: a.seeks,
                chunks: a.chunks,
                scored: a.scored,
                mean_quality: a.quality / scored,
                low_quality_pct: a.low / scored,
                mean_rebuffer_s: a.rebuffer / n,
                mean_startup_s: a.startup / n,
                mean_watched_s: a.watched / n,
            })
        })
        .collect()
}

/// Raw session time between two host-speed probes.
const PROBE_EVERY_S: f64 = 0.025;

/// One measured pass over the workload.
struct Pass {
    setup_s: f64,
    sessions: u64,
    /// Summed session time at reference speed.
    busy_s: f64,
    /// Summed session time as measured.
    raw_busy_s: f64,
    /// Per-session times at reference speed.
    latencies_ms: Vec<f64>,
    speed: Speed,
    since_probe_s: f64,
    chunks: u64,
    errors: Vec<String>,
    failed: u64,
}

impl Pass {
    /// Account one session that took `raw_s` seconds, scaled to reference
    /// speed, and probe the host's speed when due.
    fn timed(&mut self, raw_s: f64) {
        let scaled = raw_s / self.speed.slowdown();
        self.sessions += 1;
        self.raw_busy_s += raw_s;
        self.busy_s += scaled;
        self.latencies_ms.push(scaled * 1e3);
        self.since_probe_s += raw_s;
        if self.since_probe_s >= PROBE_EVERY_S {
            self.speed.probe();
            self.since_probe_s = 0.0;
        }
    }
}

fn pass(mode: Mode, seed: u64, seconds: f64, mut spans: Option<&mut SpanBuf>) -> Pass {
    let (setup, setup_s) = set_up_repeatedly(mode, seed, spans.as_deref_mut());
    let video = &setup.video;
    let store = store_for(video);
    let mut p = Pass {
        setup_s,
        sessions: 0,
        busy_s: 0.0,
        raw_busy_s: 0.0,
        latencies_ms: Vec::new(),
        speed: Speed::new(match mode {
            Mode::Grid => Probe::Enumeration,
            Mode::Population => Probe::Mixed,
        }),
        since_probe_s: 0.0,
        chunks: 0,
        errors: Vec::new(),
        failed: 0,
    };
    let fail = |p: &mut Pass, e: String| {
        p.failed += 1;
        if p.errors.len() < 5 {
            p.errors.push(e);
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    match mode {
        Mode::Grid => {
            let sim = Simulator::paper_default();
            let control = SessionControl::default();
            // First-lap results; later laps over the corpus must repeat them.
            let mut first: Vec<Option<SessionResult>> =
                vec![None; GRID_TRACES * GRID_SCHEMES.len()];
            let mut id = 0u64;
            'run: for lap in 0.. {
                for trace in &setup.corpus {
                    for scheme in GRID_SCHEMES {
                        let job = Job {
                            id,
                            scheme,
                            sim: sim.clone(),
                            trace,
                            control: &control,
                            qoe: QoeConfig::lte(),
                        };
                        let slot = (id as usize) % first.len();
                        id += 1;
                        let t0 = Instant::now();
                        let root = spans.as_mut().map(|s| s.begin("session", job.id, None));
                        let out = simulate(&job, video, spans.as_deref_mut().zip(root));
                        if let (Some(s), Some(root)) = (spans.as_mut(), root) {
                            s.end(root);
                        }
                        p.timed(t0.elapsed().as_secs_f64());
                        let result = match out {
                            Ok((result, _)) => result,
                            Err(e) => {
                                fail(&mut p, e);
                                continue;
                            }
                        };
                        p.chunks += result.records.len() as u64;
                        if let Err(e) = result.validate() {
                            fail(&mut p, format!("session {}: {e}", job.id));
                        } else if lap == 0 {
                            if job.id.is_multiple_of(REPLAY_EVERY) {
                                if let Err(e) = replay_through_store(&store, &job, video, &result) {
                                    fail(&mut p, e);
                                }
                            }
                            first[slot] = Some(result);
                        } else if first[slot].as_ref() != Some(&result) {
                            fail(
                                &mut p,
                                format!("session {} differs from its first lap", job.id),
                            );
                        }
                    }
                    if Instant::now() >= deadline {
                        break 'run;
                    }
                }
            }
        }
        Mode::Population => {
            let config = PopConfig {
                seed,
                sessions: 1 << 30,
                ..PopConfig::default()
            };
            let pop = Population::new(config);
            let mut reduced = Vec::with_capacity(SWEEP_CHECK);
            for index in 0.. {
                let id = index as u64;
                let traced = spans.is_some() && id.is_multiple_of(POP_TRACE_EVERY);
                let t0 = Instant::now();
                let root = spans
                    .as_mut()
                    .filter(|_| traced)
                    .map(|s| s.begin("session", id, None));
                let viewer = pop.session(index);
                let t1 = Instant::now();
                let trace = viewer.cohort.network.trace(viewer.trace_seed);
                if let (Some(s), Some(root)) = (spans.as_mut(), root) {
                    s.record("pop.derive", id, Some(root), t0, t1);
                    s.record("trace.gen", id, Some(root), t1, Instant::now());
                }
                let job = Job {
                    id,
                    scheme: "cava",
                    sim: Simulator::new(viewer.cohort.player_config()),
                    trace: &trace,
                    control: &viewer.control,
                    qoe: viewer.cohort.qoe_config(),
                };
                let out = simulate(&job, video, spans.as_deref_mut().zip(root));
                if let (Some(s), Some(root)) = (spans.as_mut(), root) {
                    s.end(root);
                }
                p.timed(t0.elapsed().as_secs_f64());
                match out {
                    Err(e) => fail(&mut p, e),
                    Ok((result, quality)) => {
                        p.chunks += result.records.len() as u64;
                        if let Err(e) = result.validate() {
                            fail(&mut p, format!("viewer {index}: {e}"));
                        } else if id.is_multiple_of(REPLAY_EVERY) {
                            if let Err(e) = replay_through_store(&store, &job, video, &result) {
                                fail(&mut p, e);
                            }
                        }
                        if index < SWEEP_CHECK {
                            reduced.push(Reduced {
                                cohort: viewer.cohort,
                                result_summary: (
                                    result.wall_time_s,
                                    result.records.len(),
                                    result.n_seeks,
                                    result.abandoned,
                                    result.startup_delay_s,
                                    result.total_stall_s,
                                ),
                                quality,
                            });
                        }
                    }
                }
                if index + 1 >= SWEEP_CHECK && Instant::now() >= deadline {
                    break;
                }
            }
            let swept = population::sweep(
                PopConfig {
                    sessions: SWEEP_CHECK,
                    ..config
                },
                video,
                1,
            );
            if reduced.len() == SWEEP_CHECK && cohort_summaries(&reduced) != swept {
                p.errors.push(format!(
                    "population::sweep over the first {SWEEP_CHECK} viewers disagrees with \
                     the per-session run"
                ));
            }
        }
    }
    stats::sort(&mut p.latencies_ms);
    p
}

/// Run `sim-grid` or `sim-population`.
pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let untraced = pass(mode, seed, seconds, None);
    let mut report = Report::new();
    report.note(format!(
        "config: 1 worker, video {VIDEO}, {}",
        match mode {
            Mode::Grid => format!(
                "schemes {} over {GRID_TRACES} LTE traces (seeds {seed}..), VMAF {:?}, paper-default player",
                GRID_SCHEMES.join("/"),
                VmafModel::Phone
            ),
            Mode::Population => format!("default abr-pop mix at seed {seed}, cava for every viewer"),
        }
    ));
    report.note(format!(
        "{}; raw {:.1} sessions/s in {:.3} s of session time",
        untraced.speed.describe(),
        untraced.sessions as f64 / untraced.raw_busy_s,
        untraced.raw_busy_s
    ));
    report.note(format!(
        "sessions: {} ({} chunks), {:.1} sessions/s at reference speed; session latency p50 {:?} p90 {:?} p99 {:?} ms over {} samples",
        untraced.sessions,
        untraced.chunks,
        untraced.sessions as f64 / untraced.busy_s,
        stats::percentile(&untraced.latencies_ms, 50.0),
        stats::percentile(&untraced.latencies_ms, 90.0),
        stats::percentile(&untraced.latencies_ms, 99.0),
        untraced.latencies_ms.len()
    ));
    report.attempted = untraced.sessions;
    report.failed = untraced.failed;
    report.errors = untraced.errors;
    report.setup_s = untraced.setup_s;
    report.throughput_per_s = untraced.sessions as f64 / untraced.busy_s.max(1e-9);
    report.set_latency(&untraced.latencies_ms)?;
    if trace {
        let mut spans = SpanBuf::new();
        let traced = pass(mode, seed, seconds, Some(&mut spans));
        report.errors.extend(traced.errors);
        let mut layers = Layers::default();
        layers.add_spans(&spans);
        report.traced(
            layers,
            &traced.latencies_ms,
            traced.sessions as f64 / traced.busy_s.max(1e-9),
            spans,
        );
    }
    Ok(report)
}
