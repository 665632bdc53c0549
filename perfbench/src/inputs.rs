//! Seeded inputs shared by the workloads: the video, the session loop with
//! optional spans around each layer call, and the viewer templates the
//! serving workloads replay over the socket.

use crate::spans::{SpanBuf, SpanId};
use abr_pop::{PopConfig, Population};
use abr_serve::scheme;
use abr_serve::store::VideoHandle;
use abr_sim::{
    AbrAlgorithm, DecisionRequest, SessionControl, SessionResult, SessionStepper, Simulator,
};
use net_trace::Trace;
use std::time::Instant;
use vbr_video::Manifest;

/// The one title every workload streams (5 s chunks, 120 of them).
pub const VIDEO: &str = "ED-youtube-h264";

/// Every scheme a workload decides with, paired with the span name its
/// `choose_level` calls are recorded under.
pub const SCHEMES: [(&str, &str); 7] = [
    ("cava", "algo.choose.cava"),
    ("bola", "algo.choose.bola"),
    ("rba", "algo.choose.rba"),
    ("mpc", "algo.choose.mpc"),
    ("robustmpc", "algo.choose.robustmpc"),
    ("panda-max-sum", "algo.choose.panda-max-sum"),
    ("panda-max-min", "algo.choose.panda-max-min"),
];

/// The schemes held sessions of the serving workloads rotate through:
/// the cheap per-chunk deciders a server would host by the thousand.
pub const SERVE_SCHEMES: [&str; 3] = ["cava", "bola", "rba"];

fn choose_span(scheme: &str) -> &'static str {
    SCHEMES
        .iter()
        .find(|(s, _)| *s == scheme)
        .map(|(_, span)| *span)
        .unwrap_or_else(|| panic!("scheme {scheme} is not benchmarked"))
}

/// Where a traced session records its layer calls.
pub struct Traced<'a> {
    /// The run's span buffer.
    pub spans: &'a mut SpanBuf,
    /// The session span the calls belong to.
    pub parent: SpanId,
    /// Session id shared by the calls' spans.
    pub id: u64,
}

/// Run one session the way `Simulator::run_controlled` does — reset the
/// algorithm, then alternate `next_request`, `choose_level` and
/// `apply_level` — handing every request and chosen level to `each`.
/// With `traced`, each player step and each `choose_level` is a span.
#[allow(clippy::too_many_arguments)]
pub fn step_session(
    sim: &Simulator,
    algo: &mut dyn AbrAlgorithm,
    scheme: &str,
    manifest: &Manifest,
    trace: &Trace,
    control: &SessionControl,
    mut traced: Option<Traced<'_>>,
    mut each: impl FnMut(&DecisionRequest, usize),
) -> Result<SessionResult, String> {
    algo.reset();
    let choose = choose_span(scheme);
    let mut stepper = SessionStepper::new(sim, manifest, trace, control);
    loop {
        let t0 = Instant::now();
        let request = stepper.next_request();
        if let Some(t) = traced.as_mut() {
            t.spans
                .record("player.step", t.id, Some(t.parent), t0, Instant::now());
        }
        let Some(request) = request else { break };
        let ctx = request.context(manifest, stepper.throughputs());
        let t1 = Instant::now();
        let level = algo.choose_level(&ctx);
        let t2 = Instant::now();
        if level >= manifest.n_tracks() {
            return Err(format!("{scheme} returned invalid level {level}"));
        }
        stepper.apply_level(level);
        if let Some(t) = traced.as_mut() {
            t.spans.record(choose, t.id, Some(t.parent), t1, t2);
            t.spans
                .record("player.step", t.id, Some(t.parent), t2, Instant::now());
        }
        each(&request, level);
    }
    Ok(stepper.into_result(algo.name()))
}

/// The video as a server-side handle, synthesized from scratch.
pub fn video_handle() -> VideoHandle {
    VideoHandle::new(scheme::load_video(VIDEO).expect("VIDEO is in the dataset"))
}

/// Traced runs record every this many viewers' template generation.
pub const TRACE_EVERY: u64 = 8;

/// One held session's request stream: the requests a viewer's player
/// issues and the levels the in-process algorithm answers them with.
pub struct Template {
    /// Registry name of the deciding scheme.
    pub scheme: &'static str,
    /// Wire code of the viewer's VMAF model.
    pub vmaf_code: u8,
    /// Requests in order.
    pub requests: Vec<DecisionRequest>,
    /// The in-process answer to each request.
    pub levels: Vec<usize>,
}

/// `count` viewer templates from the default `abr-pop` mix at `seed`:
/// each viewer's cohort picks its network regime, player config and VMAF
/// model, its lifecycle draws seeks and abandonment, and the scheme
/// rotates through [`SERVE_SCHEMES`]. Viewers that abandon before their
/// first chunk are skipped. With `spans`, every [`TRACE_EVERY`]th viewer's
/// population derivation, trace generation, player steps and algorithm
/// calls are recorded.
pub fn serve_templates(
    seed: u64,
    count: usize,
    handle: &VideoHandle,
    mut spans: Option<&mut SpanBuf>,
) -> Result<Vec<Template>, String> {
    let pop = Population::new(PopConfig {
        seed,
        sessions: 1 << 30,
        ..PopConfig::default()
    });
    let mut out = Vec::with_capacity(count);
    let mut index = 0;
    while out.len() < count {
        let id = index as u64;
        let scheme = SERVE_SCHEMES[out.len() % SERVE_SCHEMES.len()];
        let root = spans
            .as_mut()
            .filter(|_| id.is_multiple_of(TRACE_EVERY))
            .map(|s| s.begin("session", id, None));
        let t0 = Instant::now();
        let viewer = pop.session(index);
        let t1 = Instant::now();
        let trace = viewer.cohort.network.trace(viewer.trace_seed);
        let t2 = Instant::now();
        if let (Some(s), Some(root)) = (spans.as_mut(), root) {
            s.record("pop.derive", id, Some(root), t0, t1);
            s.record("trace.gen", id, Some(root), t1, t2);
        }
        index += 1;
        let model = viewer.cohort.qoe_config().vmaf_model;
        let mut algo = scheme::build_scheme(scheme, &handle.video, model)?;
        let sim = Simulator::new(viewer.cohort.player_config());
        let (mut requests, mut levels) = (Vec::new(), Vec::new());
        let traced = match (spans.as_mut(), root) {
            (Some(s), Some(parent)) => Some(Traced {
                spans: s,
                parent,
                id,
            }),
            _ => None,
        };
        let result = step_session(
            &sim,
            algo.as_mut(),
            scheme,
            &handle.manifest,
            &trace,
            &viewer.control,
            traced,
            |request, level| {
                requests.push(*request);
                levels.push(level);
            },
        )?;
        if let (Some(s), Some(root)) = (spans.as_mut(), root) {
            s.end(root);
        }
        result
            .validate()
            .map_err(|e| format!("viewer {index}: invalid session: {e}"))?;
        if requests.is_empty() {
            continue;
        }
        out.push(Template {
            scheme,
            vmaf_code: scheme::vmaf_model_code(model),
            requests,
            levels,
        });
    }
    Ok(out)
}
