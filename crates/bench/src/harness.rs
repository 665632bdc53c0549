//! The session runners, and the scheme and trace-corpus catalogs they take
//! ([`SchemeKind`] from `abr-serve`, [`NetworkRegime`] from `abr-pop`).
//!
//! The runners ([`run_scheme`], [`run_with_factory`], [`run_sessions`])
//! execute one algorithm over a trace corpus on the engine's shared
//! dynamic scheduler ([`crate::engine::run_indexed`]). Every session gets a
//! **fresh** algorithm instance — ABR algorithms are stateful within a
//! session, and reusing one across sessions leaks estimator state from one
//! trace into the next, making results depend on how traces were
//! partitioned over threads. Building per session makes every run
//! byte-identical regardless of worker count (see the
//! `partitioning_independence` regression test).

pub use abr_pop::NetworkRegime;
pub use abr_serve::scheme::SchemeKind;
use abr_sim::metrics::{evaluate, QoeConfig, QoeMetrics};
use abr_sim::{AbrAlgorithm, PlayerConfig, SessionResult, Simulator};
use net_trace::Trace;
use sim_report::Cdf;

use crate::engine::{self, PreparedVideo};
use crate::journal;

/// Number of traces per set: the paper uses 200; override with `TRACES` for
/// quick iteration.
pub fn trace_count() -> usize {
    std::env::var("TRACES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Push one `(scheme, video)` summary to the active journal (no-op when no
/// journal is active).
pub(crate) fn journal_scheme_summary(scheme: &str, video: &str, sessions: &[QoeMetrics]) {
    if sessions.is_empty() {
        return;
    }
    journal::note_scheme_run(
        scheme,
        video,
        sessions.len(),
        mean_of(Metric::AllQuality, sessions),
        mean_of(Metric::RebufferS, sessions),
    );
}

/// Run one scheme over every trace on the shared scheduler and evaluate
/// each session. Returns per-trace metrics in trace order; the summary is
/// journaled.
pub fn run_scheme(
    scheme: SchemeKind,
    video: &PreparedVideo,
    traces: &[Trace],
    qoe: &QoeConfig,
    player: &PlayerConfig,
) -> Vec<QoeMetrics> {
    let sessions = run_with_factory(
        &|| scheme.build(video, qoe.vmaf_model),
        video,
        traces,
        qoe,
        player,
    );
    journal_scheme_summary(scheme.name(), video.name(), &sessions);
    sessions
}

/// Run with a custom algorithm factory (parameter sweeps). The factory is
/// invoked once **per session**: algorithms are stateful and must not carry
/// estimator state from one trace into the next.
pub fn run_with_factory(
    factory: &(dyn Fn() -> Box<dyn AbrAlgorithm> + Sync),
    video: &PreparedVideo,
    traces: &[Trace],
    qoe: &QoeConfig,
    player: &PlayerConfig,
) -> Vec<QoeMetrics> {
    run_with_factory_on(
        engine::default_threads(traces.len()),
        factory,
        video,
        traces,
        qoe,
        player,
    )
}

/// [`run_with_factory`] with an explicit worker count. With fresh
/// algorithms per session, the result is byte-identical for every
/// `threads` value — the regression test pins `threads = 1` against many.
pub fn run_with_factory_on(
    threads: usize,
    factory: &(dyn Fn() -> Box<dyn AbrAlgorithm> + Sync),
    video: &PreparedVideo,
    traces: &[Trace],
    qoe: &QoeConfig,
    player: &PlayerConfig,
) -> Vec<QoeMetrics> {
    let sim = Simulator::new(*player);
    engine::run_indexed_on(threads, traces.len(), |i| {
        let mut algo = factory();
        let session = sim.run(algo.as_mut(), &video.manifest, &traces[i]);
        evaluate(&session, video, &video.classification, qoe)
    })
}

/// Run one scheme and keep the raw sessions (for per-chunk analyses). Each
/// session gets a fresh algorithm, like [`run_scheme`].
pub fn run_sessions(
    scheme: SchemeKind,
    video: &PreparedVideo,
    traces: &[Trace],
    qoe: &QoeConfig,
    player: &PlayerConfig,
) -> Vec<SessionResult> {
    let sim = Simulator::new(*player);
    engine::run_indexed(traces.len(), |i| {
        let mut algo = scheme.build(video, qoe.vmaf_model);
        sim.run(algo.as_mut(), &video.manifest, &traces[i])
    })
}

/// The paper's five evaluation metrics plus supporting ones, as selectors
/// over [`QoeMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean quality of Q4 (hardest) chunks.
    Q4Quality,
    /// Mean quality of Q1–Q3 chunks.
    Q13Quality,
    /// Mean quality of all chunks.
    AllQuality,
    /// Percentage of chunks below the low-quality threshold.
    LowQualityPct,
    /// Total rebuffering seconds.
    RebufferS,
    /// Average per-chunk quality change.
    QualityChange,
    /// Total data usage in megabytes.
    DataUsageMb,
    /// Mean track level.
    MeanLevel,
}

impl Metric {
    /// Extract the metric value from one session's metrics.
    pub fn of(self, m: &QoeMetrics) -> f64 {
        match self {
            Metric::Q4Quality => m.q4_quality_mean,
            Metric::Q13Quality => m.q13_quality_mean,
            Metric::AllQuality => m.all_quality_mean,
            Metric::LowQualityPct => m.low_quality_pct,
            Metric::RebufferS => m.rebuffer_s,
            Metric::QualityChange => m.avg_quality_change,
            Metric::DataUsageMb => m.data_usage_bytes as f64 / 1.0e6,
            Metric::MeanLevel => m.mean_level,
        }
    }

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Q4Quality => "Quality of Q4 chunks",
            Metric::Q13Quality => "Quality of Q1-Q3 chunks",
            Metric::AllQuality => "Quality of all chunks",
            Metric::LowQualityPct => "Low-quality chunks (%)",
            Metric::RebufferS => "Total rebuffering (s)",
            Metric::QualityChange => "Avg quality change (/chunk)",
            Metric::DataUsageMb => "Data usage (MB)",
            Metric::MeanLevel => "Mean track level",
        }
    }

    /// Whether lower values are better (true for all but the quality
    /// metrics).
    pub fn lower_is_better(self) -> bool {
        !matches!(
            self,
            Metric::Q4Quality | Metric::Q13Quality | Metric::AllQuality | Metric::MeanLevel
        )
    }
}

/// Mean of a metric across sessions.
pub fn mean_of(metric: Metric, sessions: &[QoeMetrics]) -> f64 {
    assert!(!sessions.is_empty());
    sessions.iter().map(|m| metric.of(m)).sum::<f64>() / sessions.len() as f64
}

/// CDF of a metric across sessions.
pub fn metric_cdf(metric: Metric, sessions: &[QoeMetrics]) -> Cdf {
    let values: Vec<f64> = sessions.iter().map(|m| metric.of(m)).collect();
    Cdf::new(&values).expect("non-empty, non-NaN metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_unique() {
        // Experiment tables and the journal key rows by display name, so
        // every scheme the harness runs must carry its own.
        let all = [
            SchemeKind::Cava,
            SchemeKind::CavaP1,
            SchemeKind::CavaP12,
            SchemeKind::Mpc,
            SchemeKind::RobustMpc,
            SchemeKind::PandaMaxSum,
            SchemeKind::PandaMaxMin,
            SchemeKind::Rba,
            SchemeKind::Bba1,
            SchemeKind::Pia,
            SchemeKind::Festive,
            SchemeKind::Bola,
            SchemeKind::BolaEPeak,
            SchemeKind::BolaEAvg,
            SchemeKind::BolaESeg,
        ];
        assert_eq!(all, SchemeKind::ALL);
        let mut names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn parallel_runner_matches_serial() {
        let video = engine::video("ED-youtube-h264");
        let traces = NetworkRegime::Lte.corpus(6, 42);
        let qoe = NetworkRegime::Lte.corpus_qoe();
        let player = PlayerConfig::default();
        let parallel = run_scheme(SchemeKind::Rba, &video, &traces, &qoe, &player);
        // Serial reference with a fresh algorithm per session.
        let sim = Simulator::new(player);
        for (i, trace) in traces.iter().enumerate() {
            let mut algo = SchemeKind::Rba.build(&video, qoe.vmaf_model);
            let session = sim.run(algo.as_mut(), &video.manifest, trace);
            let serial = evaluate(&session, &video, &video.classification, &qoe);
            assert_eq!(parallel[i], serial, "trace {i}");
        }
    }

    #[test]
    fn partitioning_independence() {
        // Regression test for the old slab runner, where one stateful
        // algorithm was reused for a whole thread slab: per-session results
        // depended on how traces were partitioned over workers. With a
        // fresh algorithm per session, every worker count must produce
        // byte-identical metrics. MPC's throughput estimator is the
        // stateful part that leaked across sessions before.
        let video = engine::video("ED-ffmpeg-h264");
        let traces = NetworkRegime::Lte.corpus(7, 42);
        let qoe = NetworkRegime::Lte.corpus_qoe();
        let player = PlayerConfig::default();
        let factory: &(dyn Fn() -> Box<dyn abr_sim::AbrAlgorithm> + Sync) =
            &|| SchemeKind::Mpc.build(&video, qoe.vmaf_model);
        let serial = run_with_factory_on(1, factory, &video, &traces, &qoe, &player);
        for threads in [2, 3, 8] {
            let parallel = run_with_factory_on(threads, factory, &video, &traces, &qoe, &player);
            assert_eq!(serial, parallel, "{threads} workers");
        }
    }

    #[test]
    fn metric_selectors_cover_qoe() {
        let video = engine::video("ED-youtube-h264");
        let traces = NetworkRegime::Lte.corpus(2, 42);
        let qoe = NetworkRegime::Lte.corpus_qoe();
        let sessions = run_scheme(
            SchemeKind::Bba1,
            &video,
            &traces,
            &qoe,
            &PlayerConfig::default(),
        );
        for metric in [
            Metric::Q4Quality,
            Metric::Q13Quality,
            Metric::AllQuality,
            Metric::LowQualityPct,
            Metric::RebufferS,
            Metric::QualityChange,
            Metric::DataUsageMb,
            Metric::MeanLevel,
        ] {
            let v = mean_of(metric, &sessions);
            assert!(v.is_finite(), "{metric:?}");
            let cdf = metric_cdf(metric, &sessions);
            assert_eq!(cdf.len(), 2);
            assert!(!metric.label().is_empty());
        }
        assert!(Metric::RebufferS.lower_is_better());
        assert!(!Metric::Q4Quality.lower_is_better());
    }
}
