//! Metric names, the per-layer figures and the result line.

use crate::inputs::SCHEMES;
use crate::spans::{self, LayerTime, SpanBuf};
use crate::stats;
use crate::wire::WireCost;
use abr_serve::StatsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics every workload reports (`--trace 1`), with units.
/// A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("video.synth_ms", "ms"),
    ("video.count", "count"),
    ("trace.gen_us", "us"),
    ("trace.count", "count"),
    ("pop.derive_us", "us"),
    ("pop.count", "count"),
    ("player.step_ns", "ns"),
    ("player.steps", "count"),
    ("algo.choose_ns.cava", "ns"),
    ("algo.calls.cava", "count"),
    ("algo.choose_ns.bola", "ns"),
    ("algo.calls.bola", "count"),
    ("algo.choose_ns.rba", "ns"),
    ("algo.calls.rba", "count"),
    ("algo.choose_ns.mpc", "ns"),
    ("algo.calls.mpc", "count"),
    ("algo.choose_ns.robustmpc", "ns"),
    ("algo.calls.robustmpc", "count"),
    ("algo.choose_ns.panda-max-sum", "ns"),
    ("algo.calls.panda-max-sum", "count"),
    ("algo.choose_ns.panda-max-min", "ns"),
    ("algo.calls.panda-max-min", "count"),
    ("qoe.evaluate_us", "us"),
    ("qoe.count", "count"),
    ("codec.decode_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("store.decide_ns", "ns"),
    ("store.open_us", "us"),
    ("store.decisions", "count"),
    ("transport.ns_per_decision", "ns"),
    ("client.replies_per_read", "replies/read"),
    ("client.bytes_per_write", "bytes/write"),
    ("server.frames_in_per_decision", "frames/decision"),
    ("server.frames_out_per_decision", "frames/decision"),
    ("paced.sub_ms_share", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("tracing.throughput_delta_pct", "%"),
    ("tracing.p50_delta_pct", "%"),
    ("tracing.unattributed_pct", "%"),
    ("tracing.spans", "count"),
];

/// Span names the benchmark records (the output file's vocabulary).
pub const SPAN_NAMES: [&str; 21] = [
    "setup",
    "session",
    "video.synth",
    "trace.gen",
    "pop.derive",
    "player.step",
    "algo.choose.cava",
    "algo.choose.bola",
    "algo.choose.rba",
    "algo.choose.mpc",
    "algo.choose.robustmpc",
    "algo.choose.panda-max-sum",
    "algo.choose.panda-max-min",
    "qoe.evaluate",
    "replay.session",
    "store.open",
    "codec.decode",
    "store.decide",
    "codec.encode",
    "serve.request",
    "gen.late",
];

/// Per-layer figures of one traced run.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }
}

fn per(total: u64, count: u64, scale: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64 / scale
    }
}

impl Layers {
    /// The value of per-layer metric `name` (0 for a layer not reached).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.contains_key(name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Mean call times and call counts from the run's spans.
    pub fn add_spans(&mut self, spans: &SpanBuf) {
        let r = spans::reduce(spans.spans());
        let get = |name: &str| r.get(name).copied().unwrap_or_default();
        let mut mean = |metric: &'static str, count: &'static str, span: &str, scale: f64| {
            let t = get(span);
            self.set(metric, per(t.total_ns, t.count, scale));
            self.set(count, t.count as f64);
        };
        mean("video.synth_ms", "video.count", "video.synth", 1e6);
        mean("trace.gen_us", "trace.count", "trace.gen", 1e3);
        mean("pop.derive_us", "pop.count", "pop.derive", 1e3);
        mean("qoe.evaluate_us", "qoe.count", "qoe.evaluate", 1e3);
        let mut decisions = 0;
        for (scheme, span) in SCHEMES {
            let t = get(span);
            decisions += t.count;
            let (choose, calls) = algo_metrics(scheme);
            self.set(choose, per(t.total_ns, t.count, 1.0));
            self.set(calls, t.count as f64);
        }
        let step = get("player.step");
        self.set("player.step_ns", per(step.total_ns, decisions, 1.0));
        self.set("player.steps", decisions as f64);
        let session = get("session");
        self.set(
            "tracing.unattributed_pct",
            if session.total_ns == 0 {
                0.0
            } else {
                100.0 * session.self_ns as f64 / session.total_ns as f64
            },
        );
        self.set("tracing.spans", spans.spans().len() as f64);
    }

    /// Codec and store costs from the in-process replay.
    pub fn wire(&mut self, cost: &WireCost) {
        self.set("codec.decode_ns", per(cost.decode_ns, cost.decisions, 1.0));
        self.set("codec.encode_ns", per(cost.encode_ns, cost.decisions, 1.0));
        self.set("store.decide_ns", per(cost.decide_ns, cost.decisions, 1.0));
        self.set("store.open_us", per(cost.open_ns, cost.opens, 1e3));
        self.set("store.decisions", cost.decisions as f64);
    }

    /// Transport and client figures of a socket run: wall time per
    /// decision minus the in-process frame work, replies per read, bytes
    /// per write, and the server's frame counters per decision.
    pub fn socket(
        &mut self,
        wall_s: f64,
        decisions: u64,
        frame_ns: f64,
        (replies, reads): (u64, u64),
        (bytes, writes): (u64, u64),
        server: &StatsSnapshot,
    ) {
        let d = decisions.max(1) as f64;
        self.set("transport.ns_per_decision", wall_s * 1e9 / d - frame_ns);
        self.set(
            "client.replies_per_read",
            replies as f64 / reads.max(1) as f64,
        );
        self.set(
            "client.bytes_per_write",
            bytes as f64 / writes.max(1) as f64,
        );
        self.set("server.frames_in_per_decision", server.frames_in as f64 / d);
        self.set(
            "server.frames_out_per_decision",
            server.frames_out as f64 / d,
        );
    }

    /// Paced-loop figures: replies that did not wait out a doze, and how
    /// late the generator ran.
    pub fn paced(&mut self, latencies_ms: &[f64], lateness_ms: &[f64]) {
        let fast = latencies_ms.iter().filter(|&&l| l < 1.0).count();
        self.set(
            "paced.sub_ms_share",
            fast as f64 / latencies_ms.len().max(1) as f64,
        );
        let late = stats::percentile(lateness_ms, 99.0)
            .or_else(|| lateness_ms.last().copied())
            .unwrap_or(0.0);
        self.set("gen.late_p99_ms", late);
    }
}

fn algo_metrics(scheme: &str) -> (&'static str, &'static str) {
    let find = |prefix: &str| {
        PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_prefix(prefix) == Some(scheme))
            .expect("every benchmarked scheme has algo metrics")
    };
    (find("algo.choose_ns."), find("algo.calls."))
}

/// One run's result.
pub struct Report {
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Operations attempted (decisions on the serving workloads, sessions
    /// on the simulation workloads).
    pub attempted: u64,
    /// Attempted operations whose output was wrong or missing.
    pub failed: u64,
    /// Correctness failures, failing the run whatever `failed` says.
    pub errors: Vec<String>,
    /// Median set-up time.
    pub setup_s: f64,
    /// Operations completed per second.
    pub throughput_per_s: f64,
    /// Median operation latency.
    pub latency_p50_ms: f64,
    /// 90th-percentile operation latency.
    pub latency_p90_ms: f64,
    /// Traced run: per-layer figures and its spans.
    pub traced: Option<(Layers, SpanBuf)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            setup_s: 0.0,
            throughput_per_s: 0.0,
            latency_p50_ms: 0.0,
            latency_p90_ms: 0.0,
            traced: None,
        }
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Set the latency percentiles from sorted samples; refused (an
    /// error) when there are too few samples for p90.
    pub fn set_latency(&mut self, sorted_ms: &[f64]) -> Result<(), String> {
        let get = |p| {
            stats::percentile(sorted_ms, p).ok_or_else(|| {
                format!(
                    "{} latency samples are too few for p{p}; run longer",
                    sorted_ms.len()
                )
            })
        };
        self.latency_p50_ms = get(50.0)?;
        self.latency_p90_ms = get(90.0)?;
        Ok(())
    }

    /// Attach the traced run: its layers, plus the tracing overhead as the
    /// traced end-to-end figures relative to the untraced ones.
    pub fn traced(
        &mut self,
        mut layers: Layers,
        traced_latencies_ms: &[f64],
        traced_throughput_per_s: f64,
        spans: SpanBuf,
    ) {
        let delta = |traced: f64, untraced: f64| 100.0 * (traced - untraced) / untraced;
        layers.set(
            "tracing.throughput_delta_pct",
            delta(traced_throughput_per_s, self.throughput_per_s),
        );
        if let Some(p50) = stats::percentile(traced_latencies_ms, 50.0) {
            layers.set("tracing.p50_delta_pct", delta(p50, self.latency_p50_ms));
        }
        self.traced = Some((layers, spans));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        let mut add = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        };
        if trace {
            let layers = self.traced.as_ref().map(|(l, _)| &l.0);
            for (name, unit) in PER_LAYER {
                add(
                    name,
                    layers.and_then(|l| l.get(name)).copied().unwrap_or(0.0),
                    unit,
                );
            }
        } else {
            let values = [
                self.setup_s,
                self.throughput_per_s,
                self.latency_p50_ms,
                self.latency_p90_ms,
            ];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                add(name, value, unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Render the self-time table: one block per root span name, each span
/// name's self time as a share of its tree's.
pub fn self_time_table(reduced: &BTreeMap<(&'static str, &'static str), LayerTime>) -> Vec<String> {
    let mut out = vec![format!(
        "{:<16} {:<28} {:>10} {:>12} {:>12} {:>7}",
        "root", "span", "count", "total_ms", "self_ms", "self%"
    )];
    let mut roots: Vec<&str> = reduced.keys().map(|(root, _)| *root).collect();
    roots.dedup();
    for root in roots {
        let mut rows: Vec<_> = reduced.iter().filter(|((r, _), _)| *r == root).collect();
        let tree: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for ((_, name), t) in rows {
            out.push(format!(
                "{:<16} {:<28} {:>10} {:>12.3} {:>12.3} {:>7.2}",
                root,
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / tree.max(1) as f64
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let declared = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.match_indices("\"name\": \"")
                .map(|(at, m)| {
                    let rest = &body[at + m.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn every_scheme_has_algo_metrics_and_a_span_name() {
        for (scheme, span) in SCHEMES {
            let (choose, calls) = algo_metrics(scheme);
            assert!(choose.ends_with(scheme) && calls.ends_with(scheme));
            assert!(SPAN_NAMES.contains(&span));
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut r = Report::new();
        r.attempted = 1;
        r.setup_s = 0.25;
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25,"));
        let traced = r.json(true);
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\": ")));
        }
    }
}
