//! `bench_gate` — compare a freshly produced `BENCH_*.json` against the
//! committed trajectory and fail on perf regressions.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [--tolerance PCT]
//! ```
//!
//! Walks both documents and gates every numeric field named
//! `decisions_per_s`, `sessions_per_s` (higher is better) or
//! `latency_p99_ms` (lower is better), wherever it appears in the tree.
//! A field regressing by more than `--tolerance` percent (default 15)
//! exits non-zero with a diagnostic per offending field. A gated field the
//! fresh document no longer has fails too, naming its path: dropping a
//! metric is a baseline change, made by re-committing the baseline, never
//! a silent pass. A field new in the fresh document passes with a note, so
//! adding metrics never breaks the gate against an older baseline.
//!
//! `allocs_per_decision` and `bytes_per_decision` are gated **exactly**:
//! any increase over the baseline fails, whatever the tolerance.
//! Allocation counts are deterministic — there is no machine variance to
//! absorb — and a percentage gate would be vacuous against the committed
//! all-zero baseline (a relative regression from 0 is undefined).
//!
//! `scripts/check.sh` recovers the baseline from `git show HEAD:...` and
//! forwards its `--bench-tolerance` flag here (see CONTRIBUTING.md).

use serde_json::{parse_value, Value};
use std::process::ExitCode;

/// Fields where larger values are better.
const HIGHER_BETTER: [&str; 2] = ["decisions_per_s", "sessions_per_s"];
/// Fields where smaller values are better.
const LOWER_BETTER: [&str; 1] = ["latency_p99_ms"];
/// Fields gated exactly: smaller is better and *any* increase over the
/// baseline fails, independent of `--tolerance`. Deterministic counters
/// belong here — their committed baseline is typically zero, where a
/// percentage gate cannot bite.
const EXACT_LOWER: [&str; 2] = ["allocs_per_decision", "bytes_per_decision"];

fn collect_gated(prefix: &str, value: &Value, out: &mut Vec<(String, String, f64)>) {
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                if let Some(number) = child.as_f64() {
                    if HIGHER_BETTER.contains(&key.as_str())
                        || LOWER_BETTER.contains(&key.as_str())
                        || EXACT_LOWER.contains(&key.as_str())
                    {
                        out.push((path, key.clone(), number));
                    }
                } else {
                    collect_gated(&path, child, out);
                }
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                collect_gated(&format!("{prefix}[{i}]"), child, out);
            }
        }
        _ => {}
    }
}

fn regression_pct(field: &str, baseline: f64, fresh: f64) -> f64 {
    if baseline.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    if HIGHER_BETTER.contains(&field) {
        100.0 * (baseline - fresh) / baseline
    } else {
        100.0 * (fresh - baseline) / baseline
    }
}

/// The gate's verdict over a baseline and a fresh document.
struct Verdict {
    /// One report line per gated field: baseline fields in document order,
    /// then fields new in the fresh document.
    lines: Vec<String>,
    /// Paths that regressed past the tolerance or an exact gate, or that
    /// the fresh document dropped.
    failures: Vec<String>,
    /// Gated fields present in both documents.
    compared: usize,
}

fn gate(baseline: &Value, fresh: &Value, tolerance: f64) -> Verdict {
    let mut base_fields = Vec::new();
    let mut fresh_fields = Vec::new();
    collect_gated("", baseline, &mut base_fields);
    collect_gated("", fresh, &mut fresh_fields);

    let mut verdict = Verdict {
        lines: Vec::new(),
        failures: Vec::new(),
        compared: 0,
    };
    for (path, field, base_value) in &base_fields {
        let Some((_, _, fresh_value)) = fresh_fields.iter().find(|(p, _, _)| p == path) else {
            verdict.lines.push(format!(
                "bench_gate: {path} only in baseline — removed from the fresh document FAIL"
            ));
            verdict.failures.push(path.clone());
            continue;
        };
        verdict.compared += 1;
        let failed = if EXACT_LOWER.contains(&field.as_str()) {
            let exceeded = *fresh_value > *base_value;
            verdict.lines.push(format!(
                "bench_gate: {path}: {base_value:.3} -> {fresh_value:.3} (exact gate: any increase fails) {}",
                if exceeded { "FAIL" } else { "ok" }
            ));
            exceeded
        } else {
            let pct = regression_pct(field, *base_value, *fresh_value);
            verdict.lines.push(format!(
                "bench_gate: {path}: {base_value:.3} -> {fresh_value:.3} ({pct:+.1}% regression, tolerance {tolerance:.0}%) {}",
                if pct > tolerance { "FAIL" } else { "ok" }
            ));
            pct > tolerance
        };
        if failed {
            verdict.failures.push(path.clone());
        }
    }
    for (path, _, _) in &fresh_fields {
        if !base_fields.iter().any(|(p, _, _)| p == path) {
            verdict.lines.push(format!(
                "bench_gate: {path} only in fresh — new field, not gated yet"
            ));
        }
    }
    verdict
}

fn run() -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance = 15.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--tolerance" {
            let value = args.next().ok_or("--tolerance needs a value")?;
            tolerance = value
                .parse()
                .map_err(|_| format!("bad --tolerance value: {value}"))?;
        } else if let Some(value) = arg.strip_prefix("--tolerance=") {
            tolerance = value
                .parse()
                .map_err(|_| format!("bad --tolerance value: {value}"))?;
        } else {
            paths.push(arg);
        }
    }
    if paths.len() != 2 {
        return Err("usage: bench_gate <baseline.json> <fresh.json> [--tolerance PCT]".into());
    }
    if !(0.0..=1_000.0).contains(&tolerance) {
        return Err(format!("--tolerance {tolerance} out of range [0, 1000]"));
    }

    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_value(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let verdict = gate(&read(&paths[0])?, &read(&paths[1])?, tolerance);
    for line in &verdict.lines {
        println!("{line}");
    }
    if verdict.compared == 0 {
        return Err("no gated perf fields found in both documents".into());
    }
    if verdict.failures.is_empty() {
        println!(
            "bench_gate: {} field(s) within {tolerance:.0}% of the committed trajectory",
            verdict.compared
        );
        Ok(())
    } else {
        Err(format!(
            "perf regression (beyond {tolerance:.0}% or past an exact gate) or removed field in: {}",
            verdict.failures.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_gate: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(baseline: &str, fresh: &str, tolerance: f64) -> Verdict {
        let parse = |text: &str| parse_value(text).expect("test JSON parses");
        gate(&parse(baseline), &parse(fresh), tolerance)
    }

    #[test]
    fn a_regression_past_the_tolerance_fails() {
        let base = r#"{"decisions_per_s": 1000.0, "smoke": {"latency_p99_ms": 1.0}}"#;
        let within = r#"{"decisions_per_s": 900.0, "smoke": {"latency_p99_ms": 1.1}}"#;
        let v = verdict(base, within, 15.0);
        assert_eq!(v.compared, 2);
        assert!(v.failures.is_empty(), "{:?}", v.lines);
        let past = r#"{"decisions_per_s": 800.0, "smoke": {"latency_p99_ms": 1.2}}"#;
        let v = verdict(base, past, 15.0);
        assert_eq!(v.failures, ["decisions_per_s", "smoke.latency_p99_ms"]);
    }

    #[test]
    fn an_exact_gated_field_fails_on_any_increase() {
        let base = r#"{"schemes": [{"allocs_per_decision": 0.0, "bytes_per_decision": 0.0}]}"#;
        let fresh = r#"{"schemes": [{"allocs_per_decision": 0.0, "bytes_per_decision": 0.5}]}"#;
        // A huge tolerance does not loosen an exact gate.
        let v = verdict(base, fresh, 1_000.0);
        assert_eq!(v.failures, ["schemes[0].bytes_per_decision"]);
        assert!(verdict(base, base, 0.0).failures.is_empty());
    }

    #[test]
    fn a_field_missing_from_the_fresh_document_fails() {
        let base = r#"{"decisions_per_s": 1000.0, "old": {"allocs_per_decision": 0.0}}"#;
        let fresh = r#"{"decisions_per_s": 1000.0}"#;
        let v = verdict(base, fresh, 15.0);
        assert_eq!(v.compared, 1);
        assert_eq!(v.failures, ["old.allocs_per_decision"]);
        assert!(v
            .lines
            .iter()
            .any(|l| l.contains("old.allocs_per_decision only in baseline")));
    }

    #[test]
    fn a_field_new_in_the_fresh_document_passes_with_a_note() {
        let base = r#"{"decisions_per_s": 1000.0}"#;
        let fresh = r#"{"decisions_per_s": 1000.0, "sessions_per_s": 5.0}"#;
        let v = verdict(base, fresh, 15.0);
        assert_eq!(v.compared, 1);
        assert!(v.failures.is_empty());
        assert!(v
            .lines
            .iter()
            .any(|l| l.contains("sessions_per_s only in fresh")));
    }
}
