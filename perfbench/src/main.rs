//! `perfbench` — the end-to-end and per-layer benchmark of the decision
//! server and the simulators. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload <serve-paced|serve-flood|sim-grid|sim-population>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. Exits non-zero when a
//! workload cannot run; a run whose outputs are wrong still prints its
//! result, with `"correct": false`.

mod inputs;
mod report;
mod serve;
mod sim;
mod spans;
mod speed;
mod stats;
mod wire;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["serve-paced", "serve-flood", "sim-grid", "sim-population"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Write the traced run's spans under `out/`, read them back and print
/// the self time of every span name.
fn write_and_reduce(report: &mut Report, args: &Args) -> Result<(), String> {
    let Some((_, spans)) = report.traced.as_ref() else {
        return Ok(());
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    spans::write_tsv(&path, spans.spans()).map_err(|e| format!("{}: {e}", path.display()))?;
    let read = spans::read_tsv(&path, &report::SPAN_NAMES).map_err(|e| e.to_string())?;
    let reduced = spans::reduce_by_root(&read);
    report.note(format!(
        "spans: {} written to {}",
        read.len(),
        path.display()
    ));
    for line in report::self_time_table(&reduced) {
        report.note(line);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (seed, trace) = (args.seed, args.trace);
    // A traced run measures an untraced and a traced pass (their difference
    // is the tracing overhead); each gets half the window so every run
    // takes the same time.
    let seconds = if trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let result = match args.workload.as_str() {
        "serve-paced" => serve::run(serve::Mode::Paced, seed, seconds, trace),
        "serve-flood" => serve::run(serve::Mode::Flood, seed, seconds, trace),
        "sim-grid" => sim::run(sim::Mode::Grid, seed, seconds, trace),
        _ => sim::run(sim::Mode::Population, seed, seconds, trace),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if report.attempted == 0 {
        eprintln!("perfbench: {}: no operation ran", args.workload);
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_and_reduce(&mut report, &args) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {seed} seconds {} trace {}",
        args.workload,
        args.seconds,
        u8::from(trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for e in &report.errors {
        println!("  CHECK FAILED: {e}");
    }
    println!(
        "  attempted {} failed {} correct {}",
        report.attempted,
        report.failed,
        report.correct()
    );
    if trace {
        if let Some((layers, _)) = &report.traced {
            for (name, unit) in report::PER_LAYER {
                println!("  {name} = {} {unit}", layers.get(name));
            }
        }
    } else {
        println!("  setup_s = {} s", report.setup_s);
        println!("  throughput_per_s = {} 1/s", report.throughput_per_s);
        println!("  latency_p50_ms = {} ms", report.latency_p50_ms);
        println!("  latency_p90_ms = {} ms", report.latency_p90_ms);
    }
    println!("{}", report.json(trace));
    ExitCode::SUCCESS
}
