#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
//! `cava` — command-line front end for the CAVA reproduction.
//!
//! ```text
//! cava list-videos
//! cava characterize <video>
//! cava run <video> <scheme> [--traces N] [--set lte|fcc|5g|satellite]
//!                           [--seed S] [--live HEAD_CHUNKS] [--err FRACTION]
//! cava compare <video> [--traces N] [--set lte|fcc|5g|satellite] [--seed S]
//! cava export-mpd <video> [--out FILE]
//! cava gen-traces <lte|fcc|5g|satellite> <count> <dir> [--format csv|json|mahimahi]
//! cava population [--sessions N] [--seed S] [--threads N] ...
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): positional
//! arguments first, then `--key value` flags in any order.

mod args;
mod commands;

use abr_serve::scheme::SchemeKind;
use std::process::ExitCode;

/// The usage text; the scheme names and trace kinds come from the
/// `SchemeKind` and `NetworkRegime` catalogs.
fn usage() -> String {
    let schemes: Vec<String> = SchemeKind::ALL
        .map(SchemeKind::wire)
        .chunks(8)
        .map(|line| line.join(", "))
        .collect();
    let schemes = schemes.join(",\n    ");
    let kinds = commands::trace_kinds("|");
    format!(
        "\
cava — ABR streaming of VBR-encoded videos (CoNEXT '18 reproduction)

USAGE:
    cava <COMMAND> [ARGS]

COMMANDS:
    list-videos                      list the dataset videos with stats
    characterize <video>             §2/§3 characterization of one encoding
    run <video> <scheme>             stream one video across traces
        [--traces N] [--set KIND] [--seed S] [--live HEAD] [--err FRAC]
    inspect <video> <scheme>         one session in detail (per-chunk table,
        [--seed S] [--set KIND]       buffer timeline, optional --json FILE)
    trace-stats <kind> [--traces N] [--seed S]      corpus statistics
    compare <video>                  all schemes side by side
        [--traces N] [--set KIND] [--seed S]
    export-mpd <video> [--out FILE]  write the DASH MPD (stdout by default)
    gen-traces <kind> <count> <dir> [--format csv|json|mahimahi] [--seed S]
    population                       seeded viewer-population sweep with
        [--sessions N] [--seed S]     per-cohort QoE (diurnal arrivals,
        [--duration SECS] [--threads N] [--phone W] [--tv W]
        [--network W,W,W,W] [--live FRAC] [--video NAME] [--csv FILE]
    serve                            multi-session ABR decision service (TCP)
        [--addr A] [--threads N] [--shards N] [--capacity N] [--port-file F]
        [--read-deadline-ms MS] [--write-deadline-ms MS] [--poll-ms MS]
        [--record FILE]
    loadgen <addr>                   drive a fleet of players at a server
        [--sessions N] [--connections C] [--seed S] [--videos csv]
        [--schemes csv] [--vmaf tv|phone] [--hold BOOL] [--parity BOOL]
        [--parity-every N] [--pipeline N] [--faults BOOL]
        [--fault-period N] [--fault-stall-ms MS] [--fault-seed S]
        [--retries N] [--stop-server BOOL] [--record FILE] [--population N]
    replay <log>                     re-execute a recorded serving run
        [--seek TICK] [--diff OTHER]  (record with `serve --record FILE`;
                                      exits nonzero on any divergence)

TRACE SEEDS:
    For run, inspect, trace-stats, compare and gen-traces, `--seed S` is
    the base seed of the trace corpus. It defaults to the regime's corpus
    seed (lte 42, fcc 4242, 5g 424242, satellite 42424242), so the default
    corpus is the one the experiments use.

ENVIRONMENT:
    ABR_SERVE_THREADS                default worker count for `serve`
    ABR_SERVE_RECORD                 default `serve` event-log path
                                     (`--record` wins; see docs/REPLAY.md)

SCHEMES:
    {schemes}

TRACE KINDS (--set KIND, trace-stats/gen-traces <kind>): {kinds}
    lte, fcc                         the paper's §6.1 corpora
    5g, satellite                    extension regimes: high-variance mmWave,
                                     GEO link (smooth, rain fades, ~550ms RTT)

Video names come from `cava list-videos` (e.g. ED-ffmpeg-h264).
"
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "list-videos" => commands::list_videos(&argv[1..]),
        "characterize" => commands::characterize(&argv[1..]),
        "run" => commands::run(&argv[1..]),
        "inspect" => commands::inspect(&argv[1..]),
        "trace-stats" => commands::trace_stats(&argv[1..]),
        "compare" => commands::compare(&argv[1..]),
        "export-mpd" => commands::export_mpd(&argv[1..]),
        "gen-traces" => commands::gen_traces(&argv[1..]),
        "population" => commands::population(&argv[1..]),
        "serve" => commands::serve(&argv[1..]),
        "loadgen" => commands::loadgen(&argv[1..]),
        "replay" => commands::replay(&argv[1..]),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
