//! Command implementations.

use crate::args::Args;
use abr_bench::journal::Stopwatch;
use abr_pop::{MixConfig, NetworkRegime, PopConfig};
use abr_serve::loadgen::{self, FaultConfig, LoadgenConfig};
use abr_serve::replay::{self, Event, Recorder, ReplayPlayer};
use abr_serve::scheme::{build_scheme, load_video, SchemeKind};
use abr_serve::store::{dataset_provider, StoreConfig};
use abr_serve::{Server, ServerConfig};
use abr_sim::metrics::{evaluate, QoeConfig};
use abr_sim::{LiveConfig, PlayerConfig, Simulator};
use net_trace::Trace;
use sim_report::TextTable;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use vbr_video::classify::cross_track_consistency;
use vbr_video::quality::VmafModel;
use vbr_video::{ChunkClass, Classification, Dataset, Manifest};

/// The trace kinds, `sep`-separated: every [`NetworkRegime`] name.
pub fn trace_kinds(sep: &str) -> String {
    NetworkRegime::ALL.map(|r| r.name()).join(sep)
}

/// The regime named `kind`: the paper's `lte`/`fcc` corpora or the
/// extension regimes `5g` (mmWave peaks, blockage collapses) and
/// `satellite` (GEO: smooth rates, long rain fades, ~550 ms RTT).
fn regime(kind: &str) -> Result<NetworkRegime, String> {
    NetworkRegime::from_name(kind)
        .ok_or_else(|| format!("unknown trace kind {kind:?} ({})", trace_kinds(", ")))
}

fn trace_set(args: &Args) -> Result<(Vec<Trace>, QoeConfig), String> {
    let count: usize = args.flag_parsed("traces", 50)?;
    if count == 0 {
        return Err("--traces must be at least 1".to_string());
    }
    let regime = regime(args.flag("set").unwrap_or("lte"))?;
    let seed: u64 = args.flag_parsed("seed", regime.corpus_seed())?;
    Ok((regime.corpus(count, seed), regime.corpus_qoe()))
}

/// `cava list-videos`
pub fn list_videos(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&[])?;
    args.expect_positionals(0, "list-videos")?;
    let mut table = TextTable::new(vec![
        "name",
        "genre",
        "codec",
        "chunks",
        "chunk (s)",
        "top track",
        "avg Mbps (top)",
    ]);
    for name in Dataset::names() {
        let video = load_video(&name)?;
        let top = video.track(video.n_tracks() - 1);
        table.add_row(vec![
            name,
            video.genre().name().to_string(),
            video.codec().name().to_string(),
            video.n_chunks().to_string(),
            format!("{}", video.chunk_duration()),
            top.resolution().label(),
            format!("{:.2}", top.declared_avg_bps() / 1e6),
        ]);
    }
    print!("{table}");
    Ok(())
}

/// `cava characterize <video>`
pub fn characterize(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&[])?;
    args.expect_positionals(1, "characterize <video>")?;
    let video = load_video(args.positional(0, "video")?)?;
    println!(
        "{}: genre {}, codec {}, {} chunks x {}s, {} tracks",
        video.name(),
        video.genre().name(),
        video.codec().name(),
        video.n_chunks(),
        video.chunk_duration(),
        video.n_tracks()
    );
    let mut tracks = TextTable::new(vec!["track", "res", "avg Mbps", "CoV", "peak/avg"]);
    for t in video.tracks() {
        tracks.add_row(vec![
            t.level().to_string(),
            t.resolution().label(),
            format!("{:.2}", t.realized_avg_bps() / 1e6),
            format!("{:.2}", t.bitrate_cov()),
            format!("{:.2}", t.peak_to_avg()),
        ]);
    }
    print!("{tracks}");
    let classification = Classification::from_video(&video);
    println!(
        "cross-track size consistency (min Spearman): {:.3}",
        cross_track_consistency(&video)
    );
    let track = video.n_tracks() / 2;
    let mut classes = TextTable::new(vec![
        "class",
        "mean size (KB)",
        "median VMAF-TV",
        "median VMAF-phone",
    ]);
    for class in ChunkClass::ALL {
        let pos = classification.positions_of(class);
        let mean_kb = pos
            .iter()
            .map(|&i| video.track(track).chunk_bytes(i) as f64 / 1e3)
            .sum::<f64>()
            / pos.len() as f64;
        let median = |f: &dyn Fn(usize) -> f64| {
            let mut v: Vec<f64> = pos.iter().map(|&i| f(i)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        };
        classes.add_row(vec![
            class.label().to_string(),
            format!("{mean_kb:.0}"),
            format!("{:.1}", median(&|i| video.quality(track, i).vmaf_tv)),
            format!("{:.1}", median(&|i| video.quality(track, i).vmaf_phone)),
        ]);
    }
    print!("{classes}");
    println!("note the §3.1.2 inversion: Q4 has the most bytes and the worst quality");
    Ok(())
}

/// `cava run <video> <scheme> [--traces N] [--set KIND] [--seed S] [--live H] [--err F]`
/// where `KIND` is one of [`trace_kinds`].
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["traces", "set", "seed", "live", "err"])?;
    args.expect_positionals(2, "run <video> <scheme>")?;
    let video = load_video(args.positional(0, "video")?)?;
    let scheme_name = args.positional(1, "scheme")?.to_string();
    let (traces, qoe) = trace_set(&args)?;
    let live_head: usize = args.flag_parsed("live", 0)?;
    let err: f64 = args.flag_parsed("err", 0.0)?;
    if !(0.0..1.0).contains(&err) {
        return Err("--err must be in [0, 1)".to_string());
    }
    let manifest = Manifest::from_video(&video);
    let classification = Classification::from_video(&video);
    let player = PlayerConfig {
        live: (live_head > 0).then_some(LiveConfig {
            head_start_chunks: live_head,
        }),
        startup_threshold_s: if live_head > 0 {
            (live_head as f64 * manifest.chunk_duration()).min(10.0)
        } else {
            10.0
        },
        bandwidth_error: (err > 0.0).then_some((err, 1234)),
        ..PlayerConfig::default()
    };
    let sim = Simulator::new(player);
    let mut algo = build_scheme(&scheme_name, &video, qoe.vmaf_model)?;
    let mut acc = [0.0f64; 7];
    for trace in &traces {
        let session = sim.run(algo.as_mut(), &manifest, trace);
        let m = evaluate(&session, &video, &classification, &qoe);
        acc[0] += m.q4_quality_mean;
        acc[1] += m.q13_quality_mean;
        acc[2] += m.all_quality_mean;
        acc[3] += m.low_quality_pct;
        acc[4] += m.rebuffer_s;
        acc[5] += m.avg_quality_change;
        acc[6] += m.data_usage_bytes as f64 / 1e6;
    }
    let n = traces.len() as f64;
    println!(
        "{} on {} over {} traces{}{}",
        algo.name(),
        video.name(),
        traces.len(),
        if live_head > 0 {
            format!(", live (head start {live_head})")
        } else {
            String::new()
        },
        if err > 0.0 {
            format!(", prediction error ±{:.0}%", err * 100.0)
        } else {
            String::new()
        }
    );
    let mut table = TextTable::new(vec!["metric", "mean"]);
    table.add_row(vec!["Q4 quality (VMAF)", &format!("{:.1}", acc[0] / n)]);
    table.add_row(vec!["Q1-Q3 quality", &format!("{:.1}", acc[1] / n)]);
    table.add_row(vec!["all-chunk quality", &format!("{:.1}", acc[2] / n)]);
    table.add_row(vec![
        "low-quality chunks (%)",
        &format!("{:.1}", acc[3] / n),
    ]);
    table.add_row(vec!["rebuffering (s)", &format!("{:.1}", acc[4] / n)]);
    table.add_row(vec![
        "quality change (/chunk)",
        &format!("{:.2}", acc[5] / n),
    ]);
    table.add_row(vec!["data usage (MB)", &format!("{:.1}", acc[6] / n)]);
    print!("{table}");
    Ok(())
}

/// `cava compare <video> [--traces N] [--set KIND] [--seed S]`
pub fn compare(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["traces", "set", "seed"])?;
    args.expect_positionals(1, "compare <video>")?;
    let video = load_video(args.positional(0, "video")?)?;
    let (traces, qoe) = trace_set(&args)?;
    let manifest = Manifest::from_video(&video);
    let classification = Classification::from_video(&video);
    let sim = Simulator::paper_default();
    println!("{} over {} traces", video.name(), traces.len());
    let mut table = TextTable::new(vec![
        "scheme",
        "Q4",
        "Q1-3",
        "low-q %",
        "rebuf (s)",
        "qual chg",
        "MB",
    ]);
    for kind in SchemeKind::ALL {
        let mut algo = kind.build(&video, qoe.vmaf_model);
        let mut acc = [0.0f64; 6];
        for trace in &traces {
            let session = sim.run(algo.as_mut(), &manifest, trace);
            let m = evaluate(&session, &video, &classification, &qoe);
            acc[0] += m.q4_quality_mean;
            acc[1] += m.q13_quality_mean;
            acc[2] += m.low_quality_pct;
            acc[3] += m.rebuffer_s;
            acc[4] += m.avg_quality_change;
            acc[5] += m.data_usage_bytes as f64 / 1e6;
        }
        let n = traces.len() as f64;
        table.add_row(vec![
            algo.name().to_string(),
            format!("{:.1}", acc[0] / n),
            format!("{:.1}", acc[1] / n),
            format!("{:.1}", acc[2] / n),
            format!("{:.1}", acc[3] / n),
            format!("{:.2}", acc[4] / n),
            format!("{:.0}", acc[5] / n),
        ]);
    }
    print!("{table}");
    Ok(())
}

/// `cava export-mpd <video> [--out FILE]`
pub fn export_mpd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["out"])?;
    args.expect_positionals(1, "export-mpd <video>")?;
    let video = load_video(args.positional(0, "video")?)?;
    let xml = vbr_video::mpd::to_mpd_xml(&Manifest::from_video(&video));
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &xml).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path} ({} bytes)", xml.len());
        }
        None => print!("{xml}"),
    }
    Ok(())
}

/// `cava gen-traces <kind> <count> <dir> [--format csv|json|mahimahi] [--seed S]`
/// where `<kind>` is one of [`trace_kinds`].
pub fn gen_traces(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["format", "seed"])?;
    let kinds = trace_kinds("|");
    args.expect_positionals(3, &format!("gen-traces <{kinds}> <count> <dir>"))?;
    let kind = args.positional(0, &kinds)?.to_string();
    let count: usize = args
        .positional(1, "count")?
        .parse()
        .map_err(|_| "count must be a number".to_string())?;
    if count == 0 {
        return Err("count must be at least 1".to_string());
    }
    let dir = std::path::PathBuf::from(args.positional(2, "dir")?);
    let regime = regime(&kind)?;
    let seed: u64 = args.flag_parsed("seed", regime.corpus_seed())?;
    let traces = regime.corpus(count, seed);
    let format = args.flag("format").unwrap_or("csv");
    match format {
        "csv" => {
            for t in &traces {
                net_trace::io::save_csv(t, dir.join(format!("{}.csv", t.name())))
                    .map_err(|e| e.to_string())?;
            }
        }
        "mahimahi" => {
            for t in &traces {
                net_trace::io::save_mahimahi(t, dir.join(format!("{}.trace", t.name())))
                    .map_err(|e| e.to_string())?;
            }
        }
        "json" => {
            net_trace::io::save_json(&traces, dir.join(format!("{kind}-traces.json")))
                .map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown format {other:?} (csv, json, mahimahi)")),
    }
    println!(
        "wrote {count} {kind} traces to {} ({format})",
        dir.display()
    );
    Ok(())
}

/// `cava inspect <video> <scheme> [--seed S] [--set KIND] [--json FILE]`
pub fn inspect(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["seed", "set", "json"])?;
    args.expect_positionals(2, "inspect <video> <scheme>")?;
    let video = load_video(args.positional(0, "video")?)?;
    let scheme_name = args.positional(1, "scheme")?.to_string();
    let regime = regime(args.flag("set").unwrap_or("lte"))?;
    let seed: u64 = args.flag_parsed("seed", regime.corpus_seed())?;
    let (trace, qoe) = (regime.trace(seed), regime.corpus_qoe());
    let manifest = Manifest::from_video(&video);
    let classification = Classification::from_video(&video);
    let mut algo = build_scheme(&scheme_name, &video, qoe.vmaf_model)?;
    let session = Simulator::paper_default().run(algo.as_mut(), &manifest, &trace);
    let metrics = evaluate(&session, &video, &classification, &qoe);

    println!(
        "{} on {} over {} (mean {:.2} Mbps)",
        algo.name(),
        video.name(),
        trace.name(),
        trace.mean_bps() / 1e6
    );
    println!(
        "startup {:.1}s, rebuffering {:.1}s ({} events), mean level {:.2}, data {:.1} MB",
        session.startup_delay_s,
        session.total_stall_s,
        session.n_stall_events,
        session.mean_level(),
        session.total_bytes() as f64 / 1e6
    );
    println!(
        "Q4 quality {:.1}, all-chunk quality {:.1}, quality change {:.2}",
        metrics.q4_quality_mean, metrics.all_quality_mean, metrics.avg_quality_change
    );

    // Per-chunk table, decimated to keep the terminal readable.
    let step = (session.n_chunks() / 30).max(1);
    let mut table = TextTable::new(vec![
        "chunk",
        "class",
        "level",
        "KB",
        "dl (s)",
        "Mbps",
        "stall (s)",
        "buffer (s)",
    ]);
    for r in session.records.iter().step_by(step) {
        table.add_row(vec![
            r.index.to_string(),
            classification.class(r.index).label().to_string(),
            r.level.to_string(),
            format!("{:.0}", r.bytes as f64 / 1e3),
            format!("{:.2}", r.download_secs),
            format!("{:.2}", r.throughput_bps / 1e6),
            format!("{:.1}", r.stall_s),
            format!("{:.1}", r.buffer_after_s),
        ]);
    }
    print!("{table}");
    if step > 1 {
        println!("(every {step}th chunk shown; --json for the full record)");
    }

    if let Some(path) = args.flag("json") {
        let json = serde_json::to_string_pretty(&session)
            .map_err(|e| format!("serializing session: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `cava trace-stats <kind> [--traces N] [--seed S]`
/// where `<kind>` is one of [`trace_kinds`].
pub fn trace_stats(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["traces", "seed"])?;
    let kinds = trace_kinds("|");
    args.expect_positionals(1, &format!("trace-stats <{kinds}>"))?;
    let kind = args.positional(0, &kinds)?.to_string();
    let count: usize = args.flag_parsed("traces", 50)?;
    if count == 0 {
        return Err("--traces must be at least 1".to_string());
    }
    let regime = regime(&kind)?;
    let seed: u64 = args.flag_parsed("seed", regime.corpus_seed())?;
    let traces = regime.corpus(count, seed);
    let means: Vec<f64> = traces.iter().map(|t| t.mean_bps() / 1e6).collect();
    let covs: Vec<f64> = traces
        .iter()
        .map(|t| {
            let mean = t.mean_bps();
            let var = t
                .samples()
                .iter()
                .map(|s| (s - mean) * (s - mean))
                .sum::<f64>()
                / t.n_samples() as f64;
            var.sqrt() / mean
        })
        .collect();
    let outage: Vec<f64> = traces
        .iter()
        .map(|t| {
            100.0 * t.samples().iter().filter(|&&s| s == 0.0).count() as f64 / t.n_samples() as f64
        })
        .collect();
    println!(
        "{count} {kind} traces, {:.0} min each, interval {}s",
        traces[0].duration_s() / 60.0,
        traces[0].interval_s()
    );
    let mut table = TextTable::new(vec!["statistic", "mean Mbps", "CoV", "outage %"]);
    for (label, p) in [("p10", 10.0), ("median", 50.0), ("p90", 90.0)] {
        let pick = |xs: &[f64]| sim_report::stats::percentile(xs, p).unwrap_or(0.0);
        table.add_row(vec![
            label.to_string(),
            format!("{:.2}", pick(&means)),
            format!("{:.2}", pick(&covs)),
            format!("{:.2}", pick(&outage)),
        ]);
    }
    print!("{table}");
    Ok(())
}

/// `cava serve [--addr A] [--threads N] [--shards N] [--capacity N]
/// [--read-deadline-ms MS] [--write-deadline-ms MS] [--poll-ms MS]
/// [--port-file PATH] [--record PATH]`
///
/// Blocks until a client sends a `Shutdown` frame. Each reactor thread
/// multiplexes any number of connections. Thread count
/// defaults to `ABR_SERVE_THREADS` (then 8); the deadlines default to
/// `ABR_SERVE_READ_DEADLINE_MS` / `ABR_SERVE_WRITE_DEADLINE_MS` /
/// `ABR_SERVE_POLL_MS` (then 120000 / 30000 / 20). A deadline of 0
/// disables it. `--shards` sets the session-store shard count (default 8).
pub fn serve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&[
        "addr",
        "threads",
        "shards",
        "capacity",
        "read-deadline-ms",
        "write-deadline-ms",
        "poll-ms",
        "port-file",
        "record",
    ])?;
    args.expect_positionals(0, "serve [--addr A] [--threads N] [--capacity N]")?;
    let addr = args.flag("addr").unwrap_or("127.0.0.1:0");
    let threads: usize = args.flag_parsed("threads", abr_serve::server::threads_from_env())?;
    let shards: usize = args.flag_parsed("shards", StoreConfig::default().shards)?;
    let capacity: usize = args.flag_parsed("capacity", StoreConfig::default().capacity)?;
    let read_deadline_ms: u64 = args.flag_parsed(
        "read-deadline-ms",
        abr_serve::server::read_deadline_from_env(),
    )?;
    let write_deadline_ms: u64 = args.flag_parsed(
        "write-deadline-ms",
        abr_serve::server::write_deadline_from_env(),
    )?;
    let poll_ms: u64 = args.flag_parsed("poll-ms", abr_serve::server::poll_ms_from_env())?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    if capacity == 0 {
        return Err("--capacity must be at least 1".to_string());
    }
    if poll_ms == 0 {
        return Err("--poll-ms must be at least 1".to_string());
    }
    let config = ServerConfig {
        threads,
        read_deadline_ms,
        write_deadline_ms,
        poll_ms,
        store: StoreConfig {
            capacity,
            shards,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    // --record wins over the ABR_SERVE_RECORD env default; either names
    // the replay-log path, see docs/REPLAY.md.
    let record_path = args
        .flag("record")
        .map(str::to_string)
        .or_else(replay::record_path_from_env);
    let recorder = match &record_path {
        Some(path) => {
            let recorder = Arc::new(
                Recorder::to_file(Path::new(path)).map_err(|e| format!("recording {path}: {e}"))?,
            );
            recorder.record(&Event::RunMeta {
                label: "cava serve".to_string(),
                seed: 0,
            });
            Some(recorder)
        }
        None => None,
    };
    let bound = Server::bind_recorded(addr, config, dataset_provider(), recorder.clone())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "serving on {} ({} reactor threads, session capacity {}, {} shards)",
        bound.addr(),
        threads,
        capacity,
        shards
    );
    if let Some(path) = &record_path {
        println!("recording event log to {path}");
    }
    if let Some(path) = args.flag("port-file") {
        // Written after bind so a parent process can poll for the address.
        std::fs::write(path, bound.addr().to_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let stats = bound.serve();
    println!(
        "shutdown: {} connections ({} reaped), {} sessions ({} aborted, {} evicted, {} orphaned, {} resumed, {} degraded), {} decisions, {} protocol errors, {} sockopt errors",
        stats.connections,
        stats.connections_reaped,
        stats.sessions_opened,
        stats.sessions_aborted,
        stats.sessions_evicted,
        stats.sessions_orphaned,
        stats.sessions_resumed,
        stats.degraded_opens,
        stats.decisions,
        stats.protocol_errors,
        stats.sockopt_errors
    );
    if let Some(recorder) = recorder {
        let events = recorder
            .finish()
            .map_err(|e| format!("finishing event log: {e}"))?;
        if let Some(path) = &record_path {
            println!("event log: {events} events in {path}");
        }
    }
    Ok(())
}

fn csv_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// `cava loadgen <addr> [--sessions N] [--connections C] [--seed S]
/// [--videos csv] [--schemes csv] [--vmaf tv|phone] [--hold BOOL]
/// [--parity BOOL] [--parity-every N] [--pipeline N] [--faults BOOL]
/// [--fault-period N] [--fault-stall-ms MS] [--fault-seed S] [--retries N]
/// [--stop-server BOOL] [--population N]`
///
/// With `--faults true` the fleet injects deterministic mid-frame stalls,
/// truncated writes, and connection resets (every `--fault-period` frame
/// first sends, streamed from `--fault-seed`), recovering via retry +
/// reconnect + session resume at any `--pipeline` depth. Exits nonzero on
/// any session error or parity mismatch — parity must hold even under
/// faults.
///
/// `--pipeline N` (default 1) keeps N sessions in flight on each
/// connection, so each flush batches N decisions — the soak-scale drive.
/// Results are byte-identical at every depth; at 1 each session runs to
/// completion before the next. With
/// `--hold true` the fleet opens every session before driving any and
/// reports how many the server held. `--parity-every N` samples the
/// in-process parity replay to every Nth session id.
pub fn loadgen(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&[
        "sessions",
        "connections",
        "seed",
        "videos",
        "schemes",
        "vmaf",
        "hold",
        "parity",
        "parity-every",
        "pipeline",
        "faults",
        "fault-period",
        "fault-stall-ms",
        "fault-seed",
        "retries",
        "stop-server",
        "record",
        "population",
    ])?;
    args.expect_positionals(1, "loadgen <addr>")?;
    let addr: SocketAddr = args.positional(0, "addr")?.parse().map_err(|_| {
        format!(
            "bad server address {:?}",
            args.positional(0, "addr").unwrap_or("")
        )
    })?;
    let defaults = LoadgenConfig::default();
    let seed: u64 = args.flag_parsed("seed", defaults.seed)?;
    let config = LoadgenConfig {
        sessions: args.flag_parsed("sessions", 200)?,
        connections: args.flag_parsed("connections", defaults.connections)?,
        seed,
        videos: args.flag("videos").map(csv_list).unwrap_or(defaults.videos),
        schemes: args
            .flag("schemes")
            .map(csv_list)
            .unwrap_or(defaults.schemes),
        vmaf_model: match args.flag("vmaf").unwrap_or("tv") {
            "tv" => VmafModel::Tv,
            "phone" => VmafModel::Phone,
            other => return Err(format!("unknown VMAF model {other:?} (tv or phone)")),
        },
        hold: args.flag_parsed("hold", defaults.hold)?,
        parity: args.flag_parsed("parity", defaults.parity)?,
        faults: {
            let fault_defaults = FaultConfig::default();
            let enabled: bool = args.flag_parsed("faults", false)?;
            let period: u64 = args.flag_parsed("fault-period", fault_defaults.period)?;
            let stall_ms: u64 = args.flag_parsed("fault-stall-ms", fault_defaults.stall_ms)?;
            let fault_seed: u64 = args.flag_parsed("fault-seed", fault_defaults.seed)?;
            let max_retries: u32 = args.flag_parsed("retries", fault_defaults.max_retries)?;
            enabled.then_some(FaultConfig {
                seed: fault_seed,
                period,
                stall_ms,
                max_retries,
                ..fault_defaults
            })
        },
        player: defaults.player,
        // --population N switches the fleet to population mode: N seeded
        // viewers (diurnal arrival order, cohort network regimes and player
        // configs, mid-session seeks, abandonment) instead of the classic
        // shuffled full-session plan. The population seed is --seed.
        population: {
            let viewers: usize = args.flag_parsed("population", 0)?;
            (viewers > 0).then(|| PopConfig {
                seed,
                sessions: viewers,
                ..PopConfig::default()
            })
        },
        pipeline: args.flag_parsed("pipeline", defaults.pipeline)?,
        parity_every: args.flag_parsed("parity-every", defaults.parity_every)?,
    };
    let stop_server: bool = args.flag_parsed("stop-server", false)?;
    // Client-side event log: the fleet's fault-injection plan. The
    // server's own log (its --record) carries the decisions; this one
    // records when and what the adversary injected.
    let record_path = args.flag("record").map(str::to_string);
    let recorder = match &record_path {
        Some(path) => {
            let recorder = Arc::new(
                Recorder::to_file(Path::new(path)).map_err(|e| format!("recording {path}: {e}"))?,
            );
            recorder.record(&Event::RunMeta {
                label: format!("cava loadgen {addr}"),
                seed: config.seed,
            });
            Some(recorder)
        }
        None => None,
    };

    let watch = Stopwatch::start();
    let now = move || watch.seconds();
    let report = loadgen::run_recorded(addr, &config, &dataset_provider(), &now, recorder.clone())
        .map_err(|e| format!("loadgen against {addr}: {e}"))?;

    let decisions = report.decisions();
    let wall = report.wall_time_s.max(f64::MIN_POSITIVE);
    println!(
        "{} sessions over {} connections in {:.2}s ({:.1} sessions/s, {:.0} decisions/s)",
        report.outcomes.len(),
        config.connections,
        report.wall_time_s,
        report.outcomes.len() as f64 / wall,
        decisions as f64 / wall
    );
    let p50 = report.latency_percentile(50.0).unwrap_or(0.0);
    let p99 = report.latency_percentile(99.0).unwrap_or(0.0);
    println!(
        "{decisions} decisions, service latency p50 {:.3} ms, p99 {:.3} ms",
        p50 * 1e3,
        p99 * 1e3
    );
    if let Some(held) = report.held_sessions {
        println!(
            "hold: {held} sessions held concurrently; drive window {:.2}s ({:.0} decisions/s served)",
            report.drive_wall_s,
            decisions as f64 / report.drive_wall_s.max(f64::MIN_POSITIVE)
        );
    }
    if let Some(stats) = &report.server_stats {
        println!(
            "server: peak {} concurrent sessions, {} decisions ({} degraded), {} protocol errors, {} reaped, {} resumed",
            stats.peak_sessions,
            stats.decisions,
            stats.degraded_decisions,
            stats.protocol_errors,
            stats.connections_reaped,
            stats.sessions_resumed
        );
    }
    if config.faults.is_some() {
        let cs = &report.client_stats;
        println!(
            "faults: {} injected ({} stalls, {} truncated writes, {} resets); {} retries, {} reconnects, {} resumes",
            cs.faults_injected(),
            cs.stalls,
            cs.truncated_writes,
            cs.resets,
            cs.retries,
            cs.reconnects,
            cs.resumes
        );
    }
    println!(
        "parity: {} checked, {} mismatches; {} degraded sessions",
        report
            .outcomes
            .iter()
            .filter(|o| o.parity.is_some())
            .count(),
        report.parity_mismatches().len(),
        report.degraded_sessions()
    );
    if stop_server {
        loadgen::shutdown_server(addr).map_err(|e| format!("stopping server: {e}"))?;
        println!("server stopped");
    }
    if let Some(recorder) = recorder {
        let events = recorder
            .finish()
            .map_err(|e| format!("finishing event log: {e}"))?;
        if let Some(path) = &record_path {
            println!("event log: {events} events in {path}");
        }
    }

    let errors = report.errors();
    if let Some((id, error)) = errors.first() {
        return Err(format!(
            "{} sessions errored; first: session {id}: {error}",
            errors.len()
        ));
    }
    let mismatches = report.parity_mismatches();
    if !mismatches.is_empty() {
        return Err(format!(
            "decision parity broken for {} sessions (ids {:?}...)",
            mismatches.len(),
            &mismatches[..mismatches.len().min(8)]
        ));
    }
    Ok(())
}

/// `cava population [--seed S] [--sessions N] [--duration SECS] [--threads N]
/// [--phone W] [--tv W] [--network W,W,W,W] [--live FRAC] [--video NAME]
/// [--csv FILE]`
///
/// Sweep a seeded viewer population (diurnal arrivals, device/network/live
/// cohort mix, per-viewer seeks and abandonment) through the in-process
/// simulator and print per-cohort QoE. `--network` takes four weights in
/// LTE, FCC, 5G, satellite order. The sweep is byte-identical for any
/// `--threads` value; `--csv` writes the canonical per-cohort document.
pub fn population(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&[
        "seed", "sessions", "duration", "threads", "phone", "tv", "network", "live", "video", "csv",
    ])?;
    args.expect_positionals(0, "population [--sessions N] [--seed S]")?;
    let defaults = PopConfig::default();
    let seed: u64 = args.flag_parsed("seed", defaults.seed)?;
    let sessions: usize = args.flag_parsed("sessions", defaults.sessions)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    let duration_s: f64 = args.flag_parsed("duration", defaults.duration_s)?;
    if duration_s <= 0.0 || !duration_s.is_finite() {
        return Err("--duration must be positive seconds".to_string());
    }
    let threads: usize = args.flag_parsed("threads", 0)?;
    let phone: f64 = args.flag_parsed("phone", defaults.mix.phone)?;
    let tv: f64 = args.flag_parsed("tv", defaults.mix.tv)?;
    let live_fraction: f64 = args.flag_parsed("live", defaults.mix.live_fraction)?;
    let network: [f64; 4] = match args.flag("network") {
        None => defaults.mix.network,
        Some(raw) => {
            let weights: Vec<f64> = raw
                .split(',')
                .map(|w| w.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| format!("bad --network weights {raw:?}"))?;
            let [lte, fcc, fiveg, satellite] = weights[..] else {
                return Err("--network needs exactly 4 weights (lte,fcc,5g,satellite)".to_string());
            };
            [lte, fcc, fiveg, satellite]
        }
    };
    if phone < 0.0 || tv < 0.0 || phone + tv <= 0.0 {
        return Err("--phone/--tv weights must be non-negative, not both zero".to_string());
    }
    if network.iter().any(|&w| w < 0.0) || network.iter().sum::<f64>() <= 0.0 {
        return Err("--network weights must be non-negative, not all zero".to_string());
    }
    if !(0.0..=1.0).contains(&live_fraction) {
        return Err("--live must be a fraction in [0, 1]".to_string());
    }
    let config = PopConfig {
        seed,
        sessions,
        duration_s,
        mix: MixConfig {
            phone,
            tv,
            network,
            live_fraction,
        },
        ..defaults
    };

    let video_name = args.flag("video").unwrap_or("ED-youtube-h264");
    let video = abr_bench::engine::PreparedVideo::new(load_video(video_name)?);
    let threads = if threads == 0 {
        abr_bench::engine::default_threads(sessions)
    } else {
        threads
    };
    let watch = Stopwatch::start();
    let summaries = abr_bench::population::sweep(config, &video, threads);
    let wall = watch.seconds().max(f64::MIN_POSITIVE);

    println!(
        "{sessions} viewers (seed {seed}) over {:.1} h of arrivals, {threads} threads",
        duration_s / 3600.0
    );
    let mut breakdown = sim_report::CohortBreakdown::new(&[
        ("abandoned", 0),
        ("seeks", 0),
        ("quality", 1),
        ("low-q (%)", 1),
        ("rebuf (s)", 2),
        ("startup (s)", 2),
        ("watched (s)", 1),
    ]);
    for c in &summaries {
        breakdown.add(
            &c.cohort,
            c.sessions,
            &[
                c.abandoned as f64,
                c.seeks as f64,
                c.mean_quality,
                c.low_quality_pct,
                c.mean_rebuffer_s,
                c.mean_startup_s,
                c.mean_watched_s,
            ],
        );
    }
    print!("{}", breakdown.to_table().render());
    let abandoned: usize = summaries.iter().map(|c| c.abandoned).sum();
    let seeks: usize = summaries.iter().map(|c| c.seeks).sum();
    println!(
        "{abandoned} abandoned, {seeks} seeks; swept in {wall:.2}s ({:.0} sessions/s)",
        sessions as f64 / wall
    );
    if let Some(path) = args.flag("csv") {
        std::fs::write(path, abr_bench::population::csv_bytes(&summaries))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `cava replay <log> [--seek TICK] [--diff OTHER]`
///
/// Default mode re-executes every recorded decision through freshly built
/// algorithm instances and verifies bit-identical answers; any divergence
/// is printed (first one in full) and the exit code is nonzero. `--seek`
/// stops the replay at a logical tick and prints the state summary there
/// (seeking rebuilds from the initial state, so it always agrees with
/// stepping). `--diff` skips re-execution and instead bisects the first
/// record at which two logs disagree, byte for byte. Spec and walkthrough:
/// docs/REPLAY.md.
pub fn replay(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    args.ensure_known_flags(&["seek", "diff"])?;
    args.expect_positionals(1, "replay <log> [--seek TICK] [--diff OTHER]")?;
    let path = args.positional(0, "log")?;
    let log = replay::read_log(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    println!(
        "{path}: format v{}, {} events, last tick {}{}{}",
        log.version,
        log.len(),
        log.last_tick(),
        if log.truncated {
            " (truncated mid-record)"
        } else {
            ""
        },
        if log.ended() {
            ""
        } else {
            " (no RunEnd marker)"
        },
    );

    if let Some(other) = args.flag("diff") {
        let rhs =
            replay::read_log(Path::new(other)).map_err(|e| format!("reading {other}: {e}"))?;
        return match replay::diff_logs(&log, &rhs) {
            None => {
                println!("logs identical: {} events match byte for byte", log.len());
                Ok(())
            }
            Some(d) => Err(format!("{d}")),
        };
    }

    let mut player = ReplayPlayer::new(log, dataset_provider());
    match args.flag("seek") {
        None => {
            player.run_to_end();
        }
        Some(raw) => {
            let tick: u64 = raw
                .parse()
                .map_err(|_| format!("bad --seek tick {raw:?}"))?;
            player.seek_to_tick(tick);
        }
    }
    let s = player.summary();
    println!(
        "replayed {}/{} events to tick {}: {} decisions re-executed ({} retransmits verified), \
         {} faults, {} frames in / {} out, {} sessions live",
        s.applied,
        s.events,
        s.current_tick,
        s.decisions,
        s.retransmits,
        s.faults,
        s.frames_in,
        s.frames_out,
        s.open_sessions,
    );
    if let Some(first) = player.first_divergence() {
        for d in player.divergences().iter().skip(1) {
            eprintln!("also diverged: {d}");
        }
        return Err(format!("replay diverged from the recording at {first}"));
    }
    println!("replay matches the recording tick for tick");
    Ok(())
}
