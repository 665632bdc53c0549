// This target sits outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

//! End-to-end tests of the `cava` binary (spawned as a real process).

use std::process::{Command, Output};

fn cava(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cava"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cava(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = cava(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("list-videos"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = cava(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn list_videos_shows_dataset() {
    let out = cava(&["list-videos"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ED-ffmpeg-h264"));
    assert!(text.contains("BBB-youtube-h264"));
    assert!(text.contains("1080p"));
}

#[test]
fn characterize_reports_inversion() {
    let out = cava(&["characterize", "ED-youtube-h264"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cross-track size consistency"));
    assert!(text.contains("Q4"));
}

#[test]
fn run_cava_small() {
    let out = cava(&["run", "ED-youtube-h264", "cava", "--traces", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("CAVA on ED-youtube-h264 over 3 traces"));
    assert!(text.contains("Q4 quality"));
}

#[test]
fn run_live_mode() {
    let out = cava(&[
        "run",
        "ED-youtube-h264",
        "robustmpc",
        "--traces",
        "2",
        "--live",
        "4",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("live (head start 4)"));
}

#[test]
fn run_rejects_unknown_scheme_and_video() {
    let out = cava(&["run", "ED-youtube-h264", "nope", "--traces", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown scheme"));
    let out = cava(&["run", "nope", "cava", "--traces", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown video"));
}

#[test]
fn run_rejects_bad_flags() {
    let out = cava(&["run", "ED-youtube-h264", "cava", "--tracs", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag"));
    let out = cava(&["run", "ED-youtube-h264", "cava", "--err", "1.5"]);
    assert!(!out.status.success());
}

#[test]
fn export_mpd_to_stdout_and_file() {
    let out = cava(&["export-mpd", "ED-youtube-h264"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("urn:mpeg:dash:schema:mpd:2011"));
    let dir = std::env::temp_dir().join("cava_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ed.mpd");
    let out = cava(&[
        "export-mpd",
        "ED-youtube-h264",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let xml = std::fs::read_to_string(&path).unwrap();
    assert!(vbr_video_round_trips(&xml));
    std::fs::remove_dir_all(&dir).ok();
}

fn vbr_video_round_trips(xml: &str) -> bool {
    // The exported MPD must be parseable by the library itself.
    std::panic::catch_unwind(|| {
        let parsed = vbr_video_mpd_parse(xml);
        parsed.is_ok()
    })
    .unwrap_or(false)
}

fn vbr_video_mpd_parse(xml: &str) -> Result<(), String> {
    // Lightweight: shell out to nothing — link the library? The CLI crate's
    // integration tests can use its dependencies directly.
    vbr_video::mpd::from_mpd_xml(xml)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn gen_traces_all_formats() {
    let dir = std::env::temp_dir().join("cava_cli_traces");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for format in ["csv", "json", "mahimahi"] {
        let out = cava(&[
            "gen-traces",
            "lte",
            "2",
            dir.to_str().unwrap(),
            "--format",
            format,
        ]);
        assert!(out.status.success(), "{format}: {}", stderr(&out));
    }
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    // 2 csv + 1 json + 2 mahimahi.
    assert_eq!(entries.len(), 5);
    // Round-trip one CSV through the loader.
    let csv = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.path().extension().is_some_and(|x| x == "csv"))
        .expect("a csv");
    let trace = net_trace::io::load_csv(csv.path()).expect("loads");
    assert!(trace.mean_bps() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_runs_all_schemes() {
    let out = cava(&["compare", "ED-youtube-h264", "--traces", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for name in [
        "CAVA",
        "RobustMPC",
        "PANDA/CQ max-min",
        "BOLA-E (seg)",
        "FESTIVE",
        "PIA",
    ] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn inspect_shows_per_chunk_detail_and_exports_json() {
    let dir = std::env::temp_dir().join("cava_cli_inspect");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("session.json");
    let out = cava(&[
        "inspect",
        "ED-youtube-h264",
        "cava",
        "--seed",
        "7",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("CAVA on ED-youtube-h264"));
    assert!(text.contains("buffer (s)"));
    // Exported JSON parses back into a SessionResult.
    let json = std::fs::read_to_string(&json_path).unwrap();
    let session: abr_sim::SessionResult = serde_json::from_str(&json).unwrap();
    assert_eq!(session.n_chunks(), 120);
    assert!(session.validate().is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_stats_reports_percentiles() {
    let out = cava(&["trace-stats", "lte", "--traces", "10"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("median"));
    assert!(text.contains("outage %"));
    let out = cava(&["trace-stats", "dsl"]);
    assert!(!out.status.success());
}

#[test]
fn surplus_positionals_fail_with_usage_shape() {
    for argv in [
        vec!["list-videos", "extra"],
        vec!["characterize", "ED-youtube-h264", "extra"],
        vec!["run", "ED-youtube-h264", "cava", "extra"],
        vec!["compare", "ED-youtube-h264", "extra"],
        vec!["export-mpd", "ED-youtube-h264", "extra"],
        vec!["inspect", "ED-youtube-h264", "cava", "extra"],
        vec!["trace-stats", "lte", "extra"],
        vec!["gen-traces", "lte", "2", "/tmp/x", "extra"],
    ] {
        let out = cava(&argv);
        assert!(!out.status.success(), "{argv:?} should fail");
        let err = stderr(&out);
        assert!(
            err.contains("unexpected argument") && err.contains("extra"),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn zero_counts_are_rejected_not_paniced() {
    let out = cava(&["gen-traces", "lte", "0", "/tmp/cava_cli_zero"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at least 1"), "{}", stderr(&out));
    let out = cava(&["trace-stats", "lte", "--traces", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at least 1"), "{}", stderr(&out));
}

#[test]
fn serve_rejects_bad_flag_values() {
    for argv in [
        vec!["serve", "--threads", "0"],
        vec!["serve", "--capacity", "0"],
        vec!["serve", "--threads", "four"],
        vec!["serve", "--poll-ms", "0"],
        vec!["serve", "--read-deadline-ms", "soon"],
        vec!["serve", "--write-deadline-ms", "-1"],
        vec!["serve", "extra"],
    ] {
        let out = cava(&argv);
        assert!(!out.status.success(), "{argv:?} should fail");
    }
}

#[test]
fn loadgen_rejects_bad_arguments() {
    for argv in [
        vec!["loadgen"],
        vec!["loadgen", "not-an-addr"],
        vec!["loadgen", "127.0.0.1:1", "--vmaf", "cinema"],
        vec!["loadgen", "127.0.0.1:1", "--sessions", "many"],
        vec!["loadgen", "127.0.0.1:1", "--faults", "maybe"],
        vec!["loadgen", "127.0.0.1:1", "--retries", "many"],
        vec!["loadgen", "127.0.0.1:1", "--fault-period", "-3"],
        vec!["loadgen", "127.0.0.1:1", "extra"],
    ] {
        let out = cava(&argv);
        assert!(!out.status.success(), "{argv:?} should fail");
    }
}

#[test]
fn repeated_flag_is_rejected_not_silently_first_wins() {
    // Neither value may win silently: the command fails at parse time,
    // before any dial, and names the flag.
    let out = cava(&[
        "loadgen",
        "127.0.0.1:1",
        "--sessions",
        "12",
        "--seed",
        "3",
        "--sessions",
        "48",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("--sessions given more than once"), "{err}");
}

#[test]
fn serve_and_loadgen_round_trip_over_loopback() {
    let dir = std::env::temp_dir().join("cava_cli_serve");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("addr");

    let mut server = Command::new(env!("CARGO_BIN_EXE_cava"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "4",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");

    // Poll for the port file the server writes after binding.
    let mut addr = String::new();
    for _ in 0..500 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if !text.is_empty() {
                addr = text;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!addr.is_empty(), "server never wrote its address");

    // The same faulted fleet serially, then four sessions in flight per
    // connection; the second run stops the server.
    for (pipeline, stop) in [("1", "false"), ("4", "true")] {
        let out = cava(&[
            "loadgen",
            &addr,
            "--sessions",
            "12",
            "--connections",
            "3",
            "--schemes",
            "cava,bola,rba",
            "--faults",
            "true",
            "--fault-period",
            "6",
            "--fault-stall-ms",
            "2",
            "--pipeline",
            pipeline,
            "--stop-server",
            stop,
        ]);
        assert!(
            out.status.success(),
            "pipeline {pipeline}: {}",
            stderr(&out)
        );
        let text = stdout(&out);
        assert!(text.contains("12 sessions over 3 connections"), "{text}");
        assert!(text.contains("faults:"), "{text}");
        assert!(text.contains("parity: 12 checked, 0 mismatches"), "{text}");
        assert_eq!(text.contains("server stopped"), stop == "true", "{text}");
    }

    // --stop-server shut the server down; it exits on its own.
    let status = server.wait().expect("server exits");
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}
