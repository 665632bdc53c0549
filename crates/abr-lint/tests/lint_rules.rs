//! Fixture-driven rule tests (one per rule R1–R10) plus the clean-tree
//! test: the linter run over the real workspace must report zero
//! violations with every rule armed.

#![allow(clippy::unwrap_used)]

use abr_lint::{
    check_crate_hot_paths, check_crate_root, check_file, check_spec_drift, lint_workspace,
};
use std::path::Path;

fn rules_hit(rel_path: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = check_file(rel_path, source)
        .into_iter()
        .map(|v| v.rule)
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn r1_detects_wall_clock_in_sim_crate() {
    let src = include_str!("fixtures/r1_wallclock.rs");
    let hits = check_file("crates/abr-sim/src/fixture.rs", src);
    assert!(
        hits.iter().filter(|v| v.rule == "R1").count() >= 2,
        "both Instant::now and SystemTime::now must be flagged: {hits:?}"
    );
    // The same file is fine in a crate where wall-clock is allowed.
    assert!(check_file("crates/cli/src/fixture.rs", src).is_empty());
}

#[test]
fn r2_detects_hash_collections_in_output_crate() {
    let src = include_str!("fixtures/r2_hashmap.rs");
    let hits = check_file("crates/bench/src/fixture.rs", src);
    let r2 = hits.iter().filter(|v| v.rule == "R2").count();
    assert!(
        r2 >= 2,
        "HashMap and HashSet must both be flagged: {hits:?}"
    );
    assert_eq!(rules_hit("crates/sim-report/src/fixture.rs", src), ["R2"]);
    // Non-output crates may use hash collections internally.
    assert!(check_file("crates/net-trace/src/fixture.rs", src).is_empty());
}

#[test]
fn r3_detects_os_entropy_everywhere() {
    let src = include_str!("fixtures/r3_entropy.rs");
    for path in [
        "crates/net-trace/src/fixture.rs",
        "crates/bench/src/fixture.rs",
        "src/fixture.rs",
    ] {
        let hits = check_file(path, src);
        let r3 = hits.iter().filter(|v| v.rule == "R3").count();
        assert!(
            r3 >= 4,
            "{path}: thread_rng, OsRng, from_entropy, rand::random: {hits:?}"
        );
    }
}

#[test]
fn r4_detects_exact_float_comparison_in_decision_logic() {
    let src = include_str!("fixtures/r4_float_cmp.rs");
    let hits = check_file("crates/core/src/fixture.rs", src);
    let r4: Vec<_> = hits.iter().filter(|v| v.rule == "R4").collect();
    assert_eq!(r4.len(), 2, "== 0.0 and 1.5 != both flagged: {hits:?}");
    // Ordering comparisons (`>`) must not be flagged.
    assert!(hits.iter().all(|v| !v.snippet.contains('>')));
    // Outside algorithm crates the rule is off.
    assert!(check_file("crates/sim-report/src/fixture.rs", src).is_empty());
}

#[test]
fn r5_detects_unwrap_and_expect_in_library_code_only() {
    let src = include_str!("fixtures/r5_unwrap.rs");
    let hits = check_file("crates/net-trace/src/fixture.rs", src);
    let r5: Vec<_> = hits.iter().filter(|v| v.rule == "R5").collect();
    assert_eq!(r5.len(), 2, "I/O unwrap and parse expect flagged: {hits:?}");
    // The `#[cfg(test)]` unwrap in the fixture must NOT be among them.
    assert!(r5.iter().all(|v| !v.snippet.contains("v.unwrap()")));
    // Harness crates (bench, cli) are out of R5's scope.
    assert!(check_file("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn cfg_test_on_a_bodiless_item_does_not_exempt_the_next_function() {
    let src = include_str!("fixtures/cfg_test_bodiless.rs");
    let hits = check_file("crates/core/src/fixture.rs", src);
    let r5: Vec<usize> = hits
        .iter()
        .filter(|v| v.rule == "R5")
        .map(|v| v.line)
        .collect();
    let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
    assert_eq!(
        r5,
        [line_of("x.unwrap()"), line_of(".expect(\"sample\")")],
        "{hits:?}"
    );
}

#[test]
fn cfg_test_on_a_field_or_variant_does_not_exempt_the_next_function() {
    let src = include_str!("fixtures/cfg_test_field.rs");
    let hits = check_file("crates/core/src/fixture.rs", src);
    let r5: Vec<usize> = hits
        .iter()
        .filter(|v| v.rule == "R5")
        .map(|v| v.line)
        .collect();
    let line_of = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
    assert_eq!(
        r5,
        [line_of("x.unwrap()"), line_of(".expect(\"mode\")")],
        "{hits:?}"
    );
}

#[test]
fn r7_follows_calls_past_a_cfg_test_module_declaration() {
    let files = vec![(
        "crates/x/src/store.rs".to_string(),
        include_str!("fixtures/cfg_test_bodiless.rs").to_string(),
    )];
    let hits = check_crate_hot_paths(&files);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "R7");
    assert!(
        hits[0].message.contains("Store::decide -> scratch_len"),
        "witness chain in the message: {}",
        hits[0].message
    );
}

#[test]
fn r6_detects_missing_forbid_unsafe_code() {
    let src = include_str!("fixtures/r6_missing_forbid.rs");
    let hits = check_crate_root("crates/x/src/lib.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, "R6");
    assert!(check_crate_root(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n"
    )
    .is_empty());
}

#[test]
fn r7_flags_allocations_reachable_from_hot_roots_across_files() {
    let files = vec![
        (
            "crates/x/src/root.rs".to_string(),
            include_str!("fixtures/r7_hot_root.rs").to_string(),
        ),
        (
            "crates/x/src/callees.rs".to_string(),
            include_str!("fixtures/r7_hot_callees.rs").to_string(),
        ),
    ];
    let hits = check_crate_hot_paths(&files);
    // Only deep_helper's allocation is hot: unreachable_alloc has no hot
    // caller and Telemetry::emit is marked cold.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "R7");
    assert_eq!(hits[0].path, "crates/x/src/callees.rs");
    assert!(
        hits[0]
            .message
            .contains("Store::decide -> prepare -> deep_helper"),
        "witness chain in the message: {}",
        hits[0].message
    );
}

#[test]
fn r7_seeds_from_reactor_sweep_helpers() {
    let files = vec![(
        "crates/x/src/reactor.rs".to_string(),
        include_str!("fixtures/r7_sweep_helpers.rs").to_string(),
    )];
    let hits = check_crate_hot_paths(&files);
    // The sweep helpers reuse preallocated buffers (`.resize(`,
    // `.extend_from_slice(` are reuse, not allocation) and the cold
    // teardown report never enters the hot set; only the formatter
    // reached from `drain_frames` allocates.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "R7");
    assert!(
        hits[0].message.contains("format!"),
        "pattern in the message: {}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("drain_frames"),
        "witness chain through the sweep helper: {}",
        hits[0].message
    );
}

#[test]
fn r7_reaches_the_session_core_from_the_store_decide_root() {
    // The real abr-serve sources, with a probe allocation planted in the
    // one per-session decision step the store and replay share.
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../abr-serve/src");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&src_dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut source = std::fs::read_to_string(&path).unwrap();
        if name == "store.rs" {
            let signature =
                "pub(crate) fn decide(&mut self, request: &DecisionRequest) -> (DecisionResponse, bool) {";
            assert!(source.contains(signature), "SessionState::decide moved");
            source = source.replace(
                signature,
                &format!("{signature}\n        let _probe = vec![0u8; 1];"),
            );
        }
        files.push((format!("crates/abr-serve/src/{name}"), source));
    }
    let hits = check_crate_hot_paths(&files);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].path, "crates/abr-serve/src/store.rs");
    assert!(
        hits[0]
            .message
            .contains("SessionStore::decide -> SessionState::decide"),
        "witness chain in the message: {}",
        hits[0].message
    );
}

#[test]
fn r7_without_markers_finds_nothing() {
    let files = vec![(
        "crates/x/src/a.rs".to_string(),
        "fn alloc_freely() -> Vec<u8> { vec![1, 2, 3] }\n".to_string(),
    )];
    assert!(check_crate_hot_paths(&files).is_empty());
}

#[test]
fn r8_flags_guard_held_across_io_but_not_released_guards() {
    let src = include_str!("fixtures/r8_lock_io.rs");
    let hits = check_file("crates/abr-serve/src/fixture.rs", src);
    let r8: Vec<_> = hits.iter().filter(|v| v.rule == "R8").collect();
    assert_eq!(r8.len(), 1, "{hits:?}");
    assert!(r8[0].message.contains(".write_all("), "{}", r8[0].message);
    // The flagged site is in held_across_write, not the clean functions.
    let lock_line = src
        .lines()
        .position(|l| l.contains("pub fn held_across_write"))
        .unwrap();
    assert!(r8[0].line > lock_line && r8[0].line < lock_line + 4);
}

#[test]
fn r8_flags_guard_held_across_the_poll_wait() {
    let src = include_str!("fixtures/r8_lock_poll.rs");
    let hits = check_file("crates/abr-serve/src/fixture.rs", src);
    let r8: Vec<_> = hits.iter().filter(|v| v.rule == "R8").collect();
    assert_eq!(r8.len(), 1, "{hits:?}");
    assert!(
        r8[0].message.contains("sys_poll::wait("),
        "{}",
        r8[0].message
    );
    let lock_line = src
        .lines()
        .position(|l| l.contains("pub fn held_across_wait"))
        .unwrap();
    assert!(r8[0].line > lock_line && r8[0].line < lock_line + 4);
}

#[test]
fn r9_flags_only_unguarded_narrowing_casts_in_watched_files() {
    let src = include_str!("fixtures/r9_casts.rs");
    let hits = check_file("crates/abr-serve/src/protocol.rs", src);
    let r9: Vec<_> = hits.iter().filter(|v| v.rule == "R9").collect();
    assert_eq!(r9.len(), 1, "{hits:?}");
    assert!(r9[0].snippet.contains("len as u32"), "{}", r9[0].snippet);
    // The same source is out of scope elsewhere.
    assert!(check_file("crates/abr-serve/src/server.rs", src).is_empty());
}

const R10_SPEC: &str = include_str!("fixtures/r10_spec.md");
const R10_DECODER: &str = include_str!("fixtures/r10_decoder.rs");

#[test]
fn r10_in_sync_pair_is_clean() {
    let hits = check_spec_drift(
        "docs/spec.md",
        R10_SPEC,
        "crates/x/src/replay.rs",
        R10_DECODER,
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn r10_record_type_added_to_decoder_without_spec_row_fails() {
    // The acceptance-criteria direction: a new row in the decoder's table
    // with no documentation row must fail the lint.
    let decoder = R10_DECODER.replace(
        "        Seek = 0x05",
        "        FaultInjected = 0x06 { kind: u8 },\n        Seek = 0x05",
    );
    assert_ne!(decoder, R10_DECODER, "fixture edit took effect");
    let hits = check_spec_drift("docs/spec.md", R10_SPEC, "crates/x/src/replay.rs", &decoder);
    assert!(
        hits.iter()
            .any(|v| v.rule == "R10" && v.message.contains("has no row")),
        "undocumented record type must be reported: {hits:?}"
    );
    // The drift anchors on the table row that introduced it.
    assert!(hits
        .iter()
        .any(|v| v.path == "crates/x/src/replay.rs" && v.snippet.contains("FaultInjected = 0x06")));
}

#[test]
fn r10_spec_row_without_decoder_constant_fails() {
    let spec = format!("{R10_SPEC}| 0x06 | FaultInjected | `kind u8` |\n");
    let hits = check_spec_drift("docs/spec.md", &spec, "crates/x/src/replay.rs", R10_DECODER);
    assert!(
        hits.iter().any(|v| v.rule == "R10"
            && v.path == "docs/spec.md"
            && v.message.contains("no row with that value")),
        "spec-only record type must be reported: {hits:?}"
    );
}

#[test]
fn r10_name_drift_between_spec_and_decoder_fails() {
    let spec = R10_SPEC.replace("| 0x02 | Decision |", "| 0x02 | Choice |");
    let hits = check_spec_drift("docs/spec.md", &spec, "crates/x/src/replay.rs", R10_DECODER);
    assert!(
        hits.iter()
            .any(|v| v.rule == "R10" && v.message.contains("`Choice`")),
        "name drift must be reported: {hits:?}"
    );
    // The same drift made on the table side.
    let decoder = R10_DECODER.replace("Decision = 0x02", "Choice = 0x02");
    let hits = check_spec_drift("docs/spec.md", R10_SPEC, "crates/x/src/replay.rs", &decoder);
    assert!(
        hits.iter()
            .any(|v| v.rule == "R10" && v.message.contains("`Choice`")),
        "name drift must be reported: {hits:?}"
    );
}

#[test]
fn r10_abandon_constant_without_spec_row_fails() {
    // Both drift directions for the population-workload rows. Direction
    // one: the decoder's table has SessionAbandon but the spec row is gone.
    let spec = R10_SPEC.replace(
        "| 0x04 | SessionAbandon | `session_id u64`, `watched_s f64` |\n",
        "",
    );
    let hits = check_spec_drift("docs/spec.md", &spec, "crates/x/src/replay.rs", R10_DECODER);
    assert!(
        hits.iter().any(|v| v.rule == "R10"
            && v.snippet.contains("SessionAbandon = 0x04")
            && v.message.contains("has no row")),
        "undocumented SessionAbandon must be reported: {hits:?}"
    );
}

#[test]
fn r10_seek_spec_row_without_decoder_fails() {
    // Direction two: the spec documents Seek but the decoder's table lost
    // its row.
    let decoder = R10_DECODER.replace(
        "        Seek = 0x05 { session_id: u64, to_chunk: u64 },\n",
        "",
    );
    assert!(
        decoder.len() < R10_DECODER.len(),
        "fixture edit took effect"
    );
    let hits = check_spec_drift("docs/spec.md", R10_SPEC, "crates/x/src/replay.rs", &decoder);
    assert!(
        hits.iter().any(|v| v.rule == "R10"
            && v.path == "docs/spec.md"
            && v.message.contains("no row with that value")),
        "spec-only Seek row must be reported: {hits:?}"
    );
}

#[test]
fn r10_duplicate_type_byte_on_either_side_fails() {
    // Two table rows given one type byte (the compiler refuses this in
    // real code, but the lint reads the text).
    let decoder = R10_DECODER.replace("Seek = 0x05", "Seek = 0x04");
    let hits = check_spec_drift("docs/spec.md", R10_SPEC, "crates/x/src/replay.rs", &decoder);
    assert!(
        hits.iter().any(|v| v.rule == "R10"
            && v.path == "crates/x/src/replay.rs"
            && v.message.contains("duplicate record type 0x04")
            && v.snippet.contains("Seek = 0x04")),
        "duplicate table row must be reported: {hits:?}"
    );
    // Two spec rows given one type byte.
    let spec = format!("{R10_SPEC}| 0x03 | RunEnd | `events u64` |\n");
    let hits = check_spec_drift("docs/spec.md", &spec, "crates/x/src/replay.rs", R10_DECODER);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].path, "docs/spec.md");
    assert!(
        hits[0].message.contains("duplicate record type 0x03"),
        "{hits:?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let src = include_str!("fixtures/clean.rs");
    // Run it under the strictest path (an output + library crate).
    assert!(check_file("crates/sim-report/src/fixture.rs", src).is_empty());
}

#[test]
fn clean_tree_zero_violations() {
    // CARGO_MANIFEST_DIR = crates/abr-lint → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = lint_workspace(&root).expect("lint run");
    assert!(report.files_scanned > 50, "walker found the source tree");
    assert!(
        report.allow_errors.is_empty(),
        "allowlist format errors: {:?}",
        report.allow_errors
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allowlist entries: {:?}",
        report.unused_allows
    );
}
