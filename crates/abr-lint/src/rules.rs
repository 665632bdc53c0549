//! The determinism/correctness rules (R1–R10) and the workspace walker.
//!
//! | rule | scope | what it forbids |
//! |------|-------|-----------------|
//! | R1 | sim/algorithm crates + `bench` | `Instant::now`/`SystemTime::now` — wall-clock reads; simulated time must flow from the simulator's clock |
//! | R2 | `bench`, `sim-report`, `abr-serve` | `HashMap`/`HashSet` — iteration order nondeterminism feeding journals/reports/CSVs; use `BTreeMap`/`BTreeSet` |
//! | R3 | all crates | `thread_rng`/`from_entropy`/`OsRng`/`rand::random` — OS entropy; all RNG must be seeded through the dataset/trace seed plumbing |
//! | R4 | algorithm crates | `==`/`!=` against float literals in decision logic — exact float comparison is platform/ordering bait |
//! | R5 | library crates | `.unwrap()`/`.expect(` outside tests — I/O and parse failures must propagate; provably-infallible cases go in the allowlist |
//! | R6 | every crate root | missing `#![forbid(unsafe_code)]` |
//! | R7 | functions reachable from `// abr-lint: hot-path` roots | heap allocation (`Vec::new`, `vec![`, `Box::new`, `format!`, `.to_vec(`, `.collect(`, `String::from`) on the decision hot path |
//! | R8 | all crates | a `lock()`/`try_lock()` guard whose lexical scope contains socket/stream I/O (`read`/`write`/`flush`), `thread::sleep` or the reactor's `sys_poll::wait` |
//! | R9 | `abr-serve` codec/protocol/replay encode paths | narrowing `as` casts (`as u8/u16/u32/usize`) with no adjacent bounds guard |
//! | R10 | `docs/REPLAY.md` × `replay.rs` | drift between the spec's record-type table and the `Name = 0xNN` rows of the decoder's one record table, or a type byte given twice |
//!
//! R1–R5 and R8–R9 are line/file-level and run in [`check_file`]; R6 runs
//! on crate roots ([`check_crate_root`]); R7 is cross-file within each
//! crate ([`check_crate_hot_paths`], built on [`crate::graph`]); R10 is
//! cross-artifact ([`check_spec_drift`]). Every rule reads the one
//! [`ParsedFile`] view of a source, which [`lint_workspace`] builds once
//! per file.
//!
//! Test code (`#[cfg(test)]` regions; `tests/`, `benches/`, `examples/`
//! trees) is exempt from the line rules. Exemptions in real code go through
//! the catalogued allowlist (see [`crate::allow`]).

use crate::allow::{self, AllowEntry, AllowFormatError};
use crate::graph::CrateGraph;
use crate::syntax::{is_ident_byte, word_occurrences, Line, ParsedFile};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

/// One registered rule. The registry is the single source of truth for
/// valid rule ids: the allowlist parser, the JSON report, and the docs all
/// derive from it, so adding a rule here is the *only* id plumbing needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Rule id (`"R1"`, `"R10"`, …).
    pub id: &'static str,
    /// One-line summary for reports and `--help`.
    pub summary: &'static str,
}

/// Every rule this linter knows, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R1",
        summary: "no wall-clock reads in sim/algorithm crates",
    },
    RuleInfo {
        id: "R2",
        summary: "no hash-ordered collections in output-producing crates",
    },
    RuleInfo {
        id: "R3",
        summary: "no OS entropy anywhere",
    },
    RuleInfo {
        id: "R4",
        summary: "no exact float comparison in decision logic",
    },
    RuleInfo {
        id: "R5",
        summary: "no unwrap/expect in library crates",
    },
    RuleInfo {
        id: "R6",
        summary: "crate roots must forbid(unsafe_code)",
    },
    RuleInfo {
        id: "R7",
        summary: "no heap allocation in hot-path-reachable functions",
    },
    RuleInfo {
        id: "R8",
        summary: "no lock guard held across blocking I/O or sleep",
    },
    RuleInfo {
        id: "R9",
        summary: "no unguarded narrowing casts in wire encode/decode paths",
    },
    RuleInfo {
        id: "R10",
        summary: "replay record-type table must match docs/REPLAY.md",
    },
];

/// Look a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Crates whose code runs inside (or feeds) the simulation: wall-clock
/// reads here desynchronize results from the simulated clock (R1).
/// `bench` is included because its journal/progress timing must stay
/// confined to the one allowlisted module (`crates/bench/src/journal.rs`).
const SIM_CRATES: &[&str] = &[
    "core",
    "abr-sim",
    "abr-baselines",
    "abr-pop",
    "abr-serve",
    "vbr-video",
    "net-trace",
    "bench",
];

/// Crates that produce journal/report/CSV output (R2): iteration order must
/// be deterministic, so unordered hash collections are banned outright.
const OUTPUT_CRATES: &[&str] = &["bench", "sim-report", "abr-serve", "abr-pop"];

/// Crates holding ABR decision logic (R4). `abr-pop` is in scope: its
/// arrival-placement and lifecycle draws are decision logic in the same
/// sense — an exact float compare there silently skews the population.
const ALGO_CRATES: &[&str] = &["core", "abr-sim", "abr-baselines", "abr-serve", "abr-pop"];

/// Library crates (R5): panicking on I/O or parse results is banned; the
/// provably-infallible cases are catalogued in the allowlist.
const LIBRARY_CRATES: &[&str] = &[
    "core",
    "abr-sim",
    "abr-baselines",
    "abr-pop",
    "abr-serve",
    "vbr-video",
    "net-trace",
    "sim-report",
];

/// Files whose encode/decode paths rule R9 watches for unguarded
/// narrowing casts (the PR-4 `len as u32` bug class).
const R9_FILES: &[&str] = &[
    "crates/abr-serve/src/codec.rs",
    "crates/abr-serve/src/protocol.rs",
    "crates/abr-serve/src/replay.rs",
];

/// The spec/decoder pair rule R10 cross-checks; the decoder file holds the
/// one record table.
const R10_DOC: &str = "docs/REPLAY.md";
const R10_DECODER: &str = "crates/abr-serve/src/replay.rs";

/// One rule violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number (0 for file-level rules like R6).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending raw line (trimmed), for context.
    pub snippet: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.path, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: {}: {}\n    {}",
                self.path, self.line, self.rule, self.message, self.snippet
            )
        }
    }
}

/// Which crate (directory name under `crates/`, or `"cava-suite"` for the
/// umbrella `src/`) a workspace-relative path belongs to.
fn crate_of(rel_path: &str) -> Option<&str> {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next()
    } else if rel_path.starts_with("src/") {
        Some("cava-suite")
    } else {
        None
    }
}

fn in_scope(rel_path: &str, crates: &[&str]) -> bool {
    crate_of(rel_path).is_some_and(|c| crates.contains(&c))
}

/// Occurrences of `pat` in `code` where, when the pattern ends in an
/// identifier character, the next character is not one (so
/// `String::from` does not match `String::from_utf8`).
fn bounded_occurrences(code: &str, pat: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let tail_is_ident = pat.bytes().last().is_some_and(is_ident_byte);
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        let end = at + pat.len();
        if !tail_is_ident || end >= bytes.len() || !is_ident_byte(bytes[end]) {
            out.push(at);
        }
        from = at + pat.len();
    }
    out
}

/// Whether `tok` is a floating-point literal (`0.0`, `1.5e3`, `2.`).
fn is_float_literal(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    let mut chars = tok.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_digit()) && tok.contains('.')
}

/// The token (identifier/number/path chars) ending immediately before byte
/// `at` in `code`, skipping trailing whitespace.
fn token_before(code: &str, at: usize) -> &str {
    let head = code[..at].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map(|i| i + 1)
        .unwrap_or(0);
    &head[start..]
}

/// The token starting immediately after byte `at` in `code`, skipping
/// leading whitespace (a leading `-` is kept so `-0.5` reads as a float).
fn token_after(code: &str, at: usize) -> &str {
    let tail = code[at..].trim_start();
    let mut end = 0;
    for (i, c) in tail.char_indices() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == '.' || (i == 0 && c == '-');
        if !ok {
            break;
        }
        end = i + c.len_utf8();
    }
    &tail[..end]
}

/// Apply the line/file-level rules R1–R5, R8, R9 to one file. `rel_path`
/// controls which rules are in scope; test code is skipped.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Violation> {
    file_violations(rel_path, &ParsedFile::parse(source))
}

/// [`check_file`] over an already-parsed file.
fn file_violations(rel_path: &str, file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let r1 = in_scope(rel_path, SIM_CRATES);
    let r2 = in_scope(rel_path, OUTPUT_CRATES);
    let r3 = crate_of(rel_path).is_some();
    let r4 = in_scope(rel_path, ALGO_CRATES);
    let r5 = in_scope(rel_path, LIBRARY_CRATES);
    let r9 = R9_FILES.contains(&rel_path);
    for line in file.lines() {
        if line.in_test {
            continue;
        }
        let code = line.code;
        let mut push = |rule: &'static str, message: String| {
            out.push(Violation {
                rule,
                path: rel_path.to_string(),
                line: line.number,
                message,
                snippet: line.raw.trim().to_string(),
            });
        };
        if r1 {
            for pat in ["Instant::now", "SystemTime::now"] {
                if !word_occurrences(code, pat.split("::").next().unwrap_or(pat)).is_empty()
                    && code.contains(pat)
                {
                    push(
                        "R1",
                        format!("wall-clock read `{pat}` — simulated time must come from the simulator clock"),
                    );
                }
            }
        }
        if r2 {
            for pat in ["HashMap", "HashSet"] {
                if !word_occurrences(code, pat).is_empty() {
                    push(
                        "R2",
                        format!("unordered `{pat}` in an output-producing crate — use `BTreeMap`/`BTreeSet` so journal/report/CSV order is byte-stable"),
                    );
                }
            }
        }
        if r3 {
            for pat in ["thread_rng", "from_entropy", "OsRng"] {
                if !word_occurrences(code, pat).is_empty() {
                    push(
                        "R3",
                        format!("OS entropy via `{pat}` — all randomness must be seeded through the dataset/trace seed plumbing"),
                    );
                }
            }
            if code.contains("rand::random") {
                push(
                    "R3",
                    "OS entropy via `rand::random` — all randomness must be seeded through the dataset/trace seed plumbing".to_string(),
                );
            }
        }
        if r4 {
            for op in ["==", "!="] {
                let mut from = 0;
                while let Some(pos) = code[from..].find(op) {
                    let at = from + pos;
                    from = at + op.len();
                    // Skip `<=`, `>=`, `=>`-adjacent forms: only bare
                    // `==`/`!=` between tokens qualify.
                    if at > 0 && matches!(&code[at - 1..at], "<" | ">" | "=" | "!") {
                        continue;
                    }
                    if code[at + op.len()..].starts_with('=') {
                        continue;
                    }
                    let lhs = token_before(code, at);
                    let rhs = token_after(code, at + op.len());
                    if is_float_literal(lhs) || is_float_literal(rhs) {
                        push(
                            "R4",
                            format!("exact float comparison `{lhs} {op} {rhs}` in ABR decision logic — compare against a tolerance instead"),
                        );
                    }
                }
            }
        }
        if r5 {
            for pat in [".unwrap()", ".expect("] {
                if code.contains(pat) {
                    push(
                        "R5",
                        format!("`{pat}` in library code — propagate the error; provably-infallible cases need an allowlist entry"),
                    );
                }
            }
        }
        if r9 {
            check_narrowing_casts(rel_path, file, line, &mut out);
        }
    }
    if crate_of(rel_path).is_some() {
        out.extend(check_lock_scopes(rel_path, file));
    }
    out
}

// ---------------------------------------------------------------------------
// R9 — narrowing casts in encode/decode paths
// ---------------------------------------------------------------------------

/// Narrowing target types a bare `as` cast may silently truncate into.
/// `usize` is included because it is 32-bit on some targets, so `u64 as
/// usize` is a narrowing cast there (the decode path's `Cur::usize` goes
/// through `try_from` for exactly this reason).
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32"];

/// A cast is considered guarded when the same line or one of the four
/// code lines above it carries a bounds check: an explicit `try_from`,
/// an assertion, a `.min(...)` clamp, or a comparison against a `*MAX*`
/// bound.
const CAST_GUARDS: &[&str] = &["try_from", "assert", ".min(", "MAX", "clamp", "checked_"];

fn check_narrowing_casts(rel_path: &str, file: &ParsedFile, line: Line, out: &mut Vec<Violation>) {
    let code = line.code;
    for at in word_occurrences(code, "as") {
        let target = token_after(code, at + 2);
        if !NARROWING_TARGETS.contains(&target) {
            continue;
        }
        let guarded = (line.number.saturating_sub(4).max(1)..=line.number).any(|n| {
            file.line(n)
                .is_some_and(|nearby| CAST_GUARDS.iter().any(|g| nearby.code.contains(g)))
        });
        if !guarded {
            out.push(Violation {
                rule: "R9",
                path: rel_path.to_string(),
                line: line.number,
                message: format!(
                    "narrowing cast `as {target}` in a wire encode/decode path with no adjacent bounds guard — use `try_from` (PR-4's `len as u32` bug class)"
                ),
                snippet: line.raw.trim().to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R8 — lock guards held across blocking I/O
// ---------------------------------------------------------------------------

/// Blocking operations that must never run under a mutex guard: socket
/// and stream reads/writes/flushes, frame-level wire helpers, and sleeps.
const LOCKED_IO_PATTERNS: &[&str] = &[
    ".write_all(",
    ".write(",
    ".flush(",
    ".read(",
    ".read_exact(",
    ".read_to_end(",
    "write_frame(",
    "read_frame(",
    "thread::sleep",
    "sleep(",
    ".accept(",
    // The reactor's idle wait blocks in poll(2) for up to `poll_ms`.
    "sys_poll::wait(",
    // Reactor sweep helpers (crates/abr-serve/src/reactor.rs): each of
    // these performs socket reads/writes/flushes internally, so a guard
    // held across a call is a guard held across I/O even though no bare
    // `.read(`/`.write(` appears at the call site.
    ".pump(",
    ".fill(",
    ".drain_frames(",
];

/// R8: find `lock(`/`.lock()`/`.try_lock()` call sites whose guard's
/// lexical scope (from the call to the end of the enclosing block, or to
/// an explicit `drop(<binding>)`) contains a blocking I/O pattern. The
/// scope approximation is deliberately wide: a guard bound with `let`
/// lives to the end of its block, and we treat temporaries the same way,
/// so the rule over-reports and exemptions are catalogued, never silent.
fn check_lock_scopes(rel_path: &str, file: &ParsedFile) -> Vec<Violation> {
    let stripped = file.stripped.as_str();
    let bytes = stripped.as_bytes();
    let mut out = Vec::new();
    let mut sites: Vec<usize> = Vec::new();
    for word in ["lock", "try_lock"] {
        for at in word_occurrences(stripped, word) {
            let after = stripped[at + word.len()..].trim_start();
            if after.starts_with('(') {
                sites.push(at);
            }
        }
    }
    sites.sort_unstable();
    sites.dedup();
    for at in sites {
        let line_no = file.line_of(at);
        let line = file.line(line_no);
        if line.is_some_and(|l| l.in_test) {
            continue;
        }
        // The guard's binding name, if the statement is a `let`.
        let stmt_start = stripped[..at]
            .rfind([';', '{', '}'])
            .map(|i| i + 1)
            .unwrap_or(0);
        let binding = binding_name(&stripped[stmt_start..at]);
        // Scope: to the end of the enclosing block, or an explicit drop.
        let mut depth = 0i64;
        let mut end = bytes.len();
        let mut k = at;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth < 0 {
                        end = k;
                        break;
                    }
                }
                b'd' => {
                    if let Some(name) = &binding {
                        if stripped[k..].starts_with("drop(")
                            && (k == 0 || !is_ident_byte(bytes[k - 1]))
                            && stripped[k + 5..].trim_start().starts_with(name.as_str())
                        {
                            end = k;
                            break;
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let scope = &stripped[at..end];
        if let Some(pat) = LOCKED_IO_PATTERNS.iter().find(|p| scope.contains(**p)) {
            let io_at = at + scope.find(pat as &str).unwrap_or(0);
            let io_line = file.line_of(io_at);
            out.push(Violation {
                rule: "R8",
                path: rel_path.to_string(),
                line: line_no,
                message: format!(
                    "lock guard held across blocking `{pat}` (line {io_line}) — release the guard before I/O or sleep"
                ),
                snippet: line.map(|l| l.raw.trim().to_string()).unwrap_or_default(),
            });
        }
    }
    out
}

/// `let [mut] NAME = … lock(…)` → `Some(NAME)`.
fn binding_name(stmt_head: &str) -> Option<String> {
    let after_let = stmt_head.trim_start().strip_prefix("let ")?;
    let after_mut = after_let
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(after_let.trim_start());
    let name: String = after_mut
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

// ---------------------------------------------------------------------------
// R7 — heap allocation on the decision hot path
// ---------------------------------------------------------------------------

/// Heap-allocating constructs forbidden in hot-path-reachable functions.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec![",
    "Box::new",
    "format!",
    ".to_vec(",
    ".collect(",
    "String::from",
];

/// R7: cross-file, per-crate. `files` is every `(rel_path, source)` of one
/// crate; functions reachable (by the conservative name-resolved call
/// graph) from a `// abr-lint: hot-path` root must not heap-allocate.
/// Each violation's message carries the witness call chain from the root.
pub fn check_crate_hot_paths(files: &[(String, String)]) -> Vec<Violation> {
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(_, src)| ParsedFile::parse(src))
        .collect();
    let files: Vec<(&str, &ParsedFile)> = files
        .iter()
        .zip(&parsed)
        .map(|((rel_path, _), file)| (rel_path.as_str(), file))
        .collect();
    hot_path_violations(&files)
}

/// [`check_crate_hot_paths`] over already-parsed `(rel_path, file)` pairs.
fn hot_path_violations(files: &[(&str, &ParsedFile)]) -> Vec<Violation> {
    let graph = CrateGraph::build(files.iter().map(|&(_, file)| file));
    let mut out = Vec::new();
    for hot in graph.hot_set() {
        let item = graph.item(hot.fn_ref);
        let (rel_path, file) = files[hot.fn_ref.file];
        let first_line = file.line_of(item.body.0);
        let last_line = file.line_of(item.body.1);
        for line in (first_line..=last_line).filter_map(|n| file.line(n)) {
            for pat in ALLOC_PATTERNS {
                if !bounded_occurrences(line.code, pat).is_empty() {
                    let chain = hot.chain.join(" -> ");
                    out.push(Violation {
                        rule: "R7",
                        path: rel_path.to_string(),
                        line: line.number,
                        message: format!(
                            "heap allocation `{pat}` on the decision hot path (in `{}`, reachable via {chain})",
                            item.qualified
                        ),
                        snippet: line.raw.trim().to_string(),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    out
}

// ---------------------------------------------------------------------------
// R10 — spec drift between docs/REPLAY.md and the replay decoder
// ---------------------------------------------------------------------------

/// A record-type row parsed from the spec table or the decoder's table.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecordType {
    value: u8,
    name: String,
    line: usize,
    raw: String,
}

/// Rows of the `| Type | Name | … |` record-type table in the spec.
fn doc_record_rows(doc: &str) -> Vec<RecordType> {
    let mut out = Vec::new();
    for (idx, raw) in doc.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // `| 0x01 | RunMeta | ... |` splits into ["", "0x01", "RunMeta", …].
        if cells.len() < 3 {
            continue;
        }
        let Some(hex) = cells[1].strip_prefix("0x") else {
            continue;
        };
        let Ok(value) = u8::from_str_radix(hex, 16) else {
            continue;
        };
        let name = cells[2].to_string();
        if name.is_empty() {
            continue;
        }
        out.push(RecordType {
            value,
            name,
            line: idx + 1,
            raw: line.to_string(),
        });
    }
    out
}

/// The `Name = 0xNN` rows of the decoder's one record table: the
/// variants of `enum Event { … }` (in the `wire_enum!` invocation) that
/// carry a type byte, read from the code view so a row in a comment does
/// not count.
fn decoder_table_rows(decoder: &ParsedFile) -> Vec<RecordType> {
    let stripped = decoder.stripped.as_str();
    let Some(open) = stripped
        .find("enum Event")
        .and_then(|at| stripped[at..].find('{').map(|rel| at + rel))
    else {
        return Vec::new();
    };
    let bytes = stripped.as_bytes();
    let mut depth = 0i64;
    let mut out = Vec::new();
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b'A'..=b'Z' if depth == 1 && !is_ident_byte(bytes[i - 1]) => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                let value = stripped[i..]
                    .trim_start()
                    .strip_prefix('=')
                    .and_then(|rest| rest.trim_start().strip_prefix("0x"))
                    .and_then(|rest| {
                        let end = rest
                            .find(|c: char| !c.is_ascii_hexdigit())
                            .unwrap_or(rest.len());
                        u8::from_str_radix(&rest[..end], 16).ok()
                    });
                if let Some(value) = value {
                    let line = decoder.line_of(start);
                    out.push(RecordType {
                        value,
                        name: stripped[start..i].to_string(),
                        line,
                        raw: decoder
                            .line(line)
                            .map(|l| l.raw.trim().to_string())
                            .unwrap_or_default(),
                    });
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// R10: cross-check the spec's record-type table against the decoder's
/// one record table — drift in either direction, and a type byte given
/// twice on either side, is a violation.
pub fn check_spec_drift(
    doc_path: &str,
    doc: &str,
    decoder_path: &str,
    decoder: &str,
) -> Vec<Violation> {
    spec_drift_violations(doc_path, doc, decoder_path, &ParsedFile::parse(decoder))
}

/// [`check_spec_drift`] over an already-parsed decoder.
fn spec_drift_violations(
    doc_path: &str,
    doc: &str,
    decoder_path: &str,
    decoder: &ParsedFile,
) -> Vec<Violation> {
    let rows = doc_record_rows(doc);
    if rows.is_empty() {
        return vec![Violation {
            rule: "R10",
            path: doc_path.to_string(),
            line: 0,
            message: "no record-type table rows found — the spec's `| 0xNN | Name | … |` table is the normative record registry".to_string(),
            snippet: String::new(),
        }];
    }
    let table = decoder_table_rows(decoder);
    let mut out = Vec::new();
    let mut push = |path: &str, at: &RecordType, message: String| {
        out.push(Violation {
            rule: "R10",
            path: path.to_string(),
            line: at.line,
            message,
            snippet: at.raw.clone(),
        });
    };

    for row in &rows {
        match table.iter().find(|t| t.value == row.value) {
            None => push(
                doc_path,
                row,
                format!(
                    "spec documents record type 0x{:02X} `{}` but the {decoder_path} record table has no row with that value",
                    row.value, row.name
                ),
            ),
            Some(t) if t.name != row.name => push(
                doc_path,
                row,
                format!(
                    "record type 0x{:02X} is `{}` in the spec but `{}` in the {decoder_path} record table",
                    row.value, row.name, t.name
                ),
            ),
            Some(_) => {}
        }
    }
    for t in &table {
        if !rows.iter().any(|row| row.value == t.value) {
            push(
                decoder_path,
                t,
                format!(
                    "record type 0x{:02X} `{}` has no row in the {doc_path} record-type table — document it before shipping",
                    t.value, t.name
                ),
            );
        }
    }
    for (path, side) in [(doc_path, &rows), (decoder_path, &table)] {
        for (i, r) in side.iter().enumerate() {
            if side[..i].iter().any(|p| p.value == r.value) {
                push(
                    path,
                    r,
                    format!("duplicate record type 0x{:02X} (`{}`)", r.value, r.name),
                );
            }
        }
    }
    out
}

/// R6: a crate root must carry `#![forbid(unsafe_code)]` (checked on the
/// code view so a commented-out attribute does not count).
pub fn check_crate_root(rel_path: &str, source: &str) -> Vec<Violation> {
    crate_root_violations(rel_path, &ParsedFile::parse(source))
}

/// [`check_crate_root`] over an already-parsed crate root.
fn crate_root_violations(rel_path: &str, root: &ParsedFile) -> Vec<Violation> {
    let found = root.lines().any(|l| {
        let code: String = l.code.split_whitespace().collect();
        code.contains("#![forbid(unsafe_code)]")
    });
    if found {
        Vec::new()
    } else {
        vec![Violation {
            rule: "R6",
            path: rel_path.to_string(),
            line: 0,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: String::new(),
        }]
    }
}

/// Everything one linter run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that survived the allowlist, sorted by path/line/rule.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched at least one would-be violation is
    /// tracked implicitly; these matched nothing (stale catalog entries).
    pub unused_allows: Vec<AllowEntry>,
    /// Problems in the allowlist file itself.
    pub allow_errors: Vec<AllowFormatError>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by the allowlist.
    pub suppressed: usize,
}

/// Escape `s` for a JSON string body.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl LintReport {
    /// Machine-readable report, schema-stable for CI consumption:
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "files_scanned": 93,
    ///   "suppressed": 31,
    ///   "clean": true,
    ///   "violations":    [{"rule": "R7", "path": "…", "line": 12,
    ///                      "message": "…", "snippet": "…"}],
    ///   "allow_errors":  [{"line": 3, "message": "…"}],
    ///   "unused_allows": [{"line": 9, "rule": "R5", "path": "…",
    ///                      "snippet": "…"}]
    /// }
    /// ```
    ///
    /// Field order and names are part of the schema; additions bump
    /// `schema_version`. `clean` mirrors the process exit status (no
    /// violations and no allowlist format errors).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        let _ = writeln!(
            out,
            "  \"clean\": {},",
            self.violations.is_empty() && self.allow_errors.is_empty()
        );
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
                json_escape(v.rule),
                json_escape(&v.path),
                v.line,
                json_escape(&v.message),
                json_escape(&v.snippet)
            );
        }
        out.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"allow_errors\": [");
        for (i, e) in self.allow_errors.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"line\": {}, \"message\": \"{}\"}}",
                e.line,
                json_escape(&e.message)
            );
        }
        out.push_str(if self.allow_errors.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"unused_allows\": [");
        for (i, a) in self.unused_allows.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"line\": {}, \"rule\": \"{}\", \"path\": \"{}\", \"snippet\": \"{}\"}}",
                a.line,
                json_escape(&a.rule),
                json_escape(&a.path),
                json_escape(&a.snippet)
            );
        }
        out.push_str(if self.unused_allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Directories never descended into during the walk.
fn skip_dir(name: &str) -> bool {
    matches!(
        name,
        "target" | "shims" | "results" | "fixtures" | ".git" | "tests" | "benches" | "examples"
    )
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                walk_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint the whole workspace rooted at `root`, applying the allowlist at
/// `root/abr-lint.allow` (if present). Runs every rule: the per-file
/// rules over each source, R6 over crate roots, R7 per crate, and R10
/// over the `docs/REPLAY.md` × `replay.rs` pair.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let allow_text = fs::read_to_string(root.join("abr-lint.allow")).unwrap_or_default();
    let (allows, allow_errors) = allow::parse(&allow_text);

    // Collect the source trees: every member's `src/` plus the umbrella's.
    let mut files = Vec::new();
    let mut crate_roots = Vec::new();
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    members.push(root.to_path_buf());
    for member in &members {
        let src = member.join("src");
        if !src.is_dir() {
            continue;
        }
        walk_rs(&src, &mut files)?;
        let lib = src.join("lib.rs");
        let main = src.join("main.rs");
        if lib.is_file() {
            crate_roots.push(rel(root, &lib));
        } else if main.is_file() {
            crate_roots.push(rel(root, &main));
        }
    }

    // Read and parse each source once; every rule below shares this
    // snapshot (crate roots and the R10 decoder are among the sources).
    let mut sources: Vec<(String, ParsedFile)> = Vec::new();
    for path in &files {
        let file = ParsedFile::parse(&fs::read_to_string(path)?);
        sources.push((rel(root, path), file));
    }
    let source = |rel_path: &str| {
        sources
            .iter()
            .find(|(p, _)| p == rel_path)
            .map(|(_, file)| file)
    };

    let mut raw: Vec<Violation> = Vec::new();
    let files_scanned = sources.len();
    for (rel_path, file) in &sources {
        raw.extend(file_violations(rel_path, file));
    }
    for rel_path in &crate_roots {
        if let Some(file) = source(rel_path) {
            raw.extend(crate_root_violations(rel_path, file));
        }
    }

    // R7: group by crate, run the call-graph pass per crate.
    let mut by_crate: std::collections::BTreeMap<&str, Vec<(&str, &ParsedFile)>> =
        std::collections::BTreeMap::new();
    for (rel_path, file) in &sources {
        if let Some(krate) = crate_of(rel_path) {
            by_crate
                .entry(krate)
                .or_default()
                .push((rel_path.as_str(), file));
        }
    }
    for crate_files in by_crate.values() {
        raw.extend(hot_path_violations(crate_files));
    }

    // R10: the spec × decoder cross-check.
    let doc_path = root.join(R10_DOC);
    if let Some(decoder) = source(R10_DECODER).filter(|_| doc_path.is_file()) {
        let doc = fs::read_to_string(&doc_path)?;
        raw.extend(spec_drift_violations(R10_DOC, &doc, R10_DECODER, decoder));
    }

    // Apply the allowlist.
    let mut used = vec![false; allows.len()];
    let mut violations = Vec::new();
    let mut suppressed = 0;
    for v in raw {
        let hit = allows
            .iter()
            .position(|a| a.covers(v.rule, &v.path, &v.snippet));
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => violations.push(v),
        }
    }
    violations
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    let unused_allows = allows
        .into_iter()
        .zip(used)
        .filter_map(|(a, u)| (!u).then_some(a))
        .collect();
    Ok(LintReport {
        violations,
        unused_allows,
        allow_errors,
        files_scanned,
        suppressed,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn crate_scoping() {
        assert_eq!(crate_of("crates/abr-sim/src/player.rs"), Some("abr-sim"));
        assert_eq!(crate_of("src/lib.rs"), Some("cava-suite"));
        assert_eq!(crate_of("scripts/check.sh"), None);
    }

    #[test]
    fn float_literal_tokens() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("1.5e3"));
        assert!(is_float_literal("-2."));
        assert!(!is_float_literal("x"));
        assert!(!is_float_literal("self.x"));
        assert!(!is_float_literal("10"));
        assert!(!is_float_literal(""));
    }

    #[test]
    fn r4_ignores_integer_and_ident_comparisons() {
        let src = "fn f(a: usize, b: f64) -> bool { a == 3 && b >= 0.0 }\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r4_flags_float_eq() {
        let src = "fn f(b: f64) -> bool { b == 0.0 }\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R4");
    }

    #[test]
    fn rules_scope_by_crate() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check_file("crates/bench/src/x.rs", src).len(), 1);
        assert!(check_file("crates/vbr-video/src/x.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "// HashMap thread_rng Instant::now\nlet s = \"HashMap .unwrap()\";\n";
        assert!(check_file("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); let _ = b == 0.0; }\n}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
        // A `;` inside the signature's brackets does not end the item.
        let src = "#[cfg(test)]\nfn sample() -> [u8; 2] {\n    x.unwrap();\n    [0; 2]\n}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn crate_root_rule() {
        assert!(check_crate_root("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n").is_empty());
        let v = check_crate_root("crates/x/src/lib.rs", "//! docs only\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R6");
        // A commented-out attribute does not count.
        let v = check_crate_root("crates/x/src/lib.rs", "// #![forbid(unsafe_code)]\n");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn registry_knows_every_rule_exactly_once() {
        assert_eq!(RULES.len(), 10);
        for r in RULES {
            assert_eq!(rule_by_id(r.id), Some(r));
        }
        assert_eq!(rule_by_id("R11"), None);
        assert_eq!(rule_by_id("X1"), None);
    }

    #[test]
    fn r8_lock_guard_across_write_is_flagged() {
        let src = "fn f(m: &std::sync::Mutex<i32>, w: &mut impl std::io::Write) {\n    let g = m.lock();\n    w.write_all(b\"x\");\n}\n";
        let v = check_file("crates/abr-serve/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R8");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn r8_lock_guard_across_reactor_sweep_helper_is_flagged() {
        // The reactor's pump/fill/drain_frames do socket I/O internally;
        // holding a shard or session guard across a sweep call is the
        // same bug as holding it across a bare read/write.
        let src = "fn f(m: &std::sync::Mutex<i32>, c: &mut Conn) {\n    let g = m.lock();\n    c.pump(server, scratch);\n}\n";
        let v = check_file("crates/abr-serve/src/reactor.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R8");
        assert_eq!(v[0].line, 2);
        let src = "fn f(m: &std::sync::Mutex<i32>, c: &mut Conn) {\n    let g = m.lock();\n    drop(g);\n    c.fill(scratch, progress);\n    c.drain_frames(server, progress);\n}\n";
        assert!(check_file("crates/abr-serve/src/reactor.rs", src).is_empty());
    }

    #[test]
    fn r8_explicit_drop_ends_the_guard_scope() {
        let src = "fn f(m: &std::sync::Mutex<i32>, w: &mut impl std::io::Write) {\n    let g = m.lock();\n    drop(g);\n    w.write_all(b\"x\");\n}\n";
        assert!(check_file("crates/abr-serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn r8_block_scoped_guard_released_before_io_is_clean() {
        let src = "fn f(m: &std::sync::Mutex<i32>, w: &mut impl std::io::Write) {\n    { let g = m.lock(); }\n    w.write_all(b\"x\");\n}\n";
        assert!(check_file("crates/abr-serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn r9_unguarded_narrowing_cast_in_protocol() {
        let src = "fn encode(len: usize, out: &mut Vec<u8>) {\n    out.extend_from_slice(&(len as u32).to_le_bytes());\n}\n";
        let v = check_file("crates/abr-serve/src/protocol.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R9");
        // Same code outside the watched files is not in scope.
        assert!(check_file("crates/abr-serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn r9_guarded_cast_is_clean() {
        let src = "fn encode(len: usize, out: &mut Vec<u8>) {\n    let len = u32::try_from(len).unwrap_or(0);\n    out.extend_from_slice(&(len as u16).to_le_bytes());\n}\n";
        let flagged: Vec<_> = check_file("crates/abr-serve/src/protocol.rs", src)
            .into_iter()
            .filter(|v| v.rule == "R9")
            .collect();
        assert!(flagged.is_empty(), "{flagged:?}");
    }

    #[test]
    fn r9_widening_casts_are_ignored() {
        let src = "fn encode(x: u32, out: &mut Vec<u8>) {\n    let y = x as u64;\n    out.extend_from_slice(&y.to_le_bytes());\n}\n";
        assert!(check_file("crates/abr-serve/src/protocol.rs", src).is_empty());
    }

    #[test]
    fn json_report_is_schema_stable() {
        let report = LintReport {
            violations: vec![Violation {
                rule: "R7",
                path: "crates/x/src/a.rs".to_string(),
                line: 3,
                message: "heap allocation `vec![`".to_string(),
                snippet: "let v = vec![0; \"n\".len()];".to_string(),
            }],
            unused_allows: Vec::new(),
            allow_errors: Vec::new(),
            files_scanned: 2,
            suppressed: 1,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"rule\": \"R7\""));
        assert!(json.contains("\\\"n\\\""), "quotes escaped: {json}");
        let clean = LintReport {
            files_scanned: 2,
            ..Default::default()
        };
        assert!(clean.to_json().contains("\"clean\": true"));
        assert!(clean.to_json().contains("\"violations\": []"));
    }
}
