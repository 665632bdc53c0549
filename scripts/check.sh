#!/usr/bin/env sh
# Repo-wide lint gate. Run before sending a PR; CI runs the same steps.
#
#   scripts/check.sh                      # fmt + clippy + docs + abr-lint + invariants
#   scripts/check.sh --bench-tolerance 40 # loosen the perf-trajectory gate to 40%
#
# The doc step holds abr-bench to `#![deny(missing_docs)]` plus
# rustdoc's own lints (broken intra-doc links, etc.). The abr-lint step
# enforces the determinism rules R1-R10 (see CONTRIBUTING.md), writing
# the machine-readable report to results/abr-lint.json; the later
# steps re-run the simulator and controller suites with the runtime
# invariant layer armed, then gate the freshly produced BENCH_*.json
# perf documents against the committed trajectory (bench_gate; >15%
# regression in decisions/sec or p99 latency fails — override with
# --bench-tolerance, see CONTRIBUTING.md).
set -eu

cd "$(dirname "$0")/.."

BENCH_TOLERANCE=15
while [ "$#" -gt 0 ]; do
    case "$1" in
        --bench-tolerance)
            [ "$#" -ge 2 ] || { echo "--bench-tolerance needs a value" >&2; exit 2; }
            BENCH_TOLERANCE="$2"
            shift 2
            ;;
        --bench-tolerance=*)
            BENCH_TOLERANCE="${1#--bench-tolerance=}"
            shift
            ;;
        *)
            echo "unknown argument: $1 (supported: --bench-tolerance PCT)" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test runs every crate (same test binaries as --workspace)"
# The root Cargo.toml sets default-members, so the bare tier-1 command
# `cargo test` builds the same test binaries as `cargo test --workspace`.
# A new crate left out of default-members would silently drop its tests
# from tier-1; compare the two executable lists to catch that.
BINS_DIR="$(mktemp -d)"
cargo test --no-run 2>&1 | grep 'Executable' | sort > "$BINS_DIR/default"
cargo test --workspace --no-run 2>&1 | grep 'Executable' | sort > "$BINS_DIR/workspace"
if ! diff "$BINS_DIR/default" "$BINS_DIR/workspace"; then
    echo "cargo test and cargo test --workspace build different test binaries" >&2
    rm -rf "$BINS_DIR"
    exit 1
fi
rm -rf "$BINS_DIR"

echo "==> cargo doc -p abr-bench -p abr-serve (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p abr-bench -p abr-serve

echo "==> abr-lint (determinism rules R1-R10, JSON report)"
mkdir -p results
# The JSON run is the gate; the report survives for CI to upload. On
# failure, re-run in human-readable form so the violations land in the
# log with snippets and witness chains.
if ! cargo run -q -p abr-lint -- --format json > results/abr-lint.json; then
    cargo run -q -p abr-lint -- || true
    echo "abr-lint failed; report: results/abr-lint.json" >&2
    exit 1
fi

echo "==> cargo test -p abr-sim --features strict-invariants"
cargo test -q -p abr-sim --features strict-invariants

echo "==> cargo test -p cava-core --features strict-invariants"
cargo test -q -p cava-core --features strict-invariants

echo "==> allocation discipline (counted-alloc: allocator + hot-path tests)"
# The decision hot path must stay allocation-free (see ARCHITECTURE.md
# "Hot-path memory discipline"). The counted-alloc feature builds the
# counting global allocator into these test binaries; they prove zero
# steady-state allocations for SessionStore::decide, for decide round
# trips over a real socket against the reactor, and for the simulator's
# per-step path. The BENCH_alloc.json exact gate below holds the same
# numbers against the committed baseline.
cargo test -q -p counted-alloc
cargo test -q -p abr-serve --features counted-alloc --test alloc_discipline
cargo test -q -p abr-sim --features counted-alloc --test alloc_discipline

echo "==> serve/loadgen loopback soak (200 held sessions, parity on)"
cargo build -q --release -p cava-cli
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/cava serve --addr 127.0.0.1:0 --threads 8 --port-file "$PORT_FILE" &
SERVE_PID=$!
tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "serve never wrote its address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.05
done
# loadgen exits nonzero on any session error or parity mismatch (set -e);
# --stop-server makes the background serve process exit on its own.
./target/release/cava loadgen "$(cat "$PORT_FILE")" \
    --sessions 200 --connections 8 --schemes cava,bola,rba \
    --hold true --parity true --stop-server true
wait "$SERVE_PID"
rm -f "$PORT_FILE"

echo "==> chaos smoke (deadlines armed, faults injected, parity on, recorded)"
REPLAY_LOG="results/check_chaos.replay"
mkdir -p results
rm -f "$REPLAY_LOG"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/cava serve --addr 127.0.0.1:0 --threads 4 \
    --read-deadline-ms 3000 --write-deadline-ms 3000 --poll-ms 10 \
    --record "$REPLAY_LOG" \
    --port-file "$PORT_FILE" &
SERVE_PID=$!
tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "serve never wrote its address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.05
done
# Deterministic stalls, truncated writes, and connection resets; the
# fleet must recover (retry + reconnect + resume) with parity intact.
./target/release/cava loadgen "$(cat "$PORT_FILE")" \
    --sessions 36 --connections 4 --schemes cava,bola,rba \
    --hold true --parity true \
    --faults true --fault-period 5 --fault-stall-ms 2 \
    --stop-server true
wait "$SERVE_PID"
rm -f "$PORT_FILE"

echo "==> record -> replay -> diff smoke (docs/REPLAY.md)"
# Replaying the recorded chaos run re-executes every decision through
# fresh algorithm instances; any divergence exits nonzero. Diffing the
# log against itself proves the diff path reads the artifact cleanly.
./target/release/cava replay "$REPLAY_LOG"
./target/release/cava replay "$REPLAY_LOG" --seek 1000
./target/release/cava replay "$REPLAY_LOG" --diff "$REPLAY_LOG"

echo "==> capacity-pressure record -> replay smoke (36 held sessions, capacity 16)"
# Twenty of the 36 held sessions are admitted degraded, so the store's
# reclaim pass and the degraded decision path run on a multi-threaded
# server; replay re-executes every decision through the same session
# core and exits nonzero on any divergence.
CAPACITY_LOG="results/check_capacity.replay"
rm -f "$CAPACITY_LOG"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/cava serve --addr 127.0.0.1:0 --threads 4 --capacity 16 \
    --record "$CAPACITY_LOG" --port-file "$PORT_FILE" &
SERVE_PID=$!
tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "serve never wrote its address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.05
done
./target/release/cava loadgen "$(cat "$PORT_FILE")" \
    --sessions 36 --connections 4 --schemes cava,bola,rba \
    --hold true --parity true --stop-server true
wait "$SERVE_PID"
rm -f "$PORT_FILE"
./target/release/cava replay "$CAPACITY_LOG"

echo "==> README throughput number matches committed BENCH_serve.json"
# The README quotes the headline decisions/s; a re-baseline that forgets
# the prose fails here. Compare on the integer part of the top-level
# (scale-phase) field — the nested smoke figure is indented deeper.
BENCH_DPS="$(sed -n 's/^  "decisions_per_s": \([0-9]*\).*/\1/p' BENCH_serve.json | head -n 1)"
SMOKE_DPS="$(sed -n 's/^    "decisions_per_s": \([0-9]*\).*/\1/p' BENCH_serve.json | head -n 1)"
[ -n "$BENCH_DPS" ] || { echo "no decisions_per_s in BENCH_serve.json" >&2; exit 1; }
if ! tr -d ',' < README.md | grep -q "~${BENCH_DPS} decisions/s"; then
    echo "README.md does not quote ~${BENCH_DPS} decisions/s from BENCH_serve.json" >&2
    exit 1
fi
if [ -n "$SMOKE_DPS" ] && ! tr -d ',' < README.md | grep -q "~${SMOKE_DPS} decisions/s"; then
    echo "README.md does not quote the smoke-phase ~${SMOKE_DPS} decisions/s" >&2
    exit 1
fi

echo "==> population determinism smoke (1 vs 8 threads, byte-identical)"
# The abr-pop sweep derives every viewer from (seed, index) alone, so the
# per-cohort CSV must not depend on the worker count. cmp is the gate.
POP_DIR="$(mktemp -d)"
./target/release/cava population --sessions 2000 --threads 1 \
    --csv "$POP_DIR/pop-t1.csv" > /dev/null
./target/release/cava population --sessions 2000 --threads 8 \
    --csv "$POP_DIR/pop-t8.csv" > /dev/null
cmp "$POP_DIR/pop-t1.csv" "$POP_DIR/pop-t8.csv"
rm -rf "$POP_DIR"

echo "==> bench perf gate (fresh BENCH_*.json vs committed, tolerance ${BENCH_TOLERANCE}%)"
# Re-run the perf-tracked experiments into a scratch directory and diff
# the fresh documents against the committed trajectory with bench_gate
# (>BENCH_TOLERANCE% regression in decisions/sec or p99 latency fails).
# Documents not committed yet (first revision on a branch) are skipped.
# One process per gated experiment, all from a default build: the latency
# gates must never run under the counting global allocator.
cargo build -q --release -p abr-bench --bin exp --bin bench_gate
REPO_ROOT="$(pwd)"
GATE_BASE="$(mktemp -d)"
GATE_FRESH="$(mktemp -d)"
for doc in BENCH_serve.json BENCH_serve_chaos.json BENCH_population.json \
    BENCH_alloc.json; do
    if ! git show "HEAD:$doc" > "$GATE_BASE/$doc" 2>/dev/null; then
        echo "  $doc not in HEAD yet - gate skipped for it"
        rm -f "$GATE_BASE/$doc"
    fi
done
(cd "$GATE_FRESH" && RESULTS_DIR="$GATE_FRESH/results" \
    "$REPO_ROOT/target/release/exp" serve_soak > /dev/null)
(cd "$GATE_FRESH" && RESULTS_DIR="$GATE_FRESH/results" \
    "$REPO_ROOT/target/release/exp" serve_chaos > /dev/null)
(cd "$GATE_FRESH" && RESULTS_DIR="$GATE_FRESH/results" POP_SCALE=20000 \
    "$REPO_ROOT/target/release/exp" population > /dev/null)
# Only now rebuild `exp` with counted-alloc, which installs the counting
# global allocator and builds alloc_gate's measuring implementation. The
# feature build overwrites target/release/exp, so it must come last.
cargo build -q --release -p abr-bench --features counted-alloc --bin exp
(cd "$GATE_FRESH" && RESULTS_DIR="$GATE_FRESH/results" \
    "$REPO_ROOT/target/release/exp" alloc_gate > /dev/null)
# Keep the fresh alloc document under results/ so CI can upload it as an
# artifact even when a gate fails (the workflow step uses `if: always()`).
cp "$GATE_FRESH/BENCH_alloc.json" results/BENCH_alloc_fresh.json
# Every gate runs before any verdict, so a failing latency field in one
# document cannot hide a regression (say, an allocation) in another.
FAILED_GATES=""
for doc in BENCH_serve.json BENCH_serve_chaos.json BENCH_population.json; do
    if [ -f "$GATE_BASE/$doc" ] && [ -f "$GATE_FRESH/$doc" ]; then
        ./target/release/bench_gate "$GATE_BASE/$doc" "$GATE_FRESH/$doc" \
            --tolerance "$BENCH_TOLERANCE" || FAILED_GATES="$FAILED_GATES $doc"
    fi
done
# The alloc document is held to 0% — allocs_per_decision/bytes_per_decision
# are exact-gated inside bench_gate (any increase fails), and the committed
# baseline is all zeros, so this gate never loosens with --bench-tolerance.
if [ -f "$GATE_BASE/BENCH_alloc.json" ]; then
    ./target/release/bench_gate "$GATE_BASE/BENCH_alloc.json" \
        "$GATE_FRESH/BENCH_alloc.json" --tolerance 0 ||
        FAILED_GATES="$FAILED_GATES BENCH_alloc.json"
fi
rm -rf "$GATE_BASE" "$GATE_FRESH"
if [ -n "$FAILED_GATES" ]; then
    echo "bench gate failed for:$FAILED_GATES" >&2
    exit 1
fi

echo "all checks passed"
