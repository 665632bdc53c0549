#!/usr/bin/env python3
"""Steadiness report for the benchmark declared in BENCHMARK.json.

Runs every workload (or those named) `--runs` times, each run on its own
seed, and prints for every end-to-end metric the median, the quartiles and
IQR/median next to the metric's bound. With `--sets 2` it repeats the whole
series and also reports how far the second set's median moved from the
first's. Exits 1 when a run fails or is incorrect, when a spread (other than
setup_s) exceeds its bound, or when a second median is worse than the first
by more than the bound. With `--runs 1` it runs every workload once and
only checks correctness.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 1     # every workload once
    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads serve-flood
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = bench["end_to_end"]
    ok = True
    seed = args.first_seed
    for workload in names:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for _ in range(args.runs):
                result, took = run_once(bench, workload, seed, seconds)
                line = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g} "
                    f"{result['metrics'][m['name']]['unit']}"
                    for m in metrics
                )
                print(f"  {workload} set {s + 1} seed {seed}: {took:.1f}s wall, "
                      f"attempted {result['attempted']} failed {result['failed']} "
                      f"correct {result['correct']}: {line}", flush=True)
                if not result["correct"] or result["failed"]:
                    print(f"  {workload} seed {seed}: INCORRECT OUTPUT")
                    ok = False
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                seed += 1
            sets.append(values)
        if args.runs < 2:
            continue
        print(f"{workload}: {args.runs} runs per set")
        print(f"  {'metric':<18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'bound':>6} {'bound/3':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, values in enumerate(sets):
                q1, med, q3, rel = spread(values[name])
                medians.append(med)
                if name == "setup_s":
                    verdict = "not gated"
                elif rel > bound:
                    verdict, ok = "TOO NOISY", False
                elif rel > bound / 3:
                    verdict = "within bound"
                else:
                    verdict = "steady"
                print(f"  {name:<18} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{rel:>8.4f} {bound:>6} {bound / 3:>8.4f}  {verdict}")
            if len(medians) == 2:
                worse = medians[1] / medians[0] - 1
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "SECOND MEDIAN WORSE"
                ok = ok and worse <= bound
                print(f"  {name:<18} second median worse by {worse:+.4f} "
                      f"(bound {bound}): {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
