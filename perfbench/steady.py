#!/usr/bin/env python3
"""Steadiness runner for the repository benchmark.

    python3 perfbench/steady.py                       # 10 runs of every workload
    python3 perfbench/steady.py --workloads serve-open-loop --runs 5
    python3 perfbench/steady.py --sets 2              # two sets, medians must agree
    python3 perfbench/steady.py --trace               # per-layer metrics instead

Runs the command of BENCHMARK.json once per seed (seeds seed-base+i, and
seed-base+1000+i for the second set), then prints for every metric its
median, quartiles and spread (q3 - q1) / median, using
statistics.quantiles(values, n=4). A metric fails when its spread exceeds
its bound (setup_s excepted), or when the second set's median is worse than
the first's by more than the bound. Exits 1 on any failure or failed run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(first, second, better):
    """Relative amount by which the second median is worse than the first."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--trace", action="store_true", help="per-layer metrics (no bounds)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                got = run_once(spec, workload, args.seed_base + 1000 * s + i, args.trace)
                if got is None:
                    print(f"{workload}: run with seed {args.seed_base + 1000 * s + i} failed")
                    ok = False
                    continue
                for m in metrics:
                    if m["name"] not in got:
                        print(f"{workload}: metric {m['name']} missing")
                        ok = False
                    else:
                        values[m["name"]].append(got[m["name"]])
            sets.append(values)
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            for s, values in enumerate(sets):
                if len(values[name]) < 2:
                    continue
                med, q1, q3, spread = summarize(values[name])
                verdict = "-"
                if bound is not None:
                    if name == "setup_s":
                        verdict = "ok (spread not gated)"
                    elif spread > bound:
                        verdict, ok = "SPREAD > BOUND", False
                    elif spread > bound / 3:
                        verdict = "ok (above bound/3)"
                    else:
                        verdict = "ok"
                label = name if s == 0 else "  set 2"
                print(f"{label:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                      f"{bound if bound is not None else '':>6}  {verdict}")
                print(f"{'':34} runs: " + " ".join(f"{v:.4g}" for v in values[name]))
            if args.sets == 2 and bound is not None and all(len(v[name]) >= 2 for v in sets):
                worse = worse_by(statistics.median(sets[0][name]),
                                 statistics.median(sets[1][name]), m["better"])
                if worse > bound:
                    print(f"{'':34} set 2 median worse by {worse:.3f} > bound  FAIL")
                    ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
