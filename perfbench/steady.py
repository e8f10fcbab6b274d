#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and show how much each metric spreads.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed 1]
                                [--seconds S] [--trace 0|1]

Run from the repository root.  Each run goes through perfbench/run.py, with
seeds seed, seed+1, ...  For every metric the tool prints the median, the quartiles and min/max of the
runs (quartiles as statistics.quantiles(values, n=4) gives them), the
spread (q3 - q1) / median, and, for end-to-end metrics, the bound from
BENCHMARK.json and the spread as a share of it.  It also prints the share
of failed operations of each run.  Exit status 1 when a run failed to
report or any end-to-end metric's spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("#") and "steal_pct=" in line:
            result["steal_pct"] = float(line.split("steal_pct=")[1].split()[0])
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, min(values), max(values), spread


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.seed + i
            r = one_run(workload, seed, args.seconds, args.trace)
            if r is None:
                print("%s seed %d: no result" % (workload, seed))
                ok = False
                continue
            results.append(r)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n== %s: %d runs, seeds from %d, failed share %s, correct %s"
              % (workload, len(results), args.seed, shares,
                 all(r["correct"] for r in results)))
        print("host steal %% per run: %s" % [r.get("steal_pct") for r in results])
        print("%-34s %12s %12s %12s %12s %12s %8s %6s %7s"
              % ("metric", "median", "q1", "q3", "min", "max", "spread", "bound", "/bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, lo, hi, spread = summarize(values)
            bound = bounds.get(name) if args.trace == 0 else None
            share = "" if bound is None else "%.2f" % (spread / bound)
            print("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s %7s"
                  % (name, med, q1, q3, lo, hi, spread, "" if bound is None else bound, share))
            if bound is not None and spread > bound:
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
