#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds S] [--seed-base N]

Runs each workload --runs times (a different seed each run) in --sets
separate sets, then prints, per workload, metric and set: the median,
the IQR as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), and (max-min)/median;
plus the gap between the first two sets' medians.  A spread above a
third of the metric's bound in BENCHMARK.json, or a gap above the bound,
is flagged.  The output is stamped with nproc, the OCaml version and the
git revision.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def stamp():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    return {"nproc": os.cpu_count(), "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
            "git_rev": out(["git", "rev-parse", "--short", "HEAD"])}


def one_run(cmd, workload, seed, seconds):
    p = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(json.dumps(stamp()))
    flagged = 0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [one_run(bench["command"], workload, args.seed_base + 100 * s + i, args.seconds)
                    for i in range(args.runs)]
            sets.append(runs)
            print(json.dumps({"workload": workload, "set": s, "runs": runs}), flush=True)
        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs of {args.seconds} s")
        print(f"{'metric':22} {'set':>3} {'median':>12} {'iqr/med':>8} {'range/med':>9}  gap")
        for name, bound in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                med, iqr, rng = spread([r[name] for r in runs])
                meds.append(med)
                flag = " !" if name != "setup_s" and iqr > bound / 3 else ""
                flagged += bool(flag)
                print(f"{name:22} {s:3} {med:12.6g} {iqr:8.4f} {rng:9.4f}{flag}")
            if len(meds) >= 2:
                gap = abs(meds[1] - meds[0]) / meds[0]
                flag = " !" if gap > bound else ""
                flagged += bool(flag)
                print(f"{name:22} {'':3} {'':12} {'':8} {'':9}  {gap:.4f} (bound {bound}){flag}")
    print(f"\n{flagged} flag(s)")


if __name__ == "__main__":
    main()
