#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints per metric the median, the quartiles and the spread (interquartile
range over the median), next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --workloads train-cluster --runs 5

Quartiles come from statistics.quantiles(values, n=4). A spread above a
third of its bound is flagged; setup_s is exempt from the spread rule.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1]), wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's values")
    args = ap.parse_args()
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in defs}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        shares = set()
        walls = []
        for k in range(args.runs):
            res, wall = run_once(wl, args.seed_base + k, args.seconds, args.trace)
            walls.append(wall)
            if not res["correct"]:
                ok = False
                print(f"{wl} seed {args.seed_base + k}: correct=false")
            shares.add(res["failed"] / res["attempted"])
            if args.verbose:
                print(f"{wl} seed {args.seed_base + k} ({wall:.0f} s): " +
                      " ".join(f"{n}={m['value']:.5g}" for n, m in sorted(res["metrics"].items())), flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{wl}: {args.runs} runs of {args.seconds} s, wall {min(walls):.0f}-{max(walls):.0f} s per run, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {name:36s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bound if bound is not None else '':>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
