#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarize each end-to-end metric.

    python3 cmmbench/repeat.py --seeds 1-10                 # noise check
    python3 cmmbench/repeat.py --seeds 1,1,1,1,1 --ledger   # ledger lines

Runs every workload of BENCHMARK.json (or --workloads a,b) once per seed,
interleaving workloads, through cmmbench/run.py from the checkout root. For
each workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound. With --ledger it appends one line per workload to
cmmbench/LEDGER.jsonl: those numbers, the seeds, and the host facts the
benchmark printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    p = subprocess.run([sys.executable, "cmmbench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().split("\n")
    if p.returncode != 0:
        sys.exit("%s seed %d failed (exit %d):\n%s"
                 % (workload, seed, p.returncode, p.stdout))
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                {})
    return json.loads(lines[-1]), host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,1,1")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--ledger", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    values = {w: {m: [] for m in bounds} for w in workloads}
    hosts = {}
    for seed in seeds:
        for w in workloads:
            result, hosts[w] = run_once(w, seed, spec["run_seconds"])
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (m, values[w][m][-1]) for m in bounds)),
                file=sys.stderr)

    for w in workloads:
        row = {"workload": w, "runs": len(seeds), "seeds": sorted(set(seeds)),
               "date": time.strftime("%Y-%m-%d"), "host": hosts[w],
               "metrics": {}}
        for m, bound in bounds.items():
            v = values[w][m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            row["metrics"][m] = {"median": med, "q1": q1, "q3": q3}
            print("%-14s %-13s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.3f (bound %.2f)%s"
                  % (w, m, med, q1, q3, spread, bound,
                     "" if m == "setup_s" or spread <= bound / 3
                     else "  <-- above bound/3"))
        if args.ledger:
            with open(os.path.join("cmmbench", "LEDGER.jsonl"), "a") as f:
                f.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
