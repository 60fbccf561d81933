#!/usr/bin/env python3
"""Build cmmbench from this checkout's sources and run one workload.

    python3 cmmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds into .bench_build/cmmbench (build output
goes to stderr); later runs rebuild only what changed. The benchmark's own
output follows on stdout; its last line is the JSON result, whose metric
names are checked against BENCHMARK.json. With --trace 1 the Chrome trace of
the traced half is written to .bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "cmmbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if not os.path.exists(cache):
            r = subprocess.run(["cmake", "-S", "cmmbench", "-B", BUILD,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=sys.stderr)
            if r.returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(len(os.sched_getaffinity(0)))
        r = subprocess.run(["cmake", "--build", BUILD, "--target", "cmmbench",
                            "-j", jobs], stdout=sys.stderr)
        return r.returncode == 0


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    work = os.path.join(".bench_build", "run")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "cmmbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: cmmbench did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        print("run.py: cmmbench exited %d" % p.returncode, file=sys.stderr)
        return p.returncode

    result = json.loads(p.stdout.rstrip("\n").split("\n")[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra "
              "or mis-united %s" % (sorted(set(want.items()) - set(got.items())),
                                    sorted(set(got.items()) - set(want.items()))),
              file=sys.stderr)
        return 1
    sys.stdout.write(p.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
