#!/usr/bin/env python3
"""Build the benchmark and run one workload for one seed.

    python3 benchmark/run.py --workload chat --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds benchmark/ (which pulls in the
repository as a CMake subdirectory) into build-bench/, runs
specee_bench, and prints as the last line of standard output one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics BENCHMARK.json lists,
from a measured run; with --trace 1 they are its per-layer metrics,
from a traced run. Everything else (build log, per-metric table) goes
to standard error. The full result, with sample counts and workload
parameters, is kept in build-bench/results/. --smoke runs the tiny
model on a fifth of the stream as a quick sanity pass; its results go
to build-bench/smoke/ so they never mix with measured ones.

Exits non-zero, without a result line, when the build or the run
fails; exits non-zero after the result line when a correctness check
fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "specee_bench")
# A run must end well inside three minutes (set-up plus drains take
# about half of that); a hung simulator is killed and the run fails.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build specee_bench (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Runs sharing a checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                            "-G", "Unix Makefiles",
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "specee_bench", "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"build failed: {e}")
    results = os.path.join(BUILD, "smoke" if args.smoke else "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"specee_bench ran past {RUN_TIMEOUT_S} s and was killed")
    if not os.path.exists(out):
        sys.exit(f"specee_bench exited {proc.returncode} without a result")
    with open(out) as f:
        result = json.load(f)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"specee_bench did not report {m['name']} "
                     f"in {m['unit']}")
        metrics[m["name"]] = {"value": float(got["value"]),
                              "unit": m["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
