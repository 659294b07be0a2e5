#!/usr/bin/env bash
# Run every workload BENCHMARK.json lists for one seed.
#
#   benchmark/run_all.sh --seed 1 [--traced] [--smoke]
#
# Each workload runs through benchmark/run.py, in its own process with
# two worker threads at most; the first builds build-bench/. Every
# metric is printed with its unit and clock on standard error, and the
# result files land in build-bench/results/ (build-bench/smoke/ for
# --smoke). --traced reports the per-layer metrics and writes the
# traces; --smoke runs the tiny model on a fifth of every stream as a
# quick sanity pass. Exits 1 if any workload fails.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
trace=0
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed=$2; shift 2 ;;
    --traced) trace=1; shift ;;
    --smoke) smoke=(--smoke); shift ;;
    *)
        echo "usage: $0 --seed S [--traced] [--smoke]" >&2
        exit 2
        ;;
    esac
done

read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
[ ${#smoke[@]} -gt 0 ] && seconds=0
status=0
for w in $workloads; do
    python3 benchmark/run.py --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" "${smoke[@]}" >/dev/null ||
        status=1
done
exit $status
