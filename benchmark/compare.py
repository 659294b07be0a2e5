#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 benchmark/compare.py BASE CHANGE [--same-code]

BASE and CHANGE are directories (or single files) of specee_bench
result JSON files, for example the parent's and the change's runs of
ten or more alternating pairs. Runs pair up by workload and seed, in
file-name order within a seed. For every workload x metric it prints
each side's median and quartiles, the change's share of pair wins, the
tolerance it applied and a verdict.

Modeled-clock metrics repeat bit for bit for a seed, so where both
sides ran the same seeds they are judged seed by seed, against the
tight tolerances of PAIRED_TOLERANCE:

  regressed   the mean per-seed change is worse than the tolerance
  improved    the mean per-seed change is better than the tolerance
  same        otherwise

Wall and process metrics, and modeled metrics without a common seed,
are judged across all runs against BENCHMARK.json's bounds (sized for
the spread across different seeds):

  regressed   the change's median is worse than the base's by more
              than the metric's bound
  unresolved  either side's spread (quartile distance over median)
              exceeds the bound, so the runs cannot tell
  improved    the change wins >= 90% of the pairs and its median beats
              the base's by more than the base's own quartile distance
  same        otherwise

A metric whose every change run beats every base run is never
regressed or unresolved. Per-layer metrics have no bound and get no
verdict. The failed-request share of each workload is checked too: a
change that fails more requests regresses. A modeled metric that
differs between runs of one seed on one side fails.

--same-code checks repeatability (both sets from the same code): no
metric may be regressed or unresolved, and every modeled metric must be
bit-identical across all runs of the same workload and seed.

Exits 1 when any metric regressed or is unresolved, or a check fails.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Same-seed tolerances of the modeled end-to-end metrics: ("rel", x) is
# a share of the base value, ("abs", x) a difference in the metric's
# unit. One request of a 100-request workload is 0.01 of
# slo_attain_frac. Modeled metrics not named here use DEFAULT_PAIRED.
DEFAULT_PAIRED = ("rel", 0.005)
PAIRED_TOLERANCE = {
    "token_match": ("abs", 0.002),
    "slo_attain_frac": ("abs", 0.01),
}


def load(path):
    """Result files under `path`, skipping traced-run side files."""
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "**", "*.json"), recursive=True))
    runs = []
    for f in files:
        if f.endswith((".spans.json", ".fleet_trace.json")):
            continue
        with open(f) as fh:
            r = json.load(fh)
        if "workload" in r and "metrics" in r:
            runs.append(r)
    if not runs:
        sys.exit(f"no specee_bench results under {path}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def by_key(runs):
    """{(workload, mode): {seed: [run, ...]}} in file order."""
    out = {}
    for r in runs:
        out.setdefault((r["workload"], r["mode"]), {}).setdefault(
            r["seed"], []).append(r)
    return out


def pairs(base, change):
    """(base run, change run) pairs matched by seed."""
    for seed in sorted(set(base) & set(change)):
        yield from zip(base[seed], change[seed])


def value(run, name):
    return run["metrics"][name]["value"]


def paired_verdict(name, better, b_runs, c_runs):
    """Seed-by-seed verdict of a modeled metric: (verdict, worse, tol)."""
    sign = 1.0 if better == "lower" else -1.0
    kind, tol = PAIRED_TOLERANCE.get(name, DEFAULT_PAIRED)
    changes = []
    for seed in sorted(set(b_runs) & set(c_runs)):
        x, y = value(b_runs[seed][0], name), value(c_runs[seed][0], name)
        d = sign * (y - x)
        changes.append(d if kind == "abs" else d / abs(x) if x else 0.0)
    worse = statistics.fmean(changes)
    if worse > tol:
        return "regressed", worse, tol
    if -worse > tol:
        return "improved", worse, tol
    return "same", worse, tol


def verdict(a, b, better, bound, ps):
    """Cross-run verdict against a BENCHMARK.json bound."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if bound is None:
        return "", worse
    all_better = (max(b) < min(a)) if better == "lower" else (
        min(b) > max(a))
    if not all_better:
        if worse > bound:
            return "regressed", worse
        if max(spread(a), spread(b)) > bound:
            return "unresolved", worse
    wins = sum(1 for x, y in ps if sign * (y - x) < 0)
    q1, q3 = quartiles(a)
    if ps and wins >= 0.9 * len(ps) and -sign * (med_b - med_a) > q3 - q1:
        return "improved", worse
    return "same", worse


def nondeterministic(runs_by_seed, names):
    """Modeled metrics that differ between runs of one seed."""
    bad = []
    for seed, runs in sorted(runs_by_seed.items()):
        for name in names:
            values = {value(r, name) for r in runs if name in r["metrics"]}
            if len(values) > 1:
                bad.append((seed, name))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--same-code", action="store_true")
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = by_key(load(args.base)), by_key(load(args.change))

    bad = []
    for key in sorted(set(base) | set(change)):
        workload, mode = key
        if key not in base or key not in change:
            print(f"\n{workload} ({mode}): only on one side, skipped")
            continue
        b_runs, c_runs = base[key], change[key]
        ps_runs = list(pairs(b_runs, c_runs))
        print(f"\n{workload} ({mode}): {sum(map(len, b_runs.values()))} "
              f"base runs, {sum(map(len, c_runs.values()))} change runs, "
              f"{len(ps_runs)} pairs")
        print(f"  {'metric':26} {'unit':9} {'base median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'worse':>8} {'wins':>5} "
              f"{'tol':>6}  verdict")
        all_b = [r for rs in b_runs.values() for r in rs]
        all_c = [r for rs in c_runs.values() for r in rs]
        modeled = [n for n, m in all_b[0]["metrics"].items()
                   if m["clock"] == "modeled"]
        for side, runs in (("base", b_runs), ("change", c_runs)):
            for seed, name in nondeterministic(runs, modeled):
                bad.append(f"{workload} seed {seed}: modeled {name} "
                           f"differs between {side} runs")
        for name in all_b[0]["metrics"]:
            a = [value(r, name) for r in all_b if name in r["metrics"]]
            b = [value(r, name) for r in all_c if name in r["metrics"]]
            if not a or not b:
                continue
            m = spec.get(name, {})
            better = m.get("better", "lower")
            bound = m.get("bound")
            ps = [(value(x, name), value(y, name)) for x, y in ps_runs
                  if name in x["metrics"] and name in y["metrics"]]
            sign = 1.0 if better == "lower" else -1.0
            win = (sum(1 for x, y in ps if sign * (y - x) < 0) / len(ps)
                   if ps else 0.0)
            paired = bound is not None and name in modeled and ps
            shown_abs = False
            if paired:
                v, worse, tol = paired_verdict(name, better, b_runs, c_runs)
                shown_abs = PAIRED_TOLERANCE.get(
                    name, DEFAULT_PAIRED)[0] == "abs"
            else:
                v, worse = verdict(a, b, better, bound, ps)
                tol = bound
            unit = all_b[0]["metrics"][name]["unit"]
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:26} {unit:9} "
                  f"{statistics.median(a):11.5g} [{qa[0]:.4g}, {qa[1]:.4g}]"
                  f"{'':<2} "
                  f"{statistics.median(b):11.5g} [{qb[0]:.4g}, {qb[1]:.4g}]"
                  f"{'':<2} "
                  f"{f'{worse:8.4f}' if shown_abs else f'{100 * worse:7.2f}%'}"
                  f" {100 * win:4.0f}% "
                  f"{'' if tol is None else f'{tol:6.3f}'}  {v}"
                  f"{' (per seed)' if paired else ''}")
            if v in ("regressed", "unresolved"):
                bad.append(f"{workload}/{name}: {v}")

        fail_a = sum(r["failed"] for r in all_b) / max(
            1, sum(r["attempted"] for r in all_b))
        fail_b = sum(r["failed"] for r in all_c) / max(
            1, sum(r["attempted"] for r in all_c))
        print(f"  failed requests: base {fail_a:.4f}, change {fail_b:.4f}")
        if fail_b > fail_a:
            bad.append(f"{workload}: more failed requests")
        for r in all_b + all_c:
            if not r["correct"]:
                bad.append(f"{workload} seed {r['seed']}: checks failed")

        if args.same_code:
            both = {s: b_runs.get(s, []) + c_runs.get(s, [])
                    for s in set(b_runs) & set(c_runs)}
            for seed, name in nondeterministic(both, modeled):
                bad.append(f"{workload} seed {seed}: modeled {name} "
                           f"differs between the two sides")

    print()
    for b in bad:
        print("FAIL:", b)
    print("OK" if not bad else f"{len(bad)} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
