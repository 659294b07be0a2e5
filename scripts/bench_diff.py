#!/usr/bin/env python3
"""Compare two BENCH_*.json files value by value.

Every string, integer, boolean (so every bar's `met`) and structural
element must match exactly; floats may differ by at most 1e-9
relative. Prints each offending key path and exits 1 on any
difference, 0 when the files agree.

Usage: bench_diff.py BASE.json NEW.json
"""

import json
import sys

REL_TOL = 1e-9


def label(item):
    """Name a list element by its `sweep` / `name` field, if any."""
    if isinstance(item, dict):
        for key in ("name", "sweep"):
            if isinstance(item.get(key), str):
                return f"({item[key]})"
    return ""


def diff(base, new, path, out):
    if isinstance(base, dict) and isinstance(new, dict):
        for key in sorted(base.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in new:
                out.append(f"{sub}: missing from NEW")
            elif key not in base:
                out.append(f"{sub}: missing from BASE")
            else:
                diff(base[key], new[key], sub, out)
    elif isinstance(base, list) and isinstance(new, list):
        if len(base) != len(new):
            out.append(f"{path}: {len(base)} entries -> {len(new)}")
        for i, (b, n) in enumerate(zip(base, new)):
            diff(b, n, f"{path}[{i}]{label(b)}", out)
    elif type(base) is float and type(new) is float:
        scale = max(abs(base), abs(new))
        if abs(base - new) > REL_TOL * scale:
            out.append(f"{path}: {base!r} -> {new!r}")
    elif type(base) is not type(new) or base != new:
        out.append(f"{path}: {base!r} -> {new!r}")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    out = []
    diff(base, new, "", out)
    for line in out:
        print(f"bench_diff: {line}")
    if out:
        print(f"bench_diff: {len(out)} difference(s)", file=sys.stderr)
        return 1
    print("bench_diff: files agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
