"""Diff the per-run outcomes of two benchmark outputs.

    python3 mealbench/compare.py OLD.json NEW.json

OLD and NEW are records that run.py writes to .bench_out/, typically from
the same workload and seed on two builds. Prints every change in status,
converged_at, outer steps and inner iterations, and the largest |dx| and
|dlam| between terminal iterates. Exits 1 when a count or status changed
or a run is missing on one side.
"""

from __future__ import annotations

import argparse
import json
import sys

COUNTS = ("status", "converged_at", "outer_steps", "inner_iters")


def max_abs_diff(a, b) -> float:
    if a is None and b is None:
        return 0.0
    if a is None or b is None or len(a) != len(b):
        return float("inf")
    return max((abs(u - v) for u, v in zip(a, b)), default=0.0)


def compare(old: dict, new: dict) -> tuple[list, float]:
    """(printable count and status change lines, max terminal-iterate change)."""
    lines, worst = [], 0.0
    runs_new = {r["label"]: r for r in new["runs"]}
    for r in old["runs"]:
        label = r["label"]
        s = runs_new.pop(label, None)
        if s is None:
            lines.append(f"{label}: missing from the new output")
            continue
        for key in COUNTS:
            if r[key] != s[key]:
                lines.append(f"{label}: {key} {r[key]} -> {s[key]}")
        worst = max(worst, max_abs_diff(r["x"], s["x"]),
                    max_abs_diff(r["lam"], s["lam"]))
    lines += [f"{label}: new run" for label in runs_new]
    return lines, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    lines, worst = compare(old, new)
    for line in lines:
        print(line)
    print(f"{len(old['runs'])} runs compared, {len(lines)} changes, "
          f"max |dx| = {worst:.3e}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
