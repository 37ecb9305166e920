"""Per-step call counts of the benchmark workloads' seed-0 runs.

    python3 tools/step_calls.py [WORKLOAD ...]

For each workload (all four when none is named) it builds the seed-0 jobs
from `mealbench.workloads`, counts the `sys.setprofile` "call" events
(Python frames) and "c_call" events (calls into C: builtins, numpy
functions and methods) over each job's `solvers.run`, set-up included, and
divides each total by the workload's outer steps. It prints one table row a
workload, after the Python and numpy versions the counts were made with.
Each workload is counted in a fresh interpreter: a run is the first of its
process to call some functions, and a first call can make calls that later
ones do not.

The counts are deterministic for one Python and numpy version, so a change
that should not add calls to the step loop can be checked against its
parent exactly, where timings on a shared host cannot. A C call is one event
whatever it costs: the count says how many calls a step dispatches, not how
long they take.
"""

from __future__ import annotations

import argparse
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def count(jobs) -> tuple[int, int, int]:
    """(outer steps, Python calls, C calls) over one run of every job."""
    from mealopt import solvers

    events = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in events:
            events[event] += 1

    steps = 0
    for job in jobs:
        sys.setprofile(profile)
        try:
            trace = solvers.run(job.problem, job.config, init=job.init)
        finally:
            sys.setprofile(None)
        steps += trace.n_rows - 1
    return steps, events["call"], events["c_call"]


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from mealbench.workloads import BUILDERS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(WORKLOADS)} (default: all)")
    names = ap.parse_args(argv).workloads or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}")

    print(f"Python {platform.python_version()}, numpy {numpy.__version__}")
    print("| workload | steps | Python calls a step | C calls a step |")
    print("|---|---|---|---|")
    for name in names:
        if len(names) > 1:
            child = subprocess.run([sys.executable, __file__, name], check=True,
                                   capture_output=True, text=True)
            print(child.stdout.splitlines()[-1])
            continue
        steps, calls, c_calls = count(BUILDERS[name](0))
        print(f"| {name} | {steps:,} | {calls / steps:.2f} | {c_calls / steps:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
