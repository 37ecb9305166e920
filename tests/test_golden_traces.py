"""Golden traces: the `exp1` and `exp2 --seed 42` runs against a committed record.

`tests/golden/traces.json` holds, for each run of the two bundles, its
status, `converged_at` and row count, columns 2-7 (objective through
xz_gap) at a fixed set of rows and at the last row, and the sha256 of the
CSV's columns 1-7 (everything but wall_time). The values are compared to a
relative 1e-9, the digests exactly. A change that moves bits on
purpose regenerates the record with `tests/golden/regen_traces.py`, says so
and states its bound; the value tolerance stays as it is.

The digests pin one platform's floating point: numpy, its BLAS and the CPU
kernels that BLAS picks. The record's "platform" entry names the numpy,
scipy and BLAS that made them, and a digest failure names that platform
next to the one that ran.
"""

import hashlib
import json
import math
import platform
from pathlib import Path

import numpy
import pytest
import scipy

from mealopt.experiments import ExperimentSpec, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "traces.json"
SAMPLE_ROWS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)
VALUE_RTOL = 1e-9


def platform_record() -> dict:
    """The numpy, scipy and BLAS versions (numpy's and scipy's own) and the
    machine the traces are computed on."""
    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "machine": platform.machine()}


def trace_record(trace, csv_path) -> dict:
    """The golden record of one run: the trace's status and `converged_at`,
    and from its CSV the row count, the sampled rows and the digest."""
    lines = Path(csv_path).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    sampled = [i for i in SAMPLE_ROWS if i < len(rows)] + ["last"]
    return {
        "status": trace.status,
        "converged_at": trace.converged_at,
        "rows": len(rows),
        "values": {str(i): (rows[-1] if i == "last" else rows[i])[1:7] for i in sampled},
        "sha256": hashlib.sha256(
            "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()).hexdigest(),
    }


def bundle_records(bundle, out_dir) -> dict:
    """label -> trace_record for every run of a bundle written to out_dir."""
    base = Path(out_dir) / bundle.spec.id
    return {label: trace_record(trace, base / f"{label}.csv")
            for label, trace in bundle.traces.items()}


@pytest.fixture(scope="module")
def records(tmp_path_factory, exp2_bundle):
    out = tmp_path_factory.mktemp("golden_exp1")
    exp1 = run_experiment(ExperimentSpec("exp1"), out_dir=out)
    bundle, exp2_out, _ = exp2_bundle
    return {"exp1": bundle_records(exp1, out), "exp2": bundle_records(bundle, exp2_out)}


@pytest.fixture(scope="module")
def golden_file():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden(golden_file):
    """The golden runs: experiment -> label -> record."""
    return {exp: runs for exp, runs in golden_file.items() if exp != "platform"}


def _close(got: str, want: str) -> bool:
    """Within VALUE_RTOL relative to max(1, |golden|). Entries that converge
    towards 0 (down to 5e-14 here) are compared absolutely: a one-ulp change
    of exp2's gamma moves a terminal stationarity of 8.4e-7 by 4e-9 of
    itself, which the digest test catches and this test lets through."""
    g, w = float(got), float(want)
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= VALUE_RTOL * max(1.0, abs(w))


def test_golden_trace_values(records, golden):
    assert {exp: sorted(runs) for exp, runs in records.items()} == \
        {exp: sorted(runs) for exp, runs in golden.items()}
    for exp, runs in golden.items():
        for label, want in runs.items():
            got = records[exp][label]
            where = f"{exp}/{label}"
            assert (got["status"], got["converged_at"], got["rows"]) == \
                (want["status"], want["converged_at"], want["rows"]), where
            assert sorted(got["values"]) == sorted(want["values"]), where
            for row, vals in want["values"].items():
                bad = [(col, g, w) for col, (g, w) in
                       enumerate(zip(got["values"][row], vals), start=2)
                       if not _close(g, w)]
                assert not bad, f"{where} row {row}: (column, got, golden) {bad}"


def test_golden_trace_bytes(records, golden, golden_file):
    digests = {(exp, label): rec["sha256"]
               for exp, runs in records.items() for label, rec in runs.items()}
    want = {(exp, label): rec["sha256"]
            for exp, runs in golden.items() for label, rec in runs.items()}
    differ = sorted("/".join(key) for key in want.keys() | digests.keys()
                    if digests.get(key) != want.get(key))
    assert digests == want, (
        f"digests of {differ} differ; made on {golden_file.get('platform')}, "
        f"run on {platform_record()}")
