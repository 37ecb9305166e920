"""Regenerate tests/golden/traces.json from the current build.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_traces.py

It runs the `exp1` bundle and the `exp2` bundle at seed 42 (m = 5, n = 20),
writes their CSVs to a temporary directory and records each run as
`tests/test_golden_traces.py` reads it, after the platform that made them:
the numpy, scipy and BLAS versions and the machine.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from mealopt.experiments import ExperimentSpec, run_experiment  # noqa: E402
from tests.test_golden_traces import GOLDEN, bundle_records, platform_record  # noqa: E402


def main() -> None:
    records = {"platform": platform_record()}
    with tempfile.TemporaryDirectory() as out:
        for spec in (ExperimentSpec("exp1"), ExperimentSpec("exp2", seed=42)):
            bundle = run_experiment(spec, out_dir=out)
            if bundle.errors:
                raise SystemExit(f"{spec.id} runs failed: {bundle.errors}")
            records[spec.id] = bundle_records(bundle, out)
    text = json.dumps(records, indent=1)
    # one line per sampled row
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
