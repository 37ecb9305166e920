"""The documentation's examples run as written."""

import re
from pathlib import Path

from mealopt.fileio import load_problem

ROOT = Path(__file__).resolve().parent.parent


def _first_block(path: Path, lang: str, after: str = "") -> str:
    text = path.read_text()
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(after):], re.S).group(1)


def test_readme_quick_start_converges(capsys):
    namespace = {}
    exec(_first_block(ROOT / "README.md", "python", "## Library quick start"), namespace)
    assert namespace["trace"].status == "Converged"
    assert capsys.readouterr().out.startswith("Converged ")


def test_schema_example_loads(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(_first_block(ROOT / "docs" / "problem_schema.md", "json"))
    problem = load_problem(path)
    assert (problem.n, problem.m) == (2, 1)
    assert problem.prox_part.implicit_class.constant == 2.0
