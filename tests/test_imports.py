"""mealopt uses only numpy's and scipy's public surface: no module, function
or attribute whose name starts with an underscore, which a release may move
or drop without a deprecation."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mealopt"
ROOTS = ("numpy", "scipy", "np")


def _private(dotted: str) -> bool:
    parts = dotted.split(".")
    return parts[0] in ROOTS and any(
        p.startswith("_") and not (p.startswith("__") and p.endswith("__")) for p in parts)


def _is_name_chain(node) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


def private_uses(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each private numpy or scipy name that `source`
    imports or reads as an attribute of numpy, scipy or np."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and _is_name_chain(node):
            names = [ast.unparse(node)]
        else:
            continue
        found += [(node.lineno, name) for name in names if _private(name)]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_numpy_or_scipy_name(path):
    uses = private_uses(path.read_text())
    assert uses == [], f"{path.name} uses private numpy/scipy names: {uses}"


@pytest.mark.parametrize("source", [
    "from numpy.linalg import _umath_linalg",
    "import numpy.linalg._umath_linalg",
    "from scipy.linalg._decomp import cho_factor",
    "import numpy as np\nnp.linalg._umath_linalg.solve1",
])
def test_the_scan_finds_a_private_name(source):
    assert private_uses(source)


@pytest.mark.parametrize("source", [
    "from numpy.linalg import LinAlgError",
    "from scipy.linalg import cho_factor, get_lapack_funcs",
    "import numpy as np\nnp.__version__, np.linalg.solve",
    "from ._private import x\nself._cache",
    "import numpy as np\nnp.zeros(2)._private",
])
def test_the_scan_passes_public_names(source):
    assert private_uses(source) == []
