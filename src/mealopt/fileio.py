"""Problem-file and trace-file input/output.

Problem files are JSON with the schema documented in docs/problem_schema.md:

    {
      "constraint": {"A": [[...], ...], "b": [...]},
      "objective": {
        "smooth": null | {"kind": "quadratic", "Q": [[...]], "r": [...], "c": 0.0},
        "prox": {"kind": "zero" | "quadratic_form" | "box" | "l1" | "scad"
                         | "mcp" | "pointwise_min", ...},
        "implicit_class": {"kind": "lipschitz"|"bounded"|"unknown",
                           "constant": number | null}
      }
    }

Box bounds use null for an absent (infinite) bound. Traces are CSV with the
fixed header k,objective,feasibility,stationarity,lyapunov,lambda_norm,
xz_gap,wall_time and shortest round-trip float formatting.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .problem import (
    MCP,
    SCAD,
    BoxIndicator,
    ImplicitClass,
    L1,
    LinearConstraint,
    PointwiseMin,
    Problem,
    QuadraticForm,
    QuadraticSmooth,
    Zero,
)
from .solvers import TRACE_COLUMNS, Trace

__all__ = ["load_problem", "save_problem", "save_trace", "load_trace_columns",
           "save_summary", "CSV_HEADER"]

CSV_HEADER = ",".join(TRACE_COLUMNS)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _object(value, where: str) -> dict:
    """`value`, the node at field `where`, if it is an object."""
    if not isinstance(value, dict):
        raise SchemaError(where, f"must be an object, got {json.dumps(value)[:40]}")
    return value


def _made(where: str, make, *args):
    """make(*args), the value of field `where`; its conversion error is a
    SchemaError at that field."""
    try:
        return make(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(where, str(exc)) from None


def _need(obj, key: str, where: str):
    """obj[key], where obj is the node at field `where`, which must be an object."""
    if key not in _object(obj, where):
        raise SchemaError(f"{where}.{key}", "missing field")
    return obj[key]


def _numbers_only(value, where: str) -> None:
    """Raise SchemaError at the first boolean or string found in `value`, the
    part of a problem file at field `where`. Apart from `kind` fields, every
    leaf of a problem file is a number or null."""
    if isinstance(value, (bool, str)):
        raise SchemaError(where, f"must be a number, got {json.dumps(value)}")
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        if key != "kind" and isinstance(item, (dict, list, bool, str)):
            _numbers_only(item, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")


def _bound_in(value, where: str, sign: float):
    for i, v in enumerate(value):
        if not (v is None or isinstance(v, (int, float)) and math.isfinite(v)):
            raise SchemaError(f"{where}[{i}]", "bound must be a finite number or null")
    return [sign * math.inf if v is None else float(v) for v in value]


def _bound_out(arr) -> list:
    return [None if not np.isfinite(v) else float(v) for v in arr]


def _implicit_in(obj, where: str) -> ImplicitClass:
    if obj is None:
        return ImplicitClass.unknown()
    kind = _need(obj, "kind", where)
    if kind == "unknown":
        return ImplicitClass.unknown()
    constant = _need(obj, "constant", where)
    return _made(where, lambda: ImplicitClass(kind, float(constant)))


def _implicit_out(cls: ImplicitClass) -> dict:
    return {"kind": cls.kind, "constant": cls.constant}


# the prox kinds a file states by their float fields alone
_PROX_KINDS = {"zero": (Zero, ()), "l1": (L1, ("weight",)),
              "scad": (SCAD, ("lam", "a")), "mcp": (MCP, ("lam", "a"))}


def _quadratic_in(obj: dict, where: str) -> tuple:
    """(Q, r, c) of an objective.smooth or quadratic_form entry."""
    return _need(obj, "Q", where), obj.get("r"), float(obj.get("c", 0.0))


def _quadratic_out(Q, r, c) -> dict:
    return {"Q": Q.tolist(), "r": r.tolist(), "c": c}


def _prox_in(obj: dict, where: str):
    kind = _need(obj, "kind", where)
    try:
        if isinstance(kind, str) and kind in _PROX_KINDS:
            cls, fields = _PROX_KINDS[kind]
            return cls(**{f: float(_need(obj, f, where)) for f in fields})
        if kind == "quadratic_form":
            return QuadraticForm(*_quadratic_in(obj, where))
        if kind == "box":
            lower = _bound_in(_need(obj, "lower", where), f"{where}.lower", -1.0)
            upper = _bound_in(_need(obj, "upper", where), f"{where}.upper", +1.0)
            return BoxIndicator(lower=lower, upper=upper,
                                implicit_class=_implicit_in(obj.get("implicit_class"),
                                                            f"{where}.implicit_class"))
        if kind == "pointwise_min":
            pieces = []
            for i, piece in enumerate(_need(obj, "pieces", where)):
                quad = _prox_in(_need(piece, "quadratic", f"{where}.pieces[{i}]"),
                                f"{where}.pieces[{i}].quadratic")
                box = piece.get("box")
                box = _prox_in(box, f"{where}.pieces[{i}].box") if box else None
                pieces.append((quad, box))
            return PointwiseMin(pieces=tuple(pieces))
    except SchemaError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(where, str(exc)) from None
    raise SchemaError(f"{where}.kind", f"unknown prox kind {kind!r}")


def _prox_out(g) -> dict:
    for kind, (cls, fields) in _PROX_KINDS.items():
        if isinstance(g, cls):
            return {"kind": kind, **{f: getattr(g, f) for f in fields}}
    if isinstance(g, QuadraticForm):
        return {"kind": "quadratic_form", **_quadratic_out(g.Q, g.r, g.c)}
    if isinstance(g, BoxIndicator):
        return {"kind": "box", "lower": _bound_out(g.lower),
                "upper": _bound_out(g.upper),
                "implicit_class": _implicit_out(g.implicit_class)}
    if isinstance(g, PointwiseMin):
        return {"kind": "pointwise_min", "pieces": [
            {"quadratic": _prox_out(q), "box": _prox_out(b) if b is not None else None}
            for q, b in g.pieces
        ]}
    raise SchemaError("objective.prox", f"unserializable prox kind {type(g).__name__}")


def load_problem(path) -> Problem:
    """Parse a problem file; raises SchemaError with field context."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(str(path), f"unreadable problem file: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(str(path), "top level must be an object")
    for key, value in data.items():
        _numbers_only(value, key)

    # A and b are converted one by one, so an error in either names its field
    cons = _need(data, "constraint", "problem")
    A = _made("constraint.A", np.asarray, _need(cons, "A", "constraint"), float)
    b = _made("constraint.b", np.asarray, _need(cons, "b", "constraint"), float)
    if b.ndim > 1:
        raise SchemaError("constraint.b", f"must be a flat array of numbers, got shape {b.shape}")
    constraint = _made("constraint", LinearConstraint, A, b)

    obj = _object(_need(data, "objective", "problem"), "objective")
    smooth_obj = obj.get("smooth")
    smooth = None
    if smooth_obj is not None:
        kind = _need(smooth_obj, "kind", "objective.smooth")
        if kind != "quadratic":
            raise SchemaError("objective.smooth.kind",
                              f"only 'quadratic' is serializable, got {kind!r}")
        smooth = _made("objective.smooth",
                       lambda: QuadraticSmooth(*_quadratic_in(smooth_obj, "objective.smooth")))

    prox_part = _prox_in(_need(obj, "prox", "objective"), "objective.prox")
    cls = obj.get("implicit_class")
    if cls is not None:
        prox_part.implicit_class = _implicit_in(cls, "objective.implicit_class")
    return _made("problem", Problem, constraint, prox_part, smooth)


def save_problem(problem: Problem, path) -> None:
    data = {
        "constraint": {"A": problem.constraint.A.tolist(),
                       "b": problem.constraint.b.tolist()},
        "objective": {
            "smooth": None,
            "prox": _prox_out(problem.prox_part),
            "implicit_class": _implicit_out(problem.prox_part.implicit_class),
        },
    }
    if problem.composite:
        terms = problem.smooth.quadratic_terms()
        if terms is None:
            raise SchemaError("objective.smooth",
                              "only quadratic smooth parts are serializable")
        data["objective"]["smooth"] = {"kind": "quadratic", **_quadratic_out(*terms)}
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


_ROWS_PER_BLOCK = 256     # rows formatted at a time; bounds the temporaries


def save_trace(trace: Trace, path) -> None:
    """Write the fixed-header CSV; reruns differ only in wall_time.

    Rows are formatted a block at a time from Python numbers: k as an
    integer, the other columns as the shortest round-trip decimal.
    """
    cols = [np.asarray(trace.columns[name]) for name in TRACE_COLUMNS]
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for i in range(0, trace.n_rows, _ROWS_PER_BLOCK):
            k, *rest = (c[i:i + _ROWS_PER_BLOCK].tolist() for c in cols)
            block = [[str(int(v)) for v in k]] + [list(map(repr, map(float, c)))
                                                  for c in rest]
            f.writelines(",".join(row) + "\n" for row in zip(*block))


def load_trace_columns(path) -> dict:
    """Read a trace CSV back into column arrays (testing/analysis helper).

    SchemaError, naming the path and the 1-based line, on an empty file, a
    wrong header, or a row that is not len(TRACE_COLUMNS) numbers.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise SchemaError(f"{path} line 1", "empty trace file")
    if lines[0] != CSV_HEADER:
        raise SchemaError(f"{path} line 1", f"unexpected header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != len(TRACE_COLUMNS):
                raise ValueError(f"{len(fields)} fields, want {len(TRACE_COLUMNS)}")
            rows.append([float(tok) for tok in fields])
        except ValueError as exc:
            raise SchemaError(f"{path} line {lineno}", str(exc)) from None
    table = np.array(rows, dtype=float).reshape(len(rows), len(TRACE_COLUMNS))
    return dict(zip(TRACE_COLUMNS, table.T.copy()))


SUMMARY_COLUMNS = (
    "run", "algorithm", "status", "iterations_to_tol", "terminal_objective",
    "terminal_feasibility", "terminal_stationarity", "oscillating",
    "rate_kind", "rate_param", "rate_r2",
)


def save_summary(rows: list, path) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        toks = []
        for name in SUMMARY_COLUMNS:
            v = row[name]
            if v is None:
                toks.append("")
            elif isinstance(v, bool):
                toks.append("true" if v else "false")
            elif isinstance(v, float):
                toks.append(repr(v))
            else:
                toks.append(str(v))
        lines.append(",".join(toks))
    Path(path).write_text("\n".join(lines) + "\n")
