import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import mealopt as m
from mealopt.experiments import ExperimentSpec, run_experiment
from mealopt.problem import ProxFunction

# the same examples on every run, and no example database
settings.register_profile("mealopt", derandomize=True, database=None, deadline=None)
settings.load_profile("mealopt")


def pytest_configure(config):
    """Hypothesis caches the constants it reads from the source while pytest
    collects; keep that cache in a temporary directory, out of the checkout."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def new_memory_peak(fn):
    """Peak bytes that `fn()` allocates on top of what is traced when it
    starts, as `tracemalloc` sees them. numpy reports its data buffers to
    `tracemalloc`; LAPACK's work arrays (`eigvalsh`'s copy of its matrix,
    say) are allocated outside it and are not counted."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def exp2_bundle(tmp_path_factory):
    """The `exp2 --seed 42` bundle written to a temporary directory, and its
    wall seconds; run once and shared by the acceptance and golden tests."""
    out = tmp_path_factory.mktemp("exp2_a")
    t0 = time.perf_counter()
    bundle = run_experiment(ExperimentSpec("exp2", seed=42), out_dir=out)
    elapsed = time.perf_counter() - t0
    return bundle, out, elapsed


@pytest.fixture
def exp1_problem():
    return m.build_exp1()


def make_convex_qp(seed, n=5, mcon=2):
    """Equality-constrained convex QP with certified metadata (no box)."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1, 1, size=(n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    r = rng.uniform(-1, 1, size=n)
    A = rng.uniform(-1, 1, size=(mcon, n))
    b = A @ rng.uniform(-1, 1, size=n)
    return m.Problem(m.LinearConstraint(A, b), m.Zero(), m.QuadraticSmooth(Q, r))


def make_box_qp(seed, n=4, mcon=2):
    """Random (generally indefinite) QP over [0,1]^n with feasible Ax=b."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(0, 1, size=(n, n))
    Q = 0.5 * (G + G.T)
    r = rng.uniform(0, 1, size=n)
    A = rng.uniform(0, 1, size=(mcon, n))
    b = A @ rng.uniform(0, 1, size=n)
    box = m.BoxIndicator(np.zeros(n), np.ones(n))
    return m.Problem(m.LinearConstraint(A, b), box, m.QuadraticSmooth(Q, r))


class OpaqueProx(ProxFunction):
    """The zero function as a prox kind with no subgradient interval and no
    file form."""

    def value(self, x):
        return 0.0

    def _prox(self, gamma, v):
        return v.copy()
