"""A clock that reads seconds at a fixed reference speed of the host.

The machine the benchmark runs on is shared: its CPUs slow down by up to
2x, in states that last from a second to minutes, so wall seconds of the
same work spread across runs far more than any useful bound. This clock
probes the host's speed while the work runs. Every `PROBE_EVERY_S` a
SIGALRM handler times a fixed kernel, and the wall time since the previous
probe is scaled by `PROBE_REF_S / probe time`. On a host where the kernel
takes exactly `PROBE_REF_S`, the clock reads wall seconds; on a host
running at half speed, it reads half of them. The probes themselves are
left out of the reading.

The scaling assumes the work slows by the same factor as the kernel, so
the kernel mixes the kinds of work the solvers do (see `probe_kernel`).
It tracks best when probe and work share a CPU, so `pin` ties the process
to one. Handlers run between bytecodes, so a probe falls after any long
native call (a LAPACK routine, say), never inside it.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

PROBE_REF_S = 0.003        # probe duration at the reference speed
PROBE_EVERY_S = 0.1


def probe_inputs() -> tuple:
    rng = np.random.default_rng(0)
    return (0.5 * np.eye(4) + 0.1, np.linspace(0.0, 1.0, 4),
            rng.standard_normal((800, 800)), np.ones(800),
            rng.standard_normal((90, 90)))


def probe_kernel(inputs) -> str:
    """Fixed work in about the mix the benchmark times: Python arithmetic,
    float formatting and small containers (the outer loops and save_trace),
    n=4 numpy calls (the inner loops), a memory-bound 800x800 matvec and a
    small matrix product (exp2 at n=800)."""
    Q, y, big, v, small = inputs
    out, seen, x = [], {}, 0.1
    for i in range(1000):
        x = x * 1.0000001 + 0.37
        s = repr(x)
        out.append(s)
        seen[i % 97] = (s, i)
        if i % 10 == 0:
            y = np.clip(Q @ y - 0.1, 0.0, 1.0)
    big @ v
    small @ small
    return ",".join(out)


def pin() -> int:
    """Tie this process to its lowest allowed CPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Reference-speed seconds, probed by SIGALRM inside a `with` block.

    Read it with `now()`, which probes once more, so an interval's reading
    reflects the speed up to its very end.
    """

    def __init__(self):
        self.reading = 0.0
        self.mark = 0.0            # wall time the last probe ended
        self.probes: list = []     # wall seconds of every probe
        self._inputs = probe_inputs()
        self._busy = False
        self._running = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        self._running = False      # an alarm still pending must not re-arm
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _probe(self) -> None:
        self._busy = True
        t = time.perf_counter()
        probe_kernel(self._inputs)
        took = time.perf_counter() - t
        self.reading += (t - self.mark) * PROBE_REF_S / took
        self.mark = time.perf_counter()
        self.probes.append(took)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._running:
            return
        if not self._busy:         # an alarm that lands inside now()'s probe
            self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def now(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self.reading
