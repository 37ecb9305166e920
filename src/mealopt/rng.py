"""Portable seedable random numbers (SplitMix64).

Experiment instances must be reproducible bit-for-bit across platforms and
languages, so problem generation does not go through numpy's generators.
SplitMix64 (Steele, Lea & Flood, 2014) keeps 64 bits of state:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

all arithmetic mod 2^64. Uniform doubles in [0, 1) take the top 53 bits.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit-state generator with documented, language-portable output."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_array(self, *shape: int) -> np.ndarray:
        """Array of uniforms filled in row-major order: the values, and the
        state left behind, of `uniform()` called once per element. The k-th
        state is s0 + k*GOLDEN; numpy's uint64 arithmetic wraps mod 2^64."""
        n = math.prod(shape)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) \
                * np.uint64(_GOLDEN)
            if n:
                self._state = int(z[-1])
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)) * 2.0 ** -53).reshape(shape)
