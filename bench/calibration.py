"""Calibration loops that measure how fast the host runs right now.

A shared virtual machine can run 1.5-2x slower for seconds at a time,
with CPU time stretching along with wall time, so neither longer runs
nor CPU timers remove the drift.  The benchmark times a fixed
calibration loop around every measured operation and divides by it;
the ratio cancels most of the drift, as long as the calibration's code
slows down the way the measured code does.  Interpreter-bound and
BLAS-bound code do not slow down alike, hence one loop for each.
Each loop is the benchmark's own fixed code, so no change to the
package can make it faster or slower.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

_RNG = np.random.default_rng(0)
_DRAWS = _RNG.standard_normal((60, 200))
_EXPOSURES = _RNG.standard_normal((1500, 200))


@dataclass(frozen=True)
class _Spec:
    """Stands in for a validated, frozen options object."""

    b: float
    L: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.b) and isinstance(self.L, int) and self.L > 0 and self.seed >= 0):
            raise ValueError("invalid calibration spec")


def interp() -> float:
    """Seconds taken by work like the engine's per-call and per-draw
    path: seeding and constructing Philox generators, building small
    validated objects and arrays, and a Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence(i)))
        acc += int(g.integers(0, 2, size=8).sum())
    for i in range(200):
        spec = _Spec(b=0.1 * i, L=199, seed=i)
        a = np.arange(6.0) * spec.b
        acc += int(np.flatnonzero(a > a.mean()).size)
    for i in range(15000):
        acc += i & 7
    return time.perf_counter() - t0


def blas() -> float:
    """Seconds taken by matrix products shaped like the T2 kernel's
    (draws x sectors times sectors x units)."""
    t0 = time.perf_counter()
    for _ in range(3):
        Z = _DRAWS @ _EXPOSURES.T
        (Z * Z).sum(axis=1)
        Z @ _EXPOSURES
    return time.perf_counter() - t0


CALIBRATIONS = {"interp": interp, "blas": blas}
