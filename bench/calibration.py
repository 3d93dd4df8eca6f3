"""Scale measured times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed flips
between regimes, often every few seconds, in which the same work takes up
to twice as long (see bench/METRICS.md).  A run that spends more of its
time in slow regimes is slower in every metric, so raw seconds spread more
across runs than a program change the benchmark should resolve.  `Clock`
therefore runs fixed reference kernels just before and just after every
timed span and scales the span by how long they took:

    reference seconds = measured seconds * REFERENCE_S[k] / kernel k seconds

with the kernel time the mean of its run before and its run after the
span.  The regimes do not slow all work alike, so there are two kernels,
and each timed step names the one its work resembles:

- "bulk": LAPACK eigensolves and element-wise passes over large arrays,
  like the build-then-truncate eigensolves of `ground-sweep`;
- "dispatch": short numpy operations on arrays of a few hundred elements
  in an interpreted loop, where call and allocation overhead dominate,
  like the displacement-block loops of `apply_channel`;
- "mixed": the sum of both, for work of both kinds or of neither.

The kernels are benchmark code; no program change can move them.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

# Kernel times, in seconds, on the reference machine (2-CPU shared x86-64
# host, Python 3.11, numpy 2.4, one BLAS thread) in its fast regime: the
# 10th percentile of 805 runs of each, rounded.
REFERENCE_S = {"bulk": 0.009, "dispatch": 0.009}

_rng = np.random.default_rng(20240520)
_MATRIX = _rng.normal(size=(150, 150))
_MATRIX = _MATRIX + _MATRIX.T
_VECTOR = _rng.normal(size=100_000)
_PANEL = _rng.normal(size=(20, 300))
_LINE = np.linspace(-5.0, 5.0, 400)


def bulk() -> None:
    for _ in range(2):
        np.linalg.eigh(_MATRIX)
        np.mean(np.sin(1.3 * _VECTOR + 0.2) ** 2)
    for _ in range(100):
        a = np.exp(0.1 * _PANEL)
        (a @ a.T).sum()


def dispatch() -> None:
    for _ in range(24):  # a three-term recurrence on a short grid
        a = np.exp(-0.5 * _LINE * _LINE)
        b = _LINE * a
        for n in range(2, 100):
            a, b = b, math.sqrt(2.0 / n) * _LINE * b - math.sqrt((n - 1.0) / n) * a
    for _ in range(2000):
        z = np.empty((20, 20), dtype=complex)
        z[:] = 1.0
        np.vdot(z, z)


KERNELS = {"bulk": bulk, "dispatch": dispatch}


class Span(NamedTuple):
    start: float
    end: float
    kernel_s: dict[str, float]  # each kernel's time around the span

    def reference_s(self, kernel: str) -> float:
        """The span's duration in reference seconds, scaled by `kernel`."""
        names = list(KERNELS) if kernel == "mixed" else [kernel]
        reference = sum(REFERENCE_S[n] for n in names)
        return (self.end - self.start) * reference / sum(self.kernel_s[n] for n in names)


class Clock:
    """Times spans, with the reference kernels run around each one.

    With calibrate=False it only times (the traced run uses that).
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        if calibrate:
            self._kernels()  # the first calls pay lazy set-up

    def _kernels(self) -> dict[str, float]:
        if not self.calibrate:
            return {}
        times = {}
        for name, kernel in KERNELS.items():
            start = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - start
        return times

    def time(self, fn):
        """Run fn(); return its Span and its result."""
        before = self._kernels()
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        after = self._kernels()
        return Span(start, end, {n: (before[n] + after[n]) / 2.0 for n in before}), out

    def span(self, start: float, end: float) -> Span:
        """A span that has already ended, with the kernels run now."""
        return Span(start, end, self._kernels())
