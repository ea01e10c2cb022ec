"""Host-speed calibration, so that step times from a shared host compare.

On a host shared with other tenants, identical steps take 0.8 s in one
minute and 1.3 s in the next, and CPU time tracks wall time: the spread
comes from how fast the host runs, not from scheduling. The benchmark
therefore times a fixed kernel, which runs no annealdp code, just before
and just after every timed interval, and rescales the interval to the
host speed at which the kernel takes REFERENCE_S:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel time is the mean of the two bracketing samples. The
kernel mixes the kinds of work the program does: interpreter-bound Python,
a dict-of-frozensets polynomial evaluation like ``Poly.evaluate``, small
numpy matrix-vector products, and streaming passes over an array larger
than the L2 cache. Their slowdowns under contention differ, and each
workload leans on a different mix.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed constant near the kernel's median time on the baseline host.
REFERENCE_S = 0.05


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._w = rng.standard_normal((135, 135))
        self._x = rng.integers(0, 2, size=(200, 135)).astype(np.float64)
        self._big = rng.standard_normal(1 << 20)
        self._terms: dict[frozenset[int], float] = {}
        while len(self._terms) < 4000:
            size = int(rng.integers(1, 4))
            key = frozenset(int(v) for v in rng.choice(150, size=size, replace=False))
            self._terms[key] = float(rng.standard_normal())
        self._bits = [int(b) for b in rng.integers(0, 2, size=150)]

    def sample(self) -> float:
        """Seconds one run of the calibration kernel takes now."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i * i % 7
        bits = self._bits
        for _ in range(16):
            for key, c in self._terms.items():
                for v in key:
                    c *= bits[v]
                acc += c
        w, x = self._w, self._x
        for v in range(1_000):
            f = x @ w[:, v % 135]
            acc += float((1.0 / (1.0 + np.exp(np.clip(f, -50.0, 50.0)))).sum())
        for _ in range(6):
            acc += float(np.abs(self._big).sum())
        seconds = time.perf_counter() - t0
        if acc != acc:  # consume the result so no work can be skipped
            raise ArithmeticError("calibration kernel produced NaN")
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        """How much slower than the reference the host ran between samples."""
        return 0.5 * (before + after) / REFERENCE_S
