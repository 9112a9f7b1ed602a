"""A fixed reference computation that measures how fast the machine is now.

On a shared machine the same work can take 30% longer from one minute to
the next. The benchmark times this reference between requests and scales
its timings by the reference's current speed, so that two runs of the same
code agree although the machine's speed drifted between them. The
reference uses nothing from `uniequiv`, so a change to the package moves
the scaled times as much as the raw ones.

Its four parts stand for the kinds of work the package does: interpreter
loops, numpy calls on tiny matrices, complex matrix-vector products (the
core of algebra verification) and a LAPACK SVD that forms a full U (the
core of the nullspace step). One sample is the geometric mean of the part
times. Its arrays take under 1 MB, so it adds little to the worker's
peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

# A typical geometric mean of the four part times on an Intel Xeon at
# 2.1 GHz with one BLAS thread (samples ranged from 3 to 5 ms). A scaled time
# is what the request would have taken had the reference run this fast.
NOMINAL_S = 0.004


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = [rng.standard_normal((4, 4)) + 0j for _ in range(8)]
        self.q = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
        self.v = rng.standard_normal(144) + 0j
        self.tall = rng.standard_normal((600, 16))

    def _interpreter(self):
        total = 0
        for k in range(40_000):
            total += k * k
        return total

    def _tiny(self):
        for _ in range(100):
            for M in self.tiny:
                M @ M

    def _gemv(self):
        for _ in range(100):
            np.linalg.norm(self.v - self.q @ (self.q.conj().T @ self.v))

    def _svd(self):
        np.linalg.svd(self.tall)

    def sample(self) -> float:
        """One timing of the reference: geometric mean of its parts, in seconds."""
        logs = 0.0
        parts = (self._interpreter, self._tiny, self._gemv, self._svd)
        for part in parts:
            start = time.perf_counter()
            part()
            logs += np.log(time.perf_counter() - start)
        return float(np.exp(logs / len(parts)))
