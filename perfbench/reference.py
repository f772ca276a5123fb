"""A fixed reference kernel that measures how fast the host runs right now.

On a shared 2-vCPU host the speed of one process moves by 20 to 100
percent within seconds and between processes, with CPU time equal to
wall time, so raw seconds of separate runs spread more than any useful
bound (interquartile range over five seeds: 10 to 20 percent of the
median). The benchmark therefore times this kernel between operations
and divides each timed stretch of an operation by the kernel times
measured around it: latencies are reported in units of the kernel's time
("ref"), which cuts that spread to 3 to 5 percent on mpc-corridor,
mhe-window and safety-cert.

The kernel does, in equal measure, the kinds of work the library spends
its time on: assembling small scipy.sparse matrices, dense triangular
solves large and small, a column-by-column back-solve in Python, many
small numpy calls, plain Python arithmetic, and a pass over an array
larger than the L2 cache. Its parts slow down by different factors at
the same moment (small numpy calls the most), and the even mix tracked
the workloads better than any single part. It never calls conzopt, so a
change to the library moves the ratio while a change of host speed moves
both sides of it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class Reference:
    """Times the kernel when ``interval`` seconds have passed since the
    last measurement; keeps every measurement."""

    interval = 0.2   # seconds between measurements, at least
    window = 0.5     # seconds around a timed stretch whose measurements count

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.blocks = [sp.random(6, 9, density=0.4, random_state=rng, format="csc")
                       for _ in range(12)]
        self.L = np.tril(rng.uniform(-1.0, 1.0, (800, 800))) + 800.0 * np.eye(800)
        self.rhs = rng.uniform(-1.0, 1.0, (800, 2))
        self.L_small = np.tril(rng.uniform(-1.0, 1.0, (170, 170))) + 170.0 * np.eye(170)
        self.rhs_small = rng.uniform(-1.0, 1.0, (170, 32))
        self.rows = rng.integers(0, 200, size=(400, 6))
        self.x = np.ones(200)
        self.vec = rng.uniform(-1.0, 1.0, 16)
        self.big = rng.uniform(-1.0, 1.0, 1_000_000)
        self.parts = (self._assemble, self._solve, self._solve_small, self._back_solve,
                      self._numpy_calls, self._python, self._stream)
        self.samples = []   # (perf_counter at the end, seconds of the kernel)
        self.parts_s = []   # seconds of each part, one list per sample
        self.last = -np.inf
        for _ in range(5):   # warm-up
            self.measure()
        self.samples.clear()
        self.parts_s.clear()

    def _assemble(self):
        for _ in range(2):
            block = sp.block_diag(self.blocks, format="csc")
            sp.hstack([block, block], format="csc").T.tocsc()

    def _solve(self):
        for _ in range(2):
            scipy.linalg.solve_triangular(self.L, self.rhs, lower=True, check_finite=False)

    def _solve_small(self):
        for _ in range(4):
            scipy.linalg.solve_triangular(self.L_small, self.rhs_small, lower=True,
                                          check_finite=False)
            self.L_small @ self.rhs_small

    def _back_solve(self):
        x = self.x.copy()
        for j, rows in enumerate(self.rows):
            x[rows] -= 1e-3 * self.vec[:6] * x[j % 200]

    def _numpy_calls(self):
        acc = 0.0
        for i in range(300):
            acc += float(np.dot(self.vec, self.vec)) * (i % 3)

    def _python(self):
        acc = 0
        for i in range(10000):
            acc += i * (i & 7)

    def _stream(self):
        float(self.big.sum())

    def measure(self):
        """Run the kernel once; return its seconds."""
        parts = []
        t0 = time.perf_counter()
        for part in self.parts:
            t = time.perf_counter()
            part()
            parts.append(time.perf_counter() - t)
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.parts_s.append(parts)
        self.last = t1
        return t1 - t0

    def maybe_measure(self):
        if time.perf_counter() - self.last >= self.interval:
            self.measure()

    def in_units(self, segments):
        """Summed length of timed (start, end) segments, each divided by the
        median kernel time measured within ``window`` seconds of it (or,
        if fewer than two were, by the last before it and the first after)."""
        ends = np.array([t for t, _ in self.samples])
        secs = np.array([d for _, d in self.samples])
        total = 0.0
        for a, b in segments:
            lo = int(np.searchsorted(ends, a - self.window, side="left"))
            hi = int(np.searchsorted(ends, b + self.window, side="right"))
            if hi - lo < 2:
                lo = max(int(np.searchsorted(ends, a, side="right")) - 1, 0)
                hi = min(int(np.searchsorted(ends, b, side="left")), len(ends) - 1) + 1
            total += (b - a) / float(np.median(secs[lo:hi]))
        return total
