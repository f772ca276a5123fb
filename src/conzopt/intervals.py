"""Closed interval vectors (boxes).

Endpoint arithmetic rounds to nearest, not outward.
"""

from __future__ import annotations

import numpy as np


class IntervalBox:
    """Vector of closed intervals [lo_i, hi_i]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"bounds of shapes {lo.shape} and {hi.shape} are not vectors of one length")
        if not np.all(lo <= hi):
            # a NaN bound fails lo <= hi too
            bad = int(np.argmin(lo <= hi))
            raise ValueError(f"invalid box: not lo <= hi at component {bad}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalBox is immutable")

    def __len__(self):
        return self.lo.shape[0]

    def _operand(self, x):
        """A scalar, or a vector of the box's length (infinite entries allowed), as a float array."""
        x = np.asarray(x, dtype=float)
        if x.shape not in ((), self.lo.shape):
            raise ValueError(f"operand of shape {x.shape} does not match a box of length {len(self)}")
        return x

    def __add__(self, other):
        if isinstance(other, IntervalBox):
            return IntervalBox(self.lo + self._operand(other.lo), self.hi + other.hi)
        shift = self._operand(other)
        return IntervalBox(self.lo + shift, self.hi + shift)

    def __sub__(self, other):
        if isinstance(other, IntervalBox):
            return IntervalBox(self.lo - self._operand(other.hi), self.hi - other.lo)
        shift = self._operand(other)
        return IntervalBox(self.lo - shift, self.hi - shift)

    def contains(self, x):
        x = self._operand(x)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def half_width(self):
        return 0.5 * (self.hi - self.lo)

    def __repr__(self):
        parts = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lo, self.hi))
        return f"IntervalBox({parts})"
