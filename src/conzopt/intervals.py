"""Closed scalar intervals and interval vectors.

Endpoint arithmetic rounds to nearest, not outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        other = _as_interval(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def scale(self, alpha):
        if alpha >= 0:
            return Interval(alpha * self.lo, alpha * self.hi)
        return Interval(alpha * self.hi, alpha * self.lo)

    def __rmul__(self, alpha):
        if np.isscalar(alpha):
            return self.scale(float(alpha))
        return NotImplemented

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(float(other))
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def contains(self, x):
        return self.lo <= x <= self.hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)


def _as_interval(x):
    if isinstance(x, Interval):
        return x
    if np.isscalar(x):
        return Interval(float(x), float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as an interval")


class IntervalBox:
    """Vector of closed intervals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            intervals = list(lo)
            lo = np.array([iv.lo for iv in intervals], dtype=float)
            hi = np.array([iv.hi for iv in intervals], dtype=float)
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if not np.all(lo <= hi):
            # a NaN bound fails lo <= hi, as it does in Interval
            bad = int(np.argmin(lo <= hi))
            raise ValueError(f"invalid box: not lo <= hi at component {bad}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalBox is immutable")

    def __len__(self):
        return self.lo.shape[0]

    def __getitem__(self, i):
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __add__(self, other):
        if isinstance(other, IntervalBox):
            return IntervalBox(self.lo + other.lo, self.hi + other.hi)
        shift = np.asarray(other, dtype=float)
        return IntervalBox(self.lo + shift, self.hi + shift)

    def __sub__(self, other):
        if isinstance(other, IntervalBox):
            return IntervalBox(self.lo - other.hi, self.hi - other.lo)
        shift = np.asarray(other, dtype=float)
        return IntervalBox(self.lo - shift, self.hi - shift)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
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
