"""Constrained zonotopes and their closed-form set operations.

A constrained zonotope is the set { G xi + c : A xi = b, xi in [-1,1]^nG }.
With no constraint rows it reduces to a zonotope. All operations return
new sets; inputs are never mutated.
"""

from __future__ import annotations

import operator

import numpy as np

from .intervals import Interval, IntervalBox
from .sparse import SparseMat, blkdiag, block_triplets, hcat, multiply


class ConZono:
    """Constrained zonotope <G, c, A, b>.

    G: (n x nG) generator matrix, c: dense center, A: (nC x nG)
    constraint matrix, b: dense constraint vector, all finite. nC = 0
    means the set is a zonotope.
    """

    __slots__ = ("G", "c", "A", "b")

    def __init__(self, G, c, A=None, b=None):
        G = G if isinstance(G, SparseMat) else SparseMat(G)
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if A is None:
            A = SparseMat.zeros(0, G.n_cols)
        else:
            A = A if isinstance(A, SparseMat) else SparseMat(A)
        if b is None:
            b = np.zeros(A.n_rows)
        else:
            b = np.atleast_1d(np.asarray(b, dtype=float))
        if G.n_rows != c.shape[0]:
            raise ValueError(f"generator matrix has {G.n_rows} rows but center has length {c.shape[0]}")
        if A.n_cols != G.n_cols:
            raise ValueError(
                f"constraint matrix has {A.n_cols} columns but generator matrix has {G.n_cols}"
            )
        if A.n_rows != b.shape[0]:
            raise ValueError(f"constraint matrix has {A.n_rows} rows but rhs has length {b.shape[0]}")
        for name, values in (("G", G._m.data), ("c", c), ("A", A._m.data), ("b", b)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a NaN or infinite entry")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("ConZono is immutable")

    @property
    def dim(self):
        return self.G.n_rows

    @property
    def n_g(self):
        return self.G.n_cols

    @property
    def n_c(self):
        return self.A.n_rows

    def point(self, xi):
        """Map a factor vector through the generators: G xi + c."""
        xi = np.asarray(xi, dtype=float)
        return self.G.matvec(xi) + self.c

    def __repr__(self):
        return f"ConZono(dim={self.dim}, n_g={self.n_g}, n_c={self.n_c})"

    def to_json_dict(self):
        return {
            "n": self.dim,
            "nG": self.n_g,
            "nC": self.n_c,
            "G": [[r, c, v] for (r, c, v) in self.G.triplets()],
            "A": [[r, c, v] for (r, c, v) in self.A.triplets()],
            "c": self.c.tolist(),
            "b": self.b.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d):
        n, n_g, n_c = int(d["n"]), int(d["nG"]), int(d["nC"])
        def triplet_mat(entries, shape):
            if not entries:
                return SparseMat.zeros(*shape)
            # indices go through unconverted: from_triplets rejects non-integral ones
            rows, cols, vals = zip(*((e[0], e[1], float(e[2])) for e in entries))
            return SparseMat.from_triplets(rows, cols, vals, shape)
        return cls(
            triplet_mat(d["G"], (n, n_g)),
            np.asarray(d["c"], dtype=float),
            triplet_mat(d["A"], (n_c, n_g)),
            np.asarray(d["b"], dtype=float),
        )


def point_set(x) -> ConZono:
    """Singleton {x} as a zero-generator constrained zonotope."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return ConZono(SparseMat.zeros(x.shape[0], 0), x)


def affine_map(R, Z: ConZono, s=None) -> ConZono:
    """R Z + s = <R G, R c + s, A, b>; the constraint block is unchanged."""
    R = R if isinstance(R, SparseMat) else SparseMat(R)
    if R.n_cols != Z.dim:
        raise ValueError(f"map with {R.n_cols} columns cannot act on a set of dimension {Z.dim}")
    if s is None:
        s = np.zeros(R.n_rows)
    else:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if s.shape[0] != R.n_rows:
            raise ValueError(f"offset of length {s.shape[0]} does not match map with {R.n_rows} rows")
    return ConZono(multiply(R, Z.G), R.matvec(Z.c) + s, Z.A, Z.b)


def minkowski_sum(Z1: ConZono, Z2: ConZono) -> ConZono:
    """Z1 + Z2 = <[G1 G2], c1 + c2, blkdiag(A1, A2), [b1; b2]>."""
    if Z1.dim != Z2.dim:
        raise ValueError(f"cannot sum sets of dimensions {Z1.dim} and {Z2.dim}")
    return ConZono(
        hcat(Z1.G, Z2.G),
        Z1.c + Z2.c,
        blkdiag(Z1.A, Z2.A),
        np.concatenate([Z1.b, Z2.b]),
    )


def cartesian_product(Z1: ConZono, Z2: ConZono) -> ConZono:
    """Z1 x Z2 with block-diagonal generators and constraints."""
    return ConZono(
        blkdiag(Z1.G, Z2.G),
        np.concatenate([Z1.c, Z2.c]),
        blkdiag(Z1.A, Z2.A),
        np.concatenate([Z1.b, Z2.b]),
    )


def generalized_intersection(Z1: ConZono, Z2: ConZono, R=None) -> ConZono:
    """Points of Z1 whose image under R lies in Z2 (plain intersection: R = I).

    Result: <[G1 0], c1, [[A1 0]; [0 A2]; [R G1, -G2]], [b1; b2; c2 - R c1]>.
    """
    if R is None:
        RG1, Rc1, n_rows = Z1.G, Z1.c, Z1.dim
    else:
        R = R if isinstance(R, SparseMat) else SparseMat(R)
        if R.n_cols != Z1.dim:
            raise ValueError(f"map with {R.n_cols} columns cannot act on a set of dimension {Z1.dim}")
        RG1, Rc1, n_rows = R._m @ Z1.G._m, R.matvec(Z1.c), R.n_rows
    if n_rows != Z2.dim:
        raise ValueError(f"map with {n_rows} rows does not land in a set of dimension {Z2.dim}")
    n_g, n_c = Z1.n_g + Z2.n_g, Z1.n_c + Z2.n_c
    G = SparseMat.from_blocks([(0, 0, Z1.G)], (Z1.dim, n_g))
    rows, cols, vals = block_triplets([(0, 0, Z1.A), (Z1.n_c, Z1.n_g, Z2.A),
                                       (n_c, 0, RG1), (n_c, Z1.n_g, Z2.G)])
    vals[len(vals) - Z2.G.nnz:] *= -1.0
    A = SparseMat.from_triplets(rows, cols, vals, (n_c + n_rows, n_g))
    return ConZono(G, Z1.c, A, np.concatenate([Z1.b, Z2.b, Z2.c - Rc1]))


def intersection(Z1: ConZono, Z2: ConZono) -> ConZono:
    return generalized_intersection(Z1, Z2)


def interval_to_zono(box: IntervalBox) -> ConZono:
    """Axis-aligned box as a zonotope; zero-width components keep an
    explicit zero generator column so the generator count is predictable."""
    half = box.half_width
    return ConZono(SparseMat(np.diag(half), shape=(len(box), len(box))), box.mid)


def make_regular_polygon(m, inradius, center=(0.0, 0.0)) -> ConZono:
    """Centrally symmetric regular m-gon (m even) as a planar zonotope.

    The polygon has m vertices and inscribed-circle radius ``inradius``,
    which must be finite and nonnegative (zero gives the point
    ``center``); the m/2 generators are successive half edge vectors,
    the first aligned with the +x axis.
    """
    m = operator.index(m)
    if m < 4 or m % 2 != 0:
        raise ValueError(f"a centrally symmetric polygon needs an even vertex count >= 4, got {m}")
    inradius = float(inradius)
    if not 0.0 <= inradius < np.inf:
        raise ValueError(f"inradius must be finite and nonnegative, got {inradius}")
    half_edge = inradius * np.tan(np.pi / m)
    k = np.arange(m // 2)
    angles = 2.0 * np.pi * k / m
    G = np.vstack([half_edge * np.cos(angles), half_edge * np.sin(angles)])
    return ConZono(SparseMat(G), np.asarray(center, dtype=float))


def zonotope_support(Z: ConZono, d):
    """Closed-form support of a zonotope: d^T c + ||G^T d||_1.

    Only valid when the set has no constraint rows.
    """
    if Z.n_c != 0:
        raise ValueError("closed-form support applies to zonotopes only")
    d = np.asarray(d, dtype=float)
    return float(d @ Z.c + np.sum(np.abs(Z.G.rmatvec(d))))


def rotation_matrix(theta):
    ct, st = np.cos(theta), np.sin(theta)
    return SparseMat(np.array([[ct, -st], [st, ct]]))


def rotation_uncertainty_zono(theta_meas, e_theta, body_box: IntervalBox) -> ConZono:
    """Planar body-frame box mapped to the world frame under uncertain heading.

    Rotates the box by the measured heading and adds an interval-derived
    error set covering every heading within +/- e_theta of the
    measurement, so the result contains the rotated box for any true
    heading in that range.
    """
    if e_theta < 0:
        raise ValueError(f"heading uncertainty must be nonnegative, got {e_theta}")
    if len(body_box) != 2:
        raise ValueError(f"body-frame box must be planar, got length {len(body_box)}")

    theta_iv = Interval(theta_meas - e_theta, theta_meas + e_theta)
    e_cos = _cos_range(theta_iv) - np.cos(theta_meas)
    e_sin = _sin_range(theta_iv) - np.sin(theta_meas)

    ex, ey = body_box[0], body_box[1]
    err_box = IntervalBox([
        e_cos * ex - e_sin * ey,
        e_sin * ex + e_cos * ey,
    ])

    rotated = affine_map(rotation_matrix(theta_meas), interval_to_zono(body_box))
    return minkowski_sum(rotated, interval_to_zono(err_box))


def _cos_range(iv: Interval) -> Interval:
    """Range of cos over a closed interval."""
    if iv.width >= 2.0 * np.pi:
        return Interval(-1.0, 1.0)
    candidates = [np.cos(iv.lo), np.cos(iv.hi)]
    # interior extrema at multiples of pi
    k_lo = int(np.ceil(iv.lo / np.pi))
    k_hi = int(np.floor(iv.hi / np.pi))
    for k in range(k_lo, k_hi + 1):
        candidates.append(1.0 if k % 2 == 0 else -1.0)
    return Interval(float(min(candidates)), float(max(candidates)))


def _sin_range(iv: Interval) -> Interval:
    """Range of sin over a closed interval."""
    if iv.width >= 2.0 * np.pi:
        return Interval(-1.0, 1.0)
    candidates = [np.sin(iv.lo), np.sin(iv.hi)]
    # interior extrema at pi/2 + k*pi
    k_lo = int(np.ceil((iv.lo - np.pi / 2.0) / np.pi))
    k_hi = int(np.floor((iv.hi - np.pi / 2.0) / np.pi))
    for k in range(k_lo, k_hi + 1):
        candidates.append(1.0 if k % 2 == 0 else -1.0)
    return Interval(float(min(candidates)), float(max(candidates)))
