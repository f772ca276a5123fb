"""Constrained zonotopes and their closed-form set operations.

A constrained zonotope is the set { G xi + c : A xi = b, xi in [-1,1]^nG }.
With no constraint rows it reduces to a zonotope. All operations return
new sets; inputs are never mutated.

Every set is finite, checked where data enters: the public constructor
reads c and b by ``sparse._vector``'s rule and G and A by ``_matrix``'s,
and an operation builds its result through ``ConZono._of_checked`` after
scanning only the values it computed (a center, a product with a map, a
constraint right-hand side).
"""

from __future__ import annotations

import numpy as np

from .intervals import IntervalBox
from .sparse import SparseMat, _check_finite, _count, _matmul, _matrix, _place, _vector, blkdiag, hcat, multiply


class ConZono:
    """Constrained zonotope <G, c, A, b>.

    G: (n x nG) generator matrix, c: dense center, A: (nC x nG)
    constraint matrix, b: dense constraint vector, all finite. nC = 0
    means the set is a zonotope.
    """

    __slots__ = ("G", "c", "A", "b")

    def __init__(self, G, c, A=None, b=None):
        G = _matrix(G, "G")
        c = _vector(c, G.n_rows, "c")
        A = SparseMat.zeros(0, G.n_cols) if A is None else _matrix(A, "A", (None, G.n_cols))
        b = np.zeros(A.n_rows) if b is None else _vector(b, A.n_rows, "b")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @classmethod
    def _of_checked(cls, G, c, A, b):
        """The set <G, c, A, b> on parts a set operation built from checked sets.

        G and A are SparseMat, c and b float arrays, all of matching sizes
        and finite: the operation scans, with ``_check_finite``, only the
        values it computed. Nothing is converted, copied or checked here.
        """
        Z = object.__new__(cls)
        object.__setattr__(Z, "G", G)
        object.__setattr__(Z, "c", c)
        object.__setattr__(Z, "A", A)
        object.__setattr__(Z, "b", b)
        return Z

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
        return self.G.matvec(_vector(xi, self.n_g, "xi")) + self.c

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
        """The set ``to_json_dict`` wrote. A missing key, or a G or A that is not a list of
        [row, col, value] triplets, raises ValueError naming the key; a count that is not an
        integer raises TypeError."""
        missing = [key for key in ("n", "nG", "nC", "G", "c", "A", "b") if key not in d]
        if missing:
            raise ValueError(f"set JSON has no key {missing[0]!r}")

        def triplet_mat(key, shape):
            entries = d[key]
            if not isinstance(entries, (list, tuple)) or not all(
                    isinstance(e, (list, tuple)) and len(e) == 3 for e in entries):
                raise ValueError(f"{key} is not a list of [row, col, value] triplets")
            if not entries:
                return SparseMat.zeros(*shape)
            # indices go through unconverted: from_triplets rejects non-integral ones
            rows, cols, vals = zip(*((e[0], e[1], float(e[2])) for e in entries))
            return SparseMat.from_triplets(rows, cols, vals, shape)
        return cls(triplet_mat("G", (d["n"], d["nG"])), d["c"], triplet_mat("A", (d["nC"], d["nG"])), d["b"])


def point_set(x) -> ConZono:
    """Singleton {x} as a zero-generator constrained zonotope."""
    x = _vector(x, None, "x")
    return ConZono._of_checked(SparseMat.zeros(len(x), 0), x, SparseMat.zeros(0, 0), np.zeros(0))


def affine_map(R, Z: ConZono, s=None) -> ConZono:
    """R Z + s = <R G, R c + s, A, b>; the constraint block is unchanged."""
    R = _matrix(R, "R", (None, Z.dim))
    s = np.zeros(R.n_rows) if s is None else _vector(s, R.n_rows, "offset")
    G, c = multiply(R, Z.G), R.matvec(Z.c) + s
    _check_finite("G", G._m.data)
    _check_finite("c", c)
    return ConZono._of_checked(G, c, Z.A, Z.b)


def minkowski_sum(Z1: ConZono, Z2: ConZono) -> ConZono:
    """Z1 + Z2 = <[G1 G2], c1 + c2, blkdiag(A1, A2), [b1; b2]>."""
    if Z1.dim != Z2.dim:
        raise ValueError(f"cannot sum sets of dimensions {Z1.dim} and {Z2.dim}")
    c = Z1.c + Z2.c
    _check_finite("c", c)
    return ConZono._of_checked(hcat(Z1.G, Z2.G), c, blkdiag(Z1.A, Z2.A), np.concatenate([Z1.b, Z2.b]))


def cartesian_product(Z1: ConZono, Z2: ConZono) -> ConZono:
    """Z1 x Z2 with block-diagonal generators and constraints."""
    return ConZono._of_checked(blkdiag(Z1.G, Z2.G), np.concatenate([Z1.c, Z2.c]),
                               blkdiag(Z1.A, Z2.A), np.concatenate([Z1.b, Z2.b]))


def generalized_intersection(Z1: ConZono, Z2: ConZono, R=None) -> ConZono:
    """Points of Z1 whose image under R lies in Z2 (plain intersection: R = I).

    Result: <[G1 0], c1, [[A1 0]; [0 A2]; [R G1, -G2]], [b1; b2; c2 - R c1]>.
    """
    if R is None:
        if Z1.dim != Z2.dim:
            raise ValueError(f"cannot intersect sets of dimensions {Z1.dim} and {Z2.dim}")
        RG1, Rc1 = Z1.G, Z1.c
    else:
        R = _matrix(R, "R", (Z2.dim, Z1.dim))
        RG1, Rc1 = _matmul(R._m, Z1.G._m), R.matvec(Z1.c)
        _check_finite("A", RG1.data)
    n_g, n_c = Z1.n_g + Z2.n_g, Z1.n_c + Z2.n_c
    G = Z1.G if Z2.n_g == 0 else _place([(0, 0, Z1.G)], (Z1.dim, n_g))
    neg_G2 = Z2.G._m._replace(data=-Z2.G._m.data)
    A = _place([(0, 0, Z1.A), (Z1.n_c, Z1.n_g, Z2.A), (n_c, 0, RG1), (n_c, Z1.n_g, neg_G2)],
               (n_c + Z2.dim, n_g))
    rhs = Z2.c - Rc1
    _check_finite("b", rhs)
    return ConZono._of_checked(G, Z1.c, A, np.concatenate([Z1.b, Z2.b, rhs]))


def intersection(Z1: ConZono, Z2: ConZono) -> ConZono:
    return generalized_intersection(Z1, Z2)


def interval_to_zono(box: IntervalBox) -> ConZono:
    """Axis-aligned box as a zonotope; zero-width components keep an
    explicit zero generator column so the generator count is predictable."""
    half = box.half_width
    return ConZono(SparseMat(np.diag(half), shape=(len(box), len(box))), box.mid)


def make_regular_polygon(m, inradius, center=(0.0, 0.0)) -> ConZono:
    """Centrally symmetric regular m-gon (m even, at least 4) as a planar zonotope.

    The polygon has m vertices and inscribed-circle radius ``inradius``,
    which must be finite and nonnegative (zero gives the point
    ``center``); the m/2 generators are successive half edge vectors,
    the first aligned with the +x axis.
    """
    m = _count(m, "m", 4)
    if m % 2 != 0:
        raise ValueError(f"a centrally symmetric polygon needs an even vertex count, got {m}")
    inradius = float(inradius)
    if not 0.0 <= inradius < np.inf:
        raise ValueError(f"inradius must be finite and nonnegative, got {inradius}")
    half_edge = inradius * np.tan(np.pi / m)
    k = np.arange(m // 2)
    angles = 2.0 * np.pi * k / m
    G = np.vstack([half_edge * np.cos(angles), half_edge * np.sin(angles)])
    return ConZono(SparseMat(G), _vector(center, 2, "center"))


def zonotope_support(Z: ConZono, d):
    """Closed-form support of a zonotope: d^T c + ||G^T d||_1.

    Only valid when the set has no constraint rows; d must be a finite
    vector of the set's dimension (ValueError otherwise).
    """
    if Z.n_c != 0:
        raise ValueError("closed-form support applies to zonotopes only")
    d = _vector(d, Z.dim, "d")
    return float(d @ Z.c + np.sum(np.abs(Z.G.rmatvec(d))))


def rotation_matrix(theta):
    """The planar rotation by theta, which must be finite (ValueError otherwise)."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    ct, st = np.cos(theta), np.sin(theta)
    return SparseMat(np.array([[ct, -st], [st, ct]]))


def rotation_uncertainty_zono(theta_meas, e_theta, body_box: IntervalBox) -> ConZono:
    """Planar body-frame box mapped to the world frame under uncertain heading.

    Rotates the box by the measured heading and adds an interval-derived
    error set covering every heading within +/- e_theta of the
    measurement, so the result contains the rotated box for any true
    heading in that range; e_theta = inf allows any heading. A non-finite
    theta_meas, or an e_theta that is negative or NaN, raises ValueError.
    """
    if not np.isfinite(theta_meas):
        raise ValueError(f"measured heading theta_meas must be finite, got {theta_meas}")
    if not e_theta >= 0:
        raise ValueError(f"heading uncertainty e_theta must be nonnegative, got {e_theta}")
    if len(body_box) != 2:
        raise ValueError(f"body-frame box must be planar, got length {len(body_box)}")

    lo, hi = theta_meas - e_theta, theta_meas + e_theta
    cos_lo, cos_hi = _trig_range(np.cos, 0.0, lo, hi)
    sin_lo, sin_hi = _trig_range(np.sin, np.pi / 2.0, lo, hi)
    # Python floats: a 0 * inf product is NaN without a warning, and the box check raises on it
    c, s = float(np.cos(theta_meas)), float(np.sin(theta_meas))
    e_cos, e_sin = (cos_lo - c, cos_hi - c), (sin_lo - s, sin_hi - s)

    ex, ey = zip(body_box.lo.tolist(), body_box.hi.tolist())
    cx, sy, sx, cy = _product(e_cos, ex), _product(e_sin, ey), _product(e_sin, ex), _product(e_cos, ey)
    err_box = IntervalBox([cx[0] - sy[1], sx[0] + cy[0]], [cx[1] - sy[0], sx[1] + cy[1]])

    rotated = affine_map(rotation_matrix(theta_meas), interval_to_zono(body_box))
    return minkowski_sum(rotated, interval_to_zono(err_box))


def _trig_range(f, peak, lo, hi):
    """Range (min, max) of f over [lo, hi], for f = cos with peak 0 or f = sin with peak pi/2."""
    if hi - lo >= 2.0 * np.pi:
        return -1.0, 1.0
    candidates = [f(lo), f(hi)]
    # interior extrema at peak + k*pi: a maximum for even k, a minimum for odd k
    k_lo = int(np.ceil((lo - peak) / np.pi))
    k_hi = int(np.floor((hi - peak) / np.pi))
    for k in range(k_lo, k_hi + 1):
        candidates.append(1.0 if k % 2 == 0 else -1.0)
    return float(min(candidates)), float(max(candidates))


def _product(x, y):
    """Range (min, max) of a * b over a in [x[0], x[1]] and b in [y[0], y[1]]."""
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(products), max(products)
