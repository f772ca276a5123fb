"""Reachable-set recursions for discrete-time linear systems.

Three equivalent constructions of the N-step reachable set of
x+ = A x + B u with state domain set S and input domain set U:

- standard:   X_{k+1} = (A X_k + B U) with a plain intersection with S;
- graph:      a lifted input/output set Psi is built once, then each
              step intersects Psi with (X_k x U) and projects;
- sparse:     X_{k+1} = [0 0 I]((X_k x U x S) intersected through
              [A B -I] with {0}), which keeps the generator matrix
              constant-size and the constraint growth linear; ``unroll``
              applies this identity for every caller, builders included.

All methods return the same sets; they differ only in the sparsity and
size of the matrices representing them. Measurement-update recursions
for set-valued state estimation follow the same standard/sparse split.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sets import (
    ConZono,
    affine_map,
    cartesian_product,
    generalized_intersection,
    minkowski_sum,
)
from .sparse import SparseMat, blkdiag, block_triplets, hcat


@dataclass(frozen=True)
class LinearSystem:
    """x+ = A x + B u with state domain set S and input domain set U.

    C is an optional measurement map y = C x used by the estimation
    recursions.
    """

    A: SparseMat
    B: SparseMat
    S: ConZono
    U: ConZono
    C: SparseMat | None = None

    def __post_init__(self):
        A = self.A if isinstance(self.A, SparseMat) else SparseMat(self.A)
        B = self.B if isinstance(self.B, SparseMat) else SparseMat(self.B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if self.C is not None and not isinstance(self.C, SparseMat):
            object.__setattr__(self, "C", SparseMat(self.C))
        if A.n_rows != A.n_cols:
            raise ValueError(f"state matrix must be square, got {A.shape}")
        if B.n_rows != A.n_rows:
            raise ValueError(f"input matrix rows {B.n_rows} do not match state dimension {A.n_rows}")
        if self.S.dim != self.n_x:
            raise ValueError(f"state domain set has dimension {self.S.dim}, expected {self.n_x}")
        if self.U.dim != self.n_u:
            raise ValueError(f"input domain set has dimension {self.U.dim}, expected {self.n_u}")

    @property
    def n_x(self):
        return self.A.n_rows

    @property
    def n_u(self):
        return self.B.n_cols


def _check_x0(X0: ConZono, sys: LinearSystem):
    if X0.dim != sys.n_x:
        raise ValueError(f"initial set has dimension {X0.dim}, expected {sys.n_x}")


def _horizon(N) -> int:
    """N as an int: a float or a negative count raises instead of truncating."""
    N = operator.index(N)
    if N < 0:
        raise ValueError("horizon must be nonnegative")
    return N


def unroll(Z0: ConZono, F_x, F_m, steps) -> ConZono:
    """Unroll the sparse reachability identity over a horizon.

    Returns Z0 x M_1 x S_1 x ... x M_N x S_N restricted by the rows
    F_x x_{k-1} + F_m m_k - s_k = t_k, where x_0 is the last n_x
    coordinates of Z0, x_k = s_k for k >= 1, and ``steps`` is a sequence
    of (M_k, S_k, t_k). The constraint rows come in the order of the
    step-by-step composition: those of Z0, then per step those of M_k,
    of S_k and the pin rows. G and A are each one ``from_triplets`` of triplets placed
    by index arithmetic, with F_m G_M once per distinct M_k.G and all F_x x_G from one product.
    """
    n_x = F_x.shape[0]
    if Z0.dim < n_x:
        raise ValueError(f"cannot multiply {F_x.shape} by the last {n_x} coordinates "
                         f"of a set of dimension {Z0.dim}")
    if F_m.shape[0] != n_x:
        raise ValueError(f"maps of shapes {F_x.shape} and {F_m.shape} do not match")
    parts, b_parts = [Z0], [Z0.b]                 # the stacked sets; the rhs pieces
    A_blocks, neg_blocks, pin_at, fm_G = [(0, 0, Z0.A)], [], [], {}  # (row, col, block)s; F_m M.G by id
    pin_c = []                                    # per step (t, x_c, c_M, c_S) for the pin rhs
    n_rows, n_cols = Z0.n_c, Z0.n_g
    x_G, x_c, x_col = Z0.G._m[Z0.dim - n_x:], Z0.c[Z0.dim - n_x:], 0
    for M, S, t in steps:
        if (M.dim, S.dim, len(t)) != (F_m.shape[1], n_x, n_x):
            raise ValueError(f"step sets and target of dimensions {(M.dim, S.dim, len(t))} "
                             f"do not match {(F_m.shape[1], n_x, n_x)}")
        if id(M.G) not in fm_G:
            fm_G[id(M.G)] = F_m._m @ M.G._m
        s_col = n_cols + M.n_g
        pin_row = n_rows + M.n_c + S.n_c
        A_blocks += [(n_rows, n_cols, M.A), (n_rows + M.n_c, s_col, S.A),
                     (pin_row, n_cols, fm_G[id(M.G)])]
        neg_blocks.append((pin_row, s_col, S.G))
        pin_at.append((pin_row, x_col, x_G))
        b_parts += [M.b, S.b, None]
        pin_c.append((t, x_c, M.c, S.c))
        parts += [M, S]
        n_rows = pin_row + n_x
        n_cols = s_col + S.n_g
        x_G, x_c, x_col = S.G._m, S.c, s_col

    triplets = [block_triplets(A_blocks)]
    if pin_at:  # column block k of F_x [x_G_0 ... x_G_N-1] moves to step k's pin rows
        b_parts[3::3] = _pin_rhs(F_x, F_m, pin_c)
        rows, cols, vals = block_triplets(neg_blocks)
        triplets.append((rows, cols, -vals))
        pin_rows, x_cols, x_Gs = zip(*pin_at)
        n = [G.shape[1] for G in x_Gs]
        rows, cols, vals = block_triplets([(0, 0, F_x._m @ (x_Gs[0] if len(x_Gs) == 1 else sp.hstack(x_Gs)))])
        k = np.repeat(np.arange(len(n)), n)[cols]
        triplets.append((rows + np.array(pin_rows)[k], cols + (np.array(x_cols) - np.cumsum(n) + n)[k], vals))
    rows, cols, vals = (np.concatenate(a) for a in zip(*triplets))
    return ConZono(blkdiag(*[Z.G for Z in parts]), np.concatenate([Z.c for Z in parts]),
                   SparseMat.from_triplets(rows, cols, vals, (n_rows, n_cols)), np.concatenate(b_parts))


def _pin_rhs(F_x, F_m, pin_c):
    """t - [F_x F_m -I] [x_c; c_M; c_S] for each step's (t, x_c, c_M, c_S), as rows.

    Each row adds its terms in the order a CSC matrix-vector product of
    [F_x F_m -I] adds them: column by column, starting from zero.
    """
    rows, cols, vals = block_triplets([(0, 0, F_x), (0, F_x.shape[1], F_m)])   # in CSC order
    t, x_c, c_M, c_S = (np.array(v, dtype=float) for v in zip(*pin_c))
    y = np.zeros(t.shape)
    np.add.at(y, (np.arange(len(t))[:, None], rows), vals * np.hstack([x_c, c_M])[:, cols])
    return list(t - (y - c_S))


def _last_block(Z: ConZono, n) -> ConZono:
    """Projection of Z onto its last n coordinates."""
    return ConZono(SparseMat(Z.G._m[Z.dim - n:]), Z.c[Z.dim - n:].copy(), Z.A, Z.b)


def reach_standard(X0: ConZono, sys: LinearSystem, N):
    """Reachable sets X_0..X_N by the direct image/sum recursion."""
    _check_x0(X0, sys)
    sets = [X0]
    for _ in range(_horizon(N)):
        propagated = minkowski_sum(affine_map(sys.A, sets[-1]), affine_map(sys.B, sys.U))
        sets.append(generalized_intersection(propagated, sys.S))
    return sets


def _graph_set(sys: LinearSystem) -> ConZono:
    # lifted set pairing (x, u) in S x U with their image A x + B u in S
    n_x, n_u = sys.n_x, sys.n_u
    lift = SparseMat(
        np.vstack([
            np.hstack([np.eye(n_x), np.zeros((n_x, n_u))]),
            np.hstack([np.zeros((n_u, n_x)), np.eye(n_u)]),
            np.hstack([sys.A.toarray(), sys.B.toarray()]),
        ])
    )
    domain = cartesian_product(sys.S, sys.U)
    project_out = hcat(SparseMat.zeros(n_x, n_x), SparseMat.zeros(n_x, n_u), SparseMat.eye(n_x))
    return generalized_intersection(affine_map(lift, domain), sys.S, project_out)


def reach_graph(X0: ConZono, sys: LinearSystem, N):
    """Reachable sets via the graph-of-function recursion.

    The lifted set is built once; each step intersects it with
    (X_k x U) through the selector of its first two blocks and projects
    onto the image block.
    """
    _check_x0(X0, sys)
    n_x, n_u = sys.n_x, sys.n_u
    psi = _graph_set(sys)
    select_xu = hcat(SparseMat.eye(n_x + n_u), SparseMat.zeros(n_x + n_u, n_x))
    sets = [X0]
    for _ in range(_horizon(N)):
        lifted = generalized_intersection(psi, cartesian_product(sets[-1], sys.U), select_xu)
        sets.append(_last_block(lifted, n_x))
    return sets


def reach_sparse(X0: ConZono, sys: LinearSystem, N):
    """Reachable sets via the sparsity-promoting recursion.

    Each step is one ``unroll`` step of (X_k x U x S) pinned through
    [A B -I] against the origin, projected onto the S block; the iterate
    generator matrix is always [0 0 G_S].
    """
    _check_x0(X0, sys)
    sets = [X0]
    for _ in range(_horizon(N)):
        pinned = unroll(sets[-1], sys.A, sys.B, [(sys.U, sys.S, np.zeros(sys.n_x))])
        sets.append(_last_block(pinned, sys.n_x))
    return sets


def svse_step_standard(Xk: ConZono, sys: LinearSystem, W: ConZono, V: ConZono, u, y_next) -> ConZono:
    """One measurement-updated step of set-valued state estimation.

    ((A X_k + B u + W) intersected through C with (y - V)) then
    intersected with S.
    """
    if sys.C is None:
        raise ValueError("system has no measurement map")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y_next = np.atleast_1d(np.asarray(y_next, dtype=float))
    if W.dim != sys.n_x:
        raise ValueError(f"process noise set has dimension {W.dim}, expected {sys.n_x}")
    if sys.C.n_rows != y_next.shape[0]:
        raise ValueError(f"measurement of length {y_next.shape[0]} does not match map rows {sys.C.n_rows}")
    propagated = minkowski_sum(affine_map(sys.A, Xk, sys.B.matvec(u)), W)
    meas_set = affine_map(SparseMat.eye(V.dim, -1.0), V, y_next)
    fused = generalized_intersection(propagated, meas_set, sys.C)
    return generalized_intersection(fused, sys.S)


def svse_step_sparse(Xk: ConZono, sys: LinearSystem, W: ConZono, V: ConZono, u, y_next) -> ConZono:
    """High-sparsity form of the measurement-updated estimation step.

    [0 0 I]((X_k x W x (S intersected through C with (y - V))) pinned
    through [A I -I] against {-B u}); set-equal to the standard form.
    """
    if sys.C is None:
        raise ValueError("system has no measurement map")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    step = (W, _fused_domains(sys, V, [y_next])[0], -sys.B.matvec(u))
    pinned = unroll(Xk, sys.A, SparseMat.eye(sys.n_x), [step])
    return _last_block(pinned, sys.n_x)


def _fused_domains(sys: LinearSystem, V: ConZono, ys) -> list:
    """S intersected through C with (y - V) for each measurement y; the sets share G and A."""
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    for y in ys:
        if y.shape != V.c.shape:
            raise ValueError(f"measurement of length {y.shape[0]} does not match noise set dimension {V.dim}")
    D = generalized_intersection(sys.S, ConZono(-V.G, -V.c, V.A, V.b), sys.C)
    b_head, C_cS = D.b[:D.n_c - V.dim], sys.C.matvec(sys.S.c)
    return [ConZono(D.G, D.c, D.A, np.concatenate([b_head, (y - V.c) - C_cS])) for y in ys]


@dataclass(frozen=True)
class ComplexityPrediction:
    """Generator/constraint counts and structural nonzero bounds for X_N."""

    n_g: int
    n_c: int
    nnz_g_bound: int
    nnz_a_bound: int

    def __post_init__(self):
        for name in ("n_g", "n_c", "nnz_g_bound", "nnz_a_bound"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ReachDims:
    """Dimension and set-size counts that determine memory complexity."""

    n_x: int
    n_u: int
    n_g0: int
    n_c0: int
    n_gs: int
    n_cs: int
    n_gu: int
    n_cu: int

    @classmethod
    def of(cls, X0: ConZono, sys: LinearSystem):
        return cls(
            n_x=sys.n_x, n_u=sys.n_u,
            n_g0=X0.n_g, n_c0=X0.n_c,
            n_gs=sys.S.n_g, n_cs=sys.S.n_c,
            n_gu=sys.U.n_g, n_cu=sys.U.n_c,
        )


def predict_complexity(method, N, dims: ReachDims) -> ComplexityPrediction:
    """Closed-form counts and nonzero upper bounds for the N-step set.

    Generator/constraint counts are exact for all three methods. The
    nonzero fields bound the generator and constraint matrices of X_N
    under the assumption that all input matrices and every matrix
    product are fully dense; structural zero blocks are propagated
    exactly, so actual counts never exceed the bounds.
    """
    N = _horizon(N)
    d = dims
    if N == 0:
        return ComplexityPrediction(d.n_g0, d.n_c0, d.n_x * d.n_g0, d.n_c0 * d.n_g0)

    # N >= 1: G_{x,0} has n_g0 nonzero columns, each of the other N - 1 a per-method count
    if method == "standard":
        n_g = N * (d.n_gs + d.n_gu) + d.n_g0
        n_c = N * (d.n_cs + d.n_cu + d.n_x) + d.n_c0
        # nonzero generator columns of X_k: k n_gu + n_g0 (the S block stays zero)
        nnz_g = d.n_x * (N * d.n_gu + d.n_g0)
        # A G_{x,k} summed over k, then B G_u, -G_s and the A_s, A_u blocks per step
        nnz_a = (d.n_c0 * d.n_g0 + d.n_x * (d.n_gu * N * (N - 1) // 2 + N * d.n_g0)
                 + N * (d.n_x * (d.n_gu + d.n_gs) + d.n_cs * d.n_gs + d.n_cu * d.n_gu))
        return ComplexityPrediction(n_g, n_c, nnz_g, nnz_a)

    if method == "graph":
        n_g = 2 * N * (d.n_gs + d.n_gu) + d.n_g0
        # the lifted set contributes (2 n_cs + n_cu + n_x) rows per step and the
        # per-step intersection adds A_u plus (n_x + n_u) coupling rows
        n_c = N * (2 * d.n_cs + 2 * d.n_cu + 2 * d.n_x + d.n_u) + d.n_c0
        nnz_g = d.n_x * (d.n_gs + d.n_gu)
        nnz_psi_a = (
            2 * d.n_cs * d.n_gs + d.n_cu * d.n_gu
            + d.n_x * (2 * d.n_gs + d.n_gu)                 # [A G_s, B G_u, -G_s]
        )
        # per step: Psi, the A_u block, [G_s ..., -G_{x,k}] and [G_u ..., -G_u] rows
        nnz_a = (d.n_c0 * d.n_g0 + d.n_x * (d.n_g0 + (N - 1) * (d.n_gs + d.n_gu))
                 + N * (nnz_psi_a + d.n_cu * d.n_gu + d.n_x * d.n_gs + 2 * d.n_u * d.n_gu))
        return ComplexityPrediction(n_g, n_c, nnz_g, nnz_a)

    if method == "sparse":
        n_g = N * (d.n_gs + d.n_gu) + d.n_g0
        n_c = N * (d.n_cs + d.n_cu + d.n_x) + d.n_c0
        nnz_g = d.n_x * d.n_gs
        # A G_{x,k} over k, then B G_u, -G_s and the A_s, A_u blocks per step
        nnz_a = (d.n_c0 * d.n_g0 + d.n_x * (d.n_g0 + (N - 1) * d.n_gs)
                 + N * (d.n_x * (d.n_gu + d.n_gs) + d.n_cs * d.n_gs + d.n_cu * d.n_gu))
        return ComplexityPrediction(n_g, n_c, nnz_g, nnz_a)

    raise ValueError(f"unknown method {method!r}")


REACH_METHODS = {
    "standard": reach_standard,
    "graph": reach_graph,
    "sparse": reach_sparse,
}
