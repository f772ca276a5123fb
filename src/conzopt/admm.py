"""Operator-splitting solver for convex QPs over constrained zonotopes.

The problem min 1/2 x^T P x + q^T x over x in Z is reduced to the factor
space of Z, where the feasible set is the intersection of an affine set
(the constraint rows) with the unit box. The splitting alternates an
equality-constrained quadratic solve against a box clamp; because the
factors are normalized to [-1, 1], no preconditioning is applied.

Emptiness of the affine/box intersection is certified by one check,
shared by the iteration loop and ``infeasibility_check``: one solve with
the saddle factor, the only factorization a problem needs, maps the
iterate gap zeta - xi to its H-weighted projection v onto the row space
of the constraints (H = P~ + rho I; the Euclidean projection when
P~ = sigma I). v separates the two sets when its inner product with the
affine point xi falls strictly outside [-||v||_1, ||v||_1], its range
over the box. The test compares floating-point values as computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .intervals import IntervalBox
from .sets import ConZono, generalized_intersection, point_set
from .sparse import (
    RankDeficiencyError,
    SparseMat,
    _add,
    _check_finite,
    _count,
    _diagonal,
    _matmul,
    _matrix,
    _place,
    _rows,
    _transpose,
    _vector,
    ldlt_factorize,
    ldlt_solve,
)


class EmptySetError(RuntimeError):
    """An operation that requires a nonempty set received an empty one."""


class IndeterminateResultError(RuntimeError):
    """Iteration limit reached before convergence or a certificate."""


@dataclass(frozen=True)
class AdmmSettings:
    """Penalty, stopping tolerances, and certificate cadence.

    rho is read only when a problem is reduced: it is built into the
    saddle factor, and every solve with that factor iterates with it.
    norm selects the stopping test: "l2" compares residual two-norms
    against sqrt(n) * eps, "inf" compares max-norms against eps.
    """

    rho: float = 1.0
    eps_primal: float = 0.01
    eps_dual: float = 0.01
    k_inf: int = 10
    max_iter: int = 5000
    norm: str = "l2"

    def __post_init__(self):
        for name in ("rho", "eps_primal", "eps_dual"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")
        for name in ("k_inf", "max_iter"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        if self.norm not in ("l2", "inf"):
            raise ValueError(f"unknown norm {self.norm!r}")


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 x^T P x + q^T x subject to x in Z; P (symmetric) and q must be finite."""

    P: SparseMat
    q: np.ndarray
    Z: ConZono

    def __post_init__(self):
        n = self.Z.dim
        object.__setattr__(self, "P", _matrix(self.P, "P", (n, n), symmetric=True))
        object.__setattr__(self, "q", _vector(self.q, n, "q"))


class ReducedQp:
    """Factor-space problem data with its one factorization.

    Holds q~ = G^T (P c + q) and the quasi-definite saddle matrix
    M = [[H, A^T], [A, 0]] with its factorization, which both the
    iterations and the certificate projection solve with; ``h`` is the CSC
    arrays of M's leading block H = P~ + rho I, P~ = G^T P G. The factor's
    pivots must have the saddle's signs: n_G positive, then n_C negative.
    A pivot below ``ldlt_factorize``'s threshold or of the wrong sign raises
    RankDeficiencyError: among the first n_G, H is not positive definite
    (the cost is not convex, or rho is too small for it); after them, A is
    not full row rank. Immutable and shareable across solves.
    """

    __slots__ = ("Z", "rho", "q_tilde", "M", "factor_m")

    def __init__(self, Z, rho, q_tilde, h):
        n_g, n_c = Z.n_g, Z.n_c
        M = _place([(0, 0, h), (n_g, 0, Z.A), (0, n_g, _transpose(Z.A._m))], (n_g + n_c,) * 2)
        try:
            factor_m = ldlt_factorize(M)
        except RankDeficiencyError as err:
            if err.pivot_index >= n_g:
                raise
            raise _not_convex(err.pivot_index, err.pivot_value) from None
        D = factor_m.D
        wrong = np.flatnonzero((D > 0.0) != (np.arange(len(D)) < n_g))
        if len(wrong):
            k = int(wrong[0])
            raise _not_convex(k, D[k]) if k < n_g else RankDeficiencyError(k, float(D[k]))
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "q_tilde", q_tilde)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "factor_m", factor_m)

    def __setattr__(self, name, value):
        raise AttributeError("ReducedQp is immutable")

    @property
    def n_g(self):
        return self.Z.n_g

    @property
    def n_c(self):
        return self.Z.n_c


def _not_convex(k, pivot):
    return RankDeficiencyError(k, float(pivot), (
        f"pivot {pivot:.3e} at index {k} of the leading block: P~ + rho I is not positive "
        "definite, so the cost is not convex (or rho is too small for it)"))


def reduce_qp(problem: QpProblem, settings: AdmmSettings = AdmmSettings()) -> ReducedQp:
    """Project the QP onto the factor space of its feasible set.

    P~ = G^T P G stays the arrays of its product; ``_add`` adds rho I to them."""
    Z = problem.Z
    # P G canonical (sorted indices, no explicit zeros) fixes the order
    # in which G^T (P G) sums each entry
    p_tilde = _matmul(_transpose(Z.G._m), _matmul(problem.P._m, Z.G._m))
    q_tilde = Z.G.rmatvec(problem.P.matvec(Z.c) + problem.q)
    return ReducedQp(Z, settings.rho, q_tilde, _add(p_tilde, _diagonal(Z.n_g, float(settings.rho))))


def reduce_feasibility(Z: ConZono, settings: AdmmSettings = AdmmSettings()) -> ReducedQp:
    """Factor-space problem with identity quadratic cost and zero linear cost.

    Used for emptiness verification: the strongly convex surrogate
    objective guarantees the iterate difference converges onto a
    certificate whenever the set is empty.
    """
    return ReducedQp(Z, settings.rho, np.zeros(Z.n_g), _diagonal(Z.n_g, 1.0 + float(settings.rho)))


@dataclass
class AdmmResult:
    """Outcome of one solve: iterates, status, and residual history."""

    status: str
    x_star: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    u: np.ndarray
    iterations: int
    certificate: np.ndarray | None = None
    residuals: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))


def _residual_norms(rp, rd, norm):
    if norm == "inf":
        return (
            np.max(np.abs(rp), axis=0) if rp.size else np.zeros(rp.shape[1]),
            np.max(np.abs(rd), axis=0) if rd.size else np.zeros(rd.shape[1]),
        )
    return (
        np.sqrt(np.einsum("ij,ij->j", rp, rp)),
        np.sqrt(np.einsum("ij,ij->j", rd, rd)),
    )


def _thresholds(n_g, settings):
    if settings.norm == "inf":
        return settings.eps_primal, settings.eps_dual
    scale = math.sqrt(max(n_g, 1))
    return scale * settings.eps_primal, scale * settings.eps_dual


def _iterate_batch(reduced: ReducedQp, q_tilde_cols, settings: AdmmSettings, warm=None):
    """Run the splitting iterations on linear costs, one per column of an n_G-row array.

    All columns share the saddle factorization and the constraint rhs;
    each column carries its own iterates. A column leaves the batch at the
    iteration where it converges or is certified infeasible, and its result
    is built there; columns still running at max_iter end with
    "iteration-limit". Every step treats each column on its own, so results
    equal running the columns one at a time.
    """
    n_g, n_c = reduced.n_g, reduced.n_c
    q_cols = np.asarray(q_tilde_cols, dtype=float)
    m = q_cols.shape[1]
    rho, norm = reduced.rho, settings.norm
    k_inf = settings.k_inf if n_c > 0 else 0    # 0: no constraint rows, so no certificate check

    if warm is None:
        xi = zeta = u = np.zeros((n_g, m))  # each iteration replaces them; none is written in place
    else:
        xi, zeta, u = (np.array(np.broadcast_to(w.reshape(n_g, -1), (n_g, m))) for w in warm)

    neg_q = -q_cols
    rhs = np.empty((n_g + n_c, m))
    rhs[n_g:] = reduced.Z.b[:, None]
    eps_p, eps_d = _thresholds(n_g, settings)
    G, c = reduced.Z.G, reduced.Z.c

    cols = np.arange(m)  # batch index of each running column
    history = np.empty((0, 2, m))  # primal and dual residual norms per iteration
    results = [None] * m

    def leave(i, status, certificate=None):
        # column i of the running batch stops at iteration k
        results[cols[i]] = AdmmResult(
            status=status,
            x_star=G.matvec(zeta[:, i]) + c,
            xi=xi[:, i].copy(),
            zeta=zeta[:, i].copy(),
            u=u[:, i].copy(),
            iterations=k + 1,
            certificate=certificate,
            residuals=history[:k + 1, :, i].copy(),
        )

    for k in range(settings.max_iter):
        np.add(neg_q, rho * (zeta - u), out=rhs[:n_g])
        xi = ldlt_solve(reduced.factor_m, rhs)[:n_g]
        zeta_prev = zeta
        zeta = np.minimum(np.maximum(xi + u, -1.0), 1.0)    # the clip to the unit box
        u = u + xi - zeta

        if k_inf and k % k_inf == 0:
            v, infeasible = _separation(reduced, xi, zeta)
        else:
            infeasible = np.zeros(len(cols), dtype=bool)

        if k == len(history):
            history = np.concatenate([history, np.empty((k + 1, 2, len(cols)))])
        history[k] = _residual_norms(xi - zeta, rho * (zeta - zeta_prev), norm)
        converged = (history[k, 0] < eps_p) & (history[k, 1] < eps_d)
        done = converged | infeasible
        if not done.any():
            continue
        for i in infeasible.nonzero()[0]:
            leave(i, "infeasible", v[:, i].copy())
        for i in (converged & ~infeasible).nonzero()[0]:
            leave(i, "converged")
        if done.all():
            break
        keep = ~done
        cols, neg_q, rhs = cols[keep], neg_q[:, keep], rhs[:, keep]
        xi, zeta, u, history = xi[:, keep], zeta[:, keep], u[:, keep], history[:, :, keep]
    else:
        for i in range(len(cols)):
            leave(i, "iteration-limit")
    return results


def admm_solve(reduced: ReducedQp, settings: AdmmSettings = AdmmSettings(),
               q_tilde=None, warm=None) -> AdmmResult:
    """Solve the reduced problem; optionally override the linear cost.

    The penalty is the one the problem was reduced with (reduced.rho);
    settings supplies the tolerances, certificate cadence and iteration
    limit. warm seeds the (xi, zeta, u) iterates from a previous result
    so repeated solves against the same factorization can resume.
    A non-finite linear cost raises ValueError.
    """
    q = reduced.q_tilde if q_tilde is None else _vector(q_tilde, reduced.n_g, "q_tilde")
    return _iterate_batch(reduced, q.reshape(-1, 1), settings, warm=warm)[0]


def _separation(reduced: ReducedQp, xi, zeta):
    """The certificate check on a batch of iterate pairs (one per column).

    One solve M [x; y] = [zeta - xi; 0] gives v = A^T y = zeta - xi - H x
    with A x = 0: the H-weighted projection of zeta - xi onto the
    constraint row space (the Euclidean one when H is a multiple of I).
    Returns v and, per column, whether v . xi (xi satisfies the constraint
    rows) lies strictly outside [-||v||_1, ||v||_1], the range of v over
    the unit box.
    """
    rhs = np.zeros((reduced.n_g + reduced.n_c, xi.shape[1]))
    np.subtract(zeta, xi, out=rhs[:reduced.n_g])
    v = reduced.Z.A.rmatvec(ldlt_solve(reduced.factor_m, rhs)[reduced.n_g:])
    vals = np.einsum("ij,ij->j", v, xi)
    radius = np.abs(v).sum(axis=0)
    return v, (vals < -radius) | (vals > radius)


def infeasibility_check(reduced: ReducedQp, xi, zeta):
    """Emptiness certificate from one iterate pair, or None.

    Runs the solver's certificate check on the single column (xi, zeta)
    and returns the separating projection when it fires.
    """
    v, outside = _separation(reduced, _vector(xi, reduced.n_g, "xi").reshape(-1, 1),
                             _vector(zeta, reduced.n_g, "zeta").reshape(-1, 1))
    return v[:, 0] if outside[0] else None


def _without_empty_rows(Z: ConZono):
    """Z without its constraint rows that store no entry, or None when one proves Z empty.

    Such a row reads 0 = b_i: a nonzero b_i makes Z empty, exactly and
    without a factorization, and a zero one constrains nothing.
    """
    empty = np.bincount(Z.A._m.indices, minlength=Z.n_c) == 0
    if not empty.any():
        return Z
    if np.any(Z.b[empty] != 0.0):
        return None
    return ConZono._of_checked(Z.G, Z.c, SparseMat(_rows(Z.A._m, ~empty)), Z.b[~empty])


def check_empty(Z: ConZono, settings: AdmmSettings = AdmmSettings()) -> AdmmResult:
    """Run the feasibility-mode iterations on Z and report the outcome.

    status "infeasible" means Z is empty; "converged" means a feasible
    point was found. A constraint row with no stored entry reads 0 = b_i:
    if any such b_i is nonzero, Z is empty and the result is "infeasible"
    at 0 iterations with no certificate; otherwise those rows are dropped,
    and a set with no row left is "converged" at 0 iterations. Any other
    "infeasible" carries the solver's certificate. Dependent rows among
    the rest, which ``generalized_intersection`` makes from dependent
    generator rows, raise RankDeficiencyError.
    """
    kept = _without_empty_rows(Z)
    if kept is None or kept.n_c == 0:
        return AdmmResult(
            status="infeasible" if kept is None else "converged",
            x_star=Z.c.copy(),
            xi=np.zeros(Z.n_g), zeta=np.zeros(Z.n_g), u=np.zeros(Z.n_g),
            iterations=0,
        )
    return admm_solve(reduce_feasibility(kept, settings), settings)


def is_empty(Z: ConZono, settings: AdmmSettings = AdmmSettings()) -> bool:
    """True iff an emptiness certificate is found.

    Raises IndeterminateResultError when the iteration limit is hit
    without either a certificate or convergence.
    """
    result = check_empty(Z, settings)
    if result.status == "infeasible":
        return True
    if result.status == "converged":
        return False
    raise IndeterminateResultError(
        f"no certificate or feasible point within {settings.max_iter} iterations"
    )


def contains_point(Z: ConZono, x, settings: AdmmSettings = AdmmSettings()) -> bool:
    """Point membership: x lies in Z iff Z intersected with {x} is nonempty.

    The intersection pins G xi = x - c with one constraint row per
    coordinate. A coordinate whose generator row stores no entry gives a
    row 0 = x_i - c_i, which ``check_empty`` decides exactly; dependent
    generator rows raise RankDeficiencyError. A point of the wrong length
    or with a non-finite coordinate raises ValueError.
    """
    return not is_empty(generalized_intersection(Z, point_set(_vector(x, Z.dim, "x"))), settings)


def support(Z: ConZono, d, settings: AdmmSettings = AdmmSettings()) -> float:
    """Support value max_{z in Z} <z, d> computed by the splitting solver."""
    return float(support_batch(Z, _vector(d, Z.dim, "d").reshape(-1, 1), settings)[0])


def reduce_support(Z: ConZono, settings: AdmmSettings = AdmmSettings()) -> ReducedQp:
    """Zero-cost reduced problem reusable for many support directions."""
    return ReducedQp(Z, settings.rho, np.zeros(Z.n_g), _diagonal(Z.n_g, float(settings.rho)))


def support_batch(Z: ConZono, directions, settings: AdmmSettings = AdmmSettings()):
    """Support values for directions given as the columns of a Z.dim-row array.

    All directions share one factorization of the zero-cost problem,
    reduced with settings.rho. Constraint rows with no stored entry follow
    ``check_empty``'s rule, and a nonzero rhs there raises EmptySetError.
    Raises ValueError when the array does not have Z.dim rows or holds a
    non-finite entry; rows are never read as directions.
    """
    D = np.asarray(directions, dtype=float)
    if D.ndim != 2 or D.shape[0] != Z.dim:
        raise ValueError(f"directions of shape {D.shape} do not match shape ({Z.dim}, m): "
                         "one direction per column")
    _check_finite("directions", D)
    kept = _without_empty_rows(Z)
    if kept is None:
        raise EmptySetError("support of an empty set")
    reduced = reduce_support(kept, settings)
    q_cols = -Z.G.rmatvec(D)
    results = _iterate_batch(reduced, q_cols, settings)
    values = np.empty(D.shape[1])
    for j, result in enumerate(results):
        if result.status == "infeasible":
            raise EmptySetError("support of an empty set")
        if result.status != "converged":
            raise IndeterminateResultError(
                f"support solve did not converge within {settings.max_iter} iterations"
            )
        values[j] = float(D[:, j] @ result.x_star)
    return values


def bounding_box(Z: ConZono, settings: AdmmSettings = AdmmSettings()) -> IntervalBox:
    """Axis-aligned interval enclosure from 2n support evaluations.

    All 2n solves share one factorization. Raises EmptySetError when an
    emptiness certificate fires.
    """
    n = Z.dim
    directions = np.hstack([np.eye(n), -np.eye(n)])
    values = support_batch(Z, directions, settings)
    upper = values[:n]
    lower = -values[n:]
    return IntervalBox(np.minimum(lower, upper), np.maximum(lower, upper))
