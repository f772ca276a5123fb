"""Independent reference computations used to check the library.

Everything here deliberately avoids the library's own solver paths:
supports and feasibility go through scipy's LP solver, factorizations
are recomputed densely (or, for the bits of L and D, by the earlier
scalar-at-a-time numeric pass), and the box-constrained QPs are solved
by exhaustive enumeration of active-face patterns.
"""

import itertools

import numpy as np
import scipy.optimize


def dense_ldlt(M):
    """Textbook dense LDL^T with 1x1 pivots in natural order."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    L = np.eye(n)
    D = np.zeros(n)
    work = M.copy()
    for k in range(n):
        D[k] = work[k, k]
        if D[k] == 0.0:
            raise ZeroDivisionError(f"zero pivot at {k}")
        L[k + 1:, k] = work[k + 1:, k] / D[k]
        work[k + 1:, k + 1:] -= np.outer(L[k + 1:, k], work[k, k + 1:])
        work[k + 1:, k] = 0.0
    return L, D


def ldlt_scalar_loop(m):
    """L and D of ``conzopt.sparse.ldlt_factorize`` by its earlier numeric pass, which
    reads and writes numpy arrays one scalar at a time; a reference for the bits of L and
    D. Takes a symmetric SparseMat and raises RankDeficiencyError on the same pivot."""
    from conzopt.sparse import (
        _PIVOT_REL_TOL, LdltFactor, RankDeficiencyError, SparseMat, _Csc, _index_dtype, _symbolic,
    )

    n = m.n_rows
    # the upper triangle: in each sorted column of M, the rows up to the diagonal
    Mp, Mi = m._m.indptr, m._m.indices
    col = np.repeat(np.arange(n), np.diff(Mp))
    upper = Mi <= col
    Ap = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col[upper], minlength=n), out=Ap[1:])
    Ai = Mi[upper].astype(np.int64, copy=False)
    Ax = m._m.data[upper]

    threshold = _PIVOT_REL_TOL * (m.max_abs() if m.nnz else 1.0)
    Lp, schedule, row_ptr = _symbolic(n, Ap, Ai)

    # L's arrays: each column's unit diagonal first, above the slots elimination fills
    Li = np.empty(Lp[-1], dtype=np.int64)
    Li[Lp[:-1]] = np.arange(n)
    Lx = np.ones(Lp[-1])
    D = np.zeros(n, dtype=float)
    y = np.zeros(n, dtype=float)
    lnz = np.zeros(n, dtype=np.int64)

    for k in range(n):
        for p in range(Ap[k], Ap[k + 1]):
            y[Ai[p]] += Ax[p]
        D[k] = y[k]
        y[k] = 0.0
        for i in schedule[row_ptr[k]:row_ptr[k + 1]].tolist():
            yi = y[i]
            y[i] = 0.0
            p0 = Lp[i] + 1
            p1 = p0 + lnz[i]
            if p1 > p0:
                idx = Li[p0:p1]
                y[idx] -= Lx[p0:p1] * yi
            l_ki = yi / D[i]
            D[k] -= l_ki * yi
            Li[p1] = k
            Lx[p1] = l_ki
            lnz[i] += 1
        if abs(D[k]) <= threshold:
            raise RankDeficiencyError(k, D[k])

    # scipy's index dtype (int64 above keeps the loop's fancy indexing fast); astype
    # copies, so the symbolic cache keeps its own Lp
    idx = _index_dtype(n, Lp[-1])
    return LdltFactor(SparseMat(_Csc(Lx, Li.astype(idx), Lp.astype(idx), (n, n))), D)


def lp_support(Z, d):
    """Support value by linear programming over the factor box."""
    d = np.asarray(d, dtype=float)
    g_t_d = Z.G.rmatvec(d)
    n_g = Z.n_g
    if n_g == 0:
        return float(d @ Z.c)
    res = scipy.optimize.linprog(
        c=-g_t_d,
        A_eq=Z.A.toarray() if Z.n_c else None,
        b_eq=Z.b if Z.n_c else None,
        bounds=[(-1.0, 1.0)] * n_g,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"support LP failed with status {res.status}")
    return float(d @ Z.c - res.fun)


def lp_is_empty(Z):
    """Feasibility of the factor system by linear programming."""
    if Z.n_g == 0:
        return bool(np.any(Z.b != 0.0))
    res = scipy.optimize.linprog(
        c=np.zeros(Z.n_g),
        A_eq=Z.A.toarray() if Z.n_c else None,
        b_eq=Z.b if Z.n_c else None,
        bounds=[(-1.0, 1.0)] * Z.n_g,
        method="highs",
    )
    if res.status == 2:
        return True
    if res.status == 0:
        return False
    raise RuntimeError(f"feasibility LP failed with status {res.status}")


def lp_contains(Z, x, tol=1e-9):
    """Point membership by feasibility LP on [A; G] xi = [b; x - c]."""
    x = np.asarray(x, dtype=float)
    A_eq = np.vstack([Z.A.toarray(), Z.G.toarray()])
    b_eq = np.concatenate([Z.b, x - Z.c])
    res = scipy.optimize.linprog(
        c=np.zeros(Z.n_g),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(-1.0, 1.0)] * Z.n_g,
        method="highs",
    )
    if res.status == 2:
        return False
    if res.status == 0:
        # guard against the solver accepting a slightly inconsistent system
        return bool(np.max(np.abs(A_eq @ res.x - b_eq)) <= 1e-6 + tol)
    raise RuntimeError(f"containment LP failed with status {res.status}")


def box_qp_oracle(p_tilde, q_tilde, A, b, tol=1e-9):
    """Global minimum of 1/2 xi' P xi + q' xi over A xi = b, xi in [-1,1]^n
    by enumerating every partition of the variables into free / clamped
    at -1 / clamped at +1 and solving the equality-constrained system.

    Returns (best_objective, best_xi, unique) where unique reports
    whether all optimal candidates coincide.
    """
    P = np.asarray(p_tilde, dtype=float)
    q = np.asarray(q_tilde, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, P.shape[0]) if np.size(A) else np.zeros((0, P.shape[0]))
    b = np.asarray(b, dtype=float).reshape(-1)
    n = P.shape[0]
    m = A.shape[0]

    def objective(xi):
        return 0.5 * xi @ P @ xi + q @ xi

    best = np.inf
    candidates = []
    indices = np.arange(n)
    for free_mask in itertools.product((False, True), repeat=n):
        free = indices[np.array(free_mask, dtype=bool)]
        clamped = indices[~np.array(free_mask, dtype=bool)]
        nf, nc = len(free), len(clamped)
        kkt = np.zeros((nf + m, nf + m))
        kkt[:nf, :nf] = P[np.ix_(free, free)]
        kkt[:nf, nf:] = A[:, free].T
        kkt[nf:, :nf] = A[:, free]
        if nc == 0:
            sign_patterns = [np.zeros(0)]
        else:
            sign_patterns = [np.array(sg, dtype=float)
                             for sg in itertools.product((-1.0, 1.0), repeat=nc)]
        rhs = np.zeros((nf + m, len(sign_patterns)))
        for j, signs in enumerate(sign_patterns):
            rhs[:nf, j] = -q[free] - P[np.ix_(free, clamped)] @ signs
            rhs[nf:, j] = b - A[:, clamped] @ signs
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        for j, signs in enumerate(sign_patterns):
            xi = np.zeros(n)
            xi[clamped] = signs
            xi[free] = sol[:nf, j]
            if np.any(np.abs(xi[free]) > 1.0 + 1e-8):
                continue
            if m and np.max(np.abs(A @ xi - b)) > 1e-7:
                continue
            # the KKT system must actually be satisfied (lstsq may return
            # a least-squares fit of an inconsistent system)
            if nf and np.max(np.abs(kkt @ sol[:, j] - rhs[:, j])) > 1e-7:
                continue
            val = objective(xi)
            candidates.append((val, xi))
            best = min(best, val)
    if not np.isfinite(best):
        return np.inf, None, False
    near = [xi for val, xi in candidates if val <= best + 1e-9]
    unique = all(np.max(np.abs(x - near[0])) <= 1e-6 for x in near)
    best_xi = min(candidates, key=lambda t: t[0])[1]
    return best, best_xi, unique


def certificate_is_valid(Z, v, span_tol=1e-8):
    """Independent certificate check: row-space membership and strict
    separation of the affine set from the factor box."""
    v = np.asarray(v, dtype=float)
    A = Z.A.toarray()
    # projection onto span(A^T) via dense least squares
    y, *_ = np.linalg.lstsq(A @ A.T, A @ v, rcond=None)
    residual = np.max(np.abs(v - A.T @ y)) if v.size else 0.0
    if residual > span_tol:
        return False
    xi_feas, *_ = np.linalg.lstsq(A, Z.b, rcond=None)
    if np.max(np.abs(A @ xi_feas - Z.b)) > 1e-8:
        return False
    value = v @ xi_feas
    radius = np.sum(np.abs(v))
    return bool(value < -radius or value > radius)


def random_zonotope(rng, n, n_g, scale=1.0):
    from conzopt import ConZono, SparseMat

    G = rng.normal(size=(n, n_g)) * scale
    c = rng.normal(size=n) * scale
    return ConZono(SparseMat(G), c)


def random_conzono(rng, n, n_g_each=None, shift_scale=0.3):
    """Nonempty constrained zonotope as an intersection of two random
    zonotopes with overlapping centers."""
    from conzopt import generalized_intersection

    n_g_each = n_g_each or n + 1
    Z1 = random_zonotope(rng, n, n_g_each)
    Z2 = random_zonotope(rng, n, n_g_each)
    Z2 = type(Z2)(Z2.G, Z1.c + shift_scale * rng.normal(size=n))
    return generalized_intersection(Z1, Z2)
