"""Minimal sparse linear-algebra kernel.

Compressed sparse-column matrices with strict nonzero accounting, the
handful of structural operations needed by the set calculus (products,
concatenation, block diagonals, block assembly), and an LDLT
factorization in natural order for symmetric quasi-definite systems.
Its back-solve is compiled: two SuperLU triangular solves with L.

``SparseMat`` is the one place a matrix is canonicalized: construction
makes at most one copy of its input and sums duplicates and drops
explicit zeros in place. Code inside the package composes the stored
scipy matrices (``SparseMat._m``, never mutated) and wraps only the
result, so each matrix it returns is built once.

Assembly writes CSC arrays directly, with no COO object in between:
``from_triplets`` orders validated (row, col, value) triplets by a
stable sort on (column, row) and takes the column pointers from the
per-column counts (counting assembly, as in CSparse's ``cs_compress``);
``from_blocks``, ``hcat``, ``vcat`` and ``blkdiag`` place every block's
CSC arrays by index arithmetic, leaving out blocks with no entries, and
go through it, and a dense input is read off its nonzero pattern in
column order. Arrays built this way, and those of ``zeros``, ``eye`` and
the factor L, reach the constructor as a ``_Csc``: it takes them as its
own, with neither a copy nor scipy's validating constructor, which
would only check them again.

``ldlt_factorize`` reads the upper triangle off the sorted columns of M
and writes L's unit diagonal into the factor's arrays, and
``is_symmetric`` compares M's arrays with those of M^T in place when
the two patterns agree, so a factorization builds no matrix besides L.
"""

from __future__ import annotations

import operator
import threading
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class RankDeficiencyError(ValueError):
    """Raised when a pivot falls below the rank-deficiency threshold."""

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"rank-deficient matrix: |pivot| = {abs(pivot_value):.3e} at "
            f"index {pivot_index} is below threshold; the constraint rows "
            "are not full row rank (redundant constraints can be removed)"
        )


class SparseMat:
    """Immutable CSC matrix with no explicitly stored zeros.

    nnz counts structural nonzeros only: construction sums duplicate
    entries and prunes explicit zeros, so counts are deterministic
    regardless of how the matrix was assembled.
    """

    __slots__ = ("_m",)

    def __init__(self, data, shape=None):
        if isinstance(data, SparseMat):
            m = data._m
        else:
            # the one copy: a float CSC matrix is copied, any other input is converted,
            # and arrays built for this matrix (a _Csc) are taken as they are
            if type(data) is _Csc:
                m = _csc(*data)
            elif not sp.issparse(data):
                data = np.atleast_2d(np.asarray(data, dtype=float))
                if shape is not None and data.size == 0:
                    data = data.reshape(shape)
                m = _csc(*_dense_csc(data))
            elif type(data) is sp.csc_matrix and data.dtype == np.float64:
                # fresh arrays of a valid CSC matrix: scipy's constructor would only check them again
                nnz = data.indptr[-1]
                m = _csc(data.data[:nnz].copy(), data.indices[:nnz].copy(), data.indptr.copy(), data.shape)
            else:
                m = sp.csc_matrix(data, dtype=float, copy=True)
            m.sum_duplicates()
            if not m.data.all():
                m.eliminate_zeros()
        if shape is not None and m.shape != tuple(shape):
            raise ValueError(f"data of shape {m.shape} does not match requested shape {tuple(shape)}")
        object.__setattr__(self, "_m", m)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    @classmethod
    def zeros(cls, n_rows, n_cols):
        n_rows, n_cols = _shape((n_rows, n_cols))
        idx = _index_dtype(n_rows, n_cols)
        return cls(_Csc(np.zeros(0), np.zeros(0, dtype=idx), np.zeros(n_cols + 1, dtype=idx), (n_rows, n_cols)))

    @classmethod
    def eye(cls, n, scale=1.0):
        (n,) = _shape((n,))
        diag = np.arange(n + 1, dtype=_index_dtype(n))
        return cls(_Csc(np.full(n, float(scale)), diag[:-1].copy(), diag, (n, n)))

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape):
        """Matrix of the given shape with vals[k] at (rows[k], cols[k]).

        Counting assembly: one stable sort on (column, row) puts the
        entries in CSC order and the column pointers are the cumulative
        per-column counts, so the CSC arrays are written directly and
        handed to the constructor, which sums duplicates in the order
        given and drops zeros. Indices must be integral (integer arrays,
        or floats with integral values) and inside the shape; anything
        else raises ValueError.
        """
        n_rows, n_cols = shape = _shape(shape)
        rows, cols = _index_array(rows, n_rows, "row"), _index_array(cols, n_cols, "column")
        vals = np.asarray(vals, dtype=float)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
            raise ValueError(f"triplet arrays of shapes {rows.shape}, {cols.shape} and {vals.shape} "
                             "are not one-dimensional of one length")
        order = np.argsort(cols * n_rows + rows, kind="stable")
        idx = _index_dtype(n_rows, n_cols, len(vals))
        indptr = np.zeros(n_cols + 1, dtype=idx)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
        return cls(_Csc(vals[order], rows[order].astype(idx, copy=False), indptr, shape))

    @classmethod
    def from_blocks(cls, blocks, shape):
        """Matrix of the given shape holding each (row, col, block) at that
        offset: ``from_triplets`` on the ``block_triplets`` of the blocks;
        blocks may be SparseMat or scipy matrices, and an empty list, or
        one of empty blocks only, gives the zero matrix."""
        rows, cols, vals = block_triplets(blocks)
        return cls.from_triplets(rows, cols, vals, shape) if len(vals) else cls.zeros(*shape)

    @property
    def shape(self):
        return self._m.shape

    @property
    def n_rows(self):
        return self._m.shape[0]

    @property
    def n_cols(self):
        return self._m.shape[1]

    @property
    def nnz(self):
        return int(self._m.nnz)

    def tocsc(self):
        """Copy of the underlying scipy CSC matrix."""
        return self._m.copy()

    def toarray(self):
        return self._m.toarray()

    def triplets(self):
        """(row, col, value) triplets in column-major order."""
        coo = self._m.tocoo()
        order = np.lexsort((coo.row, coo.col))
        return [(int(coo.row[i]), int(coo.col[i]), float(coo.data[i])) for i in order]

    @property
    def T(self):
        return SparseMat(self._m.T)

    def __neg__(self):
        return SparseMat(-self._m)

    def __matmul__(self, other):
        return multiply(self, other)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"cannot multiply {self.shape} by vector of length {x.shape[0]}")
        return self._m @ x

    def rmatvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_rows:
            raise ValueError(f"cannot multiply transpose of {self.shape} by vector of length {x.shape[0]}")
        # A's CSC arrays are A^T's CSR arrays; entry j sums column j of A in stored order
        m = self._m
        return _csc(m.data, m.indices, m.indptr, m.shape[::-1], sp.csr_matrix) @ x

    def max_abs(self):
        return float(np.max(np.abs(self._m.data))) if self.nnz else 0.0

    def is_symmetric(self):
        """Whether max|M - M^T| <= 1e-12 (1 + max|M|).

        When the pattern is symmetric, M^T's CSC arrays (those of M in CSR)
        line up with M's, so the entries are compared in place; M - M^T is
        formed only for an asymmetric pattern.
        """
        if self.n_rows != self.n_cols:
            return False
        m, t = self._m, self._m.tocsr()
        if np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices):
            gap = np.abs(m.data - t.data)
        else:
            gap = np.abs((m - m.T).data)
        return not gap.size or float(gap.max()) <= 1e-12 * (1.0 + self.max_abs())

    def __repr__(self):
        return f"SparseMat(shape={self.shape}, nnz={self.nnz})"


def multiply(a: SparseMat, b):
    """Matrix product; entries cancelled to exactly zero are dropped.

    Accepts a dense vector/matrix on the right, in which case a dense
    result is returned.
    """
    if isinstance(b, SparseMat):
        if a.n_cols != b.n_rows:
            raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
        return SparseMat(a._m @ b._m)
    return a.matvec(b)


def block_triplets(blocks):
    """(rows, cols, vals) of (row, col, block) triplets: column j of a block at (r, c)
    becomes column c + j, its rows shifted by r; non-CSC blocks are converted first
    and blocks with no stored entries are left out."""
    placed = [(r, c, m._m if isinstance(m, SparseMat) else m if m.format == "csc" else m.tocsc())
              for r, c, m in blocks]
    placed = [b for b in placed if b[2].indptr[-1]]
    if not placed:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    r, c, mats = zip(*placed)
    ptrs = [m.indptr for m in mats]
    slots, nnz = [len(p) for p in ptrs], [int(p[-1]) for p in ptrs]
    first_slot, first_entry = accumulate(slots[:-1], initial=0), accumulate(nnz[:-1], initial=0)
    # the indptrs end to end, each shifted by the entries before it: a block's last
    # slot equals the next block's first, so no entry falls between blocks
    ptr = np.concatenate(ptrs) + np.repeat(list(first_entry), slots)
    slot_col = np.repeat([cb - s for cb, s in zip(c, first_slot)], slots) + np.arange(len(ptr))
    return (np.concatenate([m.indices for m in mats]) + np.repeat(r, nnz),
            np.repeat(slot_col[:-1], np.diff(ptr)),
            np.concatenate([m.data for m in mats]))


class _Csc(NamedTuple):
    """CSC arrays built for one new matrix, which takes them without a copy or a check:
    ``indptr`` runs from 0 to ``len(indices)``, every index lies inside ``shape``,
    and no other object holds the arrays. Duplicates and zeros may remain."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


# what scipy's constructor sets on a CSC or CSR matrix besides its arrays and shape, read
# off a checked one; its cached format flags are left out, so each matrix finds its own
_ATTRS = {cls: {k: v for k, v in vars(cls((0, 0))).items()
                if k not in ("data", "indices", "indptr", "_shape") and not k.startswith("_has_")}
          for cls in (sp.csc_matrix, sp.csr_matrix)}


def _csc(data, indices, indptr, shape, cls=sp.csc_matrix):
    """scipy CSC (or CSR) matrix on the given arrays, made without scipy's validating constructor."""
    m = cls.__new__(cls)
    vars(m).update(_ATTRS[cls], _shape=shape, data=data, indices=indices, indptr=indptr)
    return m


def _shape(dims):
    """Dimensions as Python ints; TypeError unless integral, ValueError if negative."""
    dims = tuple(operator.index(d) for d in dims)
    if min(dims, default=0) < 0:
        raise ValueError(f"invalid shape {dims}: dimensions must be nonnegative")
    return dims


def _index_dtype(*sizes):
    """scipy's index dtype for a matrix whose dimensions and nnz are the given sizes."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _index_array(idx, bound, name):
    """Indices as an integer array, or ValueError unless each is integral and in [0, bound)."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu" and idx.size and (idx.dtype.kind != "f" or not np.all(np.mod(idx, 1) == 0)):
        raise ValueError(f"{name} indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"{name} index out of range for a dimension of {bound}")
    return idx.astype(np.int64, copy=False)


def _dense_csc(a):
    """CSC arrays of the nonzero entries of a 2-D float array, read in column order."""
    col, row = np.nonzero(a.T)
    idx = _index_dtype(*a.shape, len(row))
    indptr = np.zeros(a.shape[1] + 1, dtype=idx)
    np.cumsum(np.bincount(col, minlength=a.shape[1]), out=indptr[1:])
    return _Csc(a[row, col], row.astype(idx), indptr, a.shape)


def hcat(*mats):
    mats = [SparseMat(m) if not isinstance(m, SparseMat) else m for m in mats]
    if len({m.n_rows for m in mats}) != 1:
        raise ValueError(f"cannot hcat matrices with row counts {[m.shape for m in mats]}")
    cols = list(accumulate((m.n_cols for m in mats), initial=0))
    return SparseMat.from_blocks([(0, c, m) for c, m in zip(cols, mats)], (mats[0].n_rows, cols[-1]))


def vcat(*mats):
    mats = [SparseMat(m) if not isinstance(m, SparseMat) else m for m in mats]
    if len({m.n_cols for m in mats}) != 1:
        raise ValueError(f"cannot vcat matrices with column counts {[m.shape for m in mats]}")
    rows = list(accumulate((m.n_rows for m in mats), initial=0))
    return SparseMat.from_blocks([(r, 0, m) for r, m in zip(rows, mats)], (rows[-1], mats[0].n_cols))


def blkdiag(*mats):
    """Block-diagonal matrix: ``from_blocks`` on the diagonal offsets."""
    mats = [SparseMat(m) if not isinstance(m, SparseMat) else m for m in mats]
    rows = list(accumulate((m.n_rows for m in mats), initial=0))
    cols = list(accumulate((m.n_cols for m in mats), initial=0))
    return SparseMat.from_blocks(list(zip(rows, cols, mats)), (rows[-1], cols[-1]))


class LdltFactor:
    """L D L^T factorization of a symmetric matrix in natural order.

    L is unit lower triangular with its unit diagonal stored, D holds the
    mixed-sign pivots: M = L D L^T. The back-solve reads L through SuperLU,
    built once from L in natural order without pivoting, which reproduces
    L with U = I; each column of a right-hand side is solved the same way
    whatever the number of columns.

    The factor is immutable; solves allocate per-call scratch and are
    safe to run concurrently.
    """

    __slots__ = ("n", "L", "D", "_tri")

    def __init__(self, L: SparseMat, D):
        object.__setattr__(self, "n", L.n_rows)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_tri", splu(L._m, permc_spec="NATURAL", diag_pivot_thresh=0.0))

    def __setattr__(self, name, value):
        raise AttributeError("LdltFactor is immutable")


_symbolic_cache: dict = {}
_symbolic_lock = threading.Lock()
_SYMBOLIC_CACHE_MAX = 64

# a pivot at or below this fraction of max|M| signals rank deficiency
_PIVOT_REL_TOL = 1e-12


def _symbolic(n, Ap, Ai):
    """Elimination tree and column counts for the upper-triangular pattern.

    Cached on the pattern bytes: repeated factorizations with identical
    structure (e.g. a sliding estimation window) skip the symbolic pass.
    """
    key = (n, Ap.tobytes(), Ai.tobytes())
    with _symbolic_lock:
        hit = _symbolic_cache.get(key)
    if hit is not None:
        return hit

    parent = np.full(n, -1, dtype=np.int64)
    flag = np.full(n, -1, dtype=np.int64)
    lnz = np.zeros(n, dtype=np.int64)
    for k in range(n):
        flag[k] = k
        for p in range(Ap[k], Ap[k + 1]):
            i = Ai[p]
            if i < k:
                while flag[i] != k:
                    if parent[i] == -1:
                        parent[i] = k
                    lnz[i] += 1
                    flag[i] = k
                    i = parent[i]
    Lp = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lnz, out=Lp[1:])
    result = (parent, Lp)
    with _symbolic_lock:
        if len(_symbolic_cache) >= _SYMBOLIC_CACHE_MAX:
            _symbolic_cache.clear()
        _symbolic_cache[key] = result
    return result


def ldlt_factorize(m: SparseMat) -> LdltFactor:
    """Sparse LDLT factorization with 1-by-1 pivots in natural order.

    Suitable for symmetric quasi-definite matrices (positive-definite
    leading block, zero trailing block, full-row-rank coupling), for
    which this pivot sequence always exists. Elimination fills the
    symbolic pattern of L; entries that cancel to exactly zero are
    pruned from the returned L like any SparseMat, so L.nnz counts
    numerical nonzeros and is deterministic.

    Raises RankDeficiencyError when a pivot magnitude falls to
    1e-12 * max|m| or below, which signals that the coupling rows are
    not full row rank.
    """
    m = m if isinstance(m, SparseMat) else SparseMat(m)
    if m.n_rows != m.n_cols:
        raise ValueError(f"cannot factorize non-square matrix of shape {m.shape}")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")

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
    parent, Lp = _symbolic(n, Ap, Ai)

    Li = np.zeros(Lp[-1], dtype=np.int64)
    Lx = np.zeros(Lp[-1], dtype=float)
    D = np.zeros(n, dtype=float)
    y = np.zeros(n, dtype=float)
    pattern = np.zeros(n, dtype=np.int64)
    flag = np.full(n, -1, dtype=np.int64)
    lnz = np.zeros(n, dtype=np.int64)

    for k in range(n):
        top = n
        flag[k] = k
        for p in range(Ap[k], Ap[k + 1]):
            i = Ai[p]
            if i > k:
                continue
            y[i] += Ax[p]
            chain_len = 0
            while flag[i] != k:
                pattern[chain_len] = i
                chain_len += 1
                flag[i] = k
                i = parent[i]
            while chain_len > 0:
                chain_len -= 1
                top -= 1
                pattern[top] = pattern[chain_len]
        D[k] = y[k]
        y[k] = 0.0
        for t in range(top, n):
            i = pattern[t]
            yi = y[i]
            y[i] = 0.0
            p0 = Lp[i]
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

    # L's arrays with the unit diagonal first in each column, above the sorted rows below it
    idx = _index_dtype(n, Lp[-1] + n)
    Lp_unit = (Lp + np.arange(n + 1)).astype(idx)
    diag, below = Lp_unit[:-1], np.ones(Lp_unit[-1], dtype=bool)
    below[diag] = False
    Li_unit = np.empty(Lp_unit[-1], dtype=idx)
    Li_unit[diag], Li_unit[below] = np.arange(n), Li
    Lx_unit = np.ones(Lp_unit[-1])
    Lx_unit[below] = Lx
    return LdltFactor(SparseMat(_Csc(Lx_unit, Li_unit, Lp_unit, (n, n))), D)


def ldlt_solve(factor: LdltFactor, rhs):
    """Solve M x = rhs using the factorization of M.

    rhs may be a vector or a matrix of stacked right-hand sides; the
    result has the same shape.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != factor.n:
        raise ValueError(f"rhs of length {rhs.shape[0]} does not match system dimension {factor.n}")
    x = factor._tri.solve(rhs)
    x /= factor.D if rhs.ndim == 1 else factor.D[:, None]
    return factor._tri.solve(x, trans="T")
