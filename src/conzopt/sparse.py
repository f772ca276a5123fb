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

Every matrix the package assembles from pieces, in this module or any
other, is written by ``_place`` from non-overlapping blocks (or by
``_place_csc``, its array half, for an operand no SparseMat keeps), so
no other module handles (row, col, value) triplets; ``from_triplets``
only validates such data from outside. The arrays ``_place`` writes, and
those of ``zeros``, ``eye``, a dense input and the factor L, reach the
constructor as a ``_Csc``, which it takes without a copy or scipy's
validating constructor.

``ldlt_factorize`` reads the upper triangle off the sorted columns of M
and writes L's unit diagonal into the factor's arrays, and
``is_symmetric`` compares M's arrays with those of M^T in place when
the two patterns agree, so a factorization builds no matrix besides L.
The factorization is split in two: a symbolic pass, cached per sparsity
pattern, walks the elimination tree once and records L's column pointers
and, for every row, the columns it eliminates in order; the numeric pass
replays that schedule and does only the arithmetic. It walks the schedule
as Python ints and keeps each pivot and multiplier a Python float (the
same IEEE arithmetic as a numpy scalar, without its per-operation cost);
a row is scattered by one assignment and each column update is one numpy
expression on L's arrays.
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
        """Matrix of the given shape with vals[k] at (rows[k], cols[k]), duplicates summed,
        for data from outside such as a set read from JSON: indices that are not integral
        (integers, or floats with integral values) or not inside the shape raise ValueError."""
        n_rows, n_cols = shape = _shape(shape)
        rows, cols = _index_array(rows, n_rows, "row"), _index_array(cols, n_cols, "column")
        vals = np.asarray(vals, dtype=float)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
            raise ValueError(f"triplet arrays of shapes {rows.shape}, {cols.shape} and {vals.shape} "
                             "are not one-dimensional of one length")
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape))

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
        """(row, col, value) triplets in column-major order, read off the CSC arrays."""
        m = self._m
        cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
        return list(zip(m.indices.tolist(), cols.tolist(), m.data.tolist()))

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


def _place(blocks, shape, negated=(), transposed=()):
    """Matrix of the given shape holding each (row, col, block) at that offset, each block
    of ``negated`` times -1 and each of ``transposed`` transposed. Blocks are SparseMat,
    ``_column_ranges`` views or scipy matrices without duplicate entries; other formats are
    converted to CSC, and unsorted indices (a product's) sorted in place. A stable sort on
    the column merges each column's entries in block-row order, so the arrays come out
    canonical. A block outside the shape, or blocks whose entries collide or interleave in
    a column, raise ValueError."""
    return SparseMat(_place_csc(blocks, shape, negated, transposed))


def _place_csc(blocks, shape, negated=(), transposed=()):
    """``_place``'s canonical CSC arrays as a ``_Csc``, for an operand that no SparseMat keeps."""
    placed = []
    for sign, flip, group in ((1.0, False, blocks), (-1.0, False, negated), (1.0, True, transposed)):
        for r, c, m in group:
            if isinstance(m, SparseMat):
                m = m._m
            elif type(m) is not _Csc:             # a _Csc column range comes sorted
                m = m if m.format == "csc" else m.tocsc()
                m.sort_indices()                  # only where has_sorted_indices is false
            h, w = m.shape[::-1] if flip else m.shape
            if r < 0 or c < 0 or r + h > shape[0] or c + w > shape[1]:
                raise ValueError(f"a block of shape {(h, w)} at ({r}, {c}) is out of range for shape {shape}")
            if len(m.indices):
                placed.append((r, c, m, sign, flip))
    if not placed:
        idx = _index_dtype(*shape)
        return _Csc(np.zeros(0), np.zeros(0, dtype=idx), np.zeros(shape[1] + 1, dtype=idx), shape)
    r, c, mats, signs, flips = zip(*sorted(placed, key=operator.itemgetter(0)))
    nnz, slots = np.array([len(m.indices) for m in mats]), np.array([len(m.indptr) for m in mats])
    # the indptrs end to end, each shifted by the entries before it: a block's last
    # slot equals the next block's first, so no entry falls between blocks
    ptr = np.concatenate([m.indptr for m in mats]) + np.repeat(np.cumsum(nnz) - nnz, slots)
    major = np.repeat(np.arange(len(ptr) - 1) - np.repeat(np.cumsum(slots) - slots, slots)[:-1], np.diff(ptr))
    minor = np.concatenate([m.indices for m in mats])
    if any(flips):                                   # a transposed block's columns are its rows
        flip = np.repeat(flips, nnz)
        major, minor = np.where(flip, minor, major), np.where(flip, major, minor)
    row, col = np.repeat(np.array(r), nnz) + minor, np.repeat(np.array(c), nnz) + major
    order = np.argsort(col, kind="stable")
    idx = _index_dtype(*shape, len(col))
    indptr = np.zeros(shape[1] + 1, dtype=idx)
    np.cumsum(np.bincount(col, minlength=shape[1]), out=indptr[1:])
    data = (np.concatenate([m.data for m in mats]) * np.repeat(signs, nnz))[order]
    csc = _Csc(data, row[order].astype(idx), indptr, shape)
    if not _csc(*csc).has_canonical_format:
        raise ValueError("blocks overlap: entries of one column collide or fall out of row order")
    return csc


def _shift_diagonal(m, shift):
    """CSC arrays of the square SparseMat m + shift I, for ``_place``: shift is added at
    each column's diagonal slot, and a slot is inserted below the column's entries above
    the diagonal where it has none. A diagonal entry that cancels to zero stays until
    the matrix is built."""
    c = m._m
    n = c.shape[1]
    col = np.repeat(np.arange(n), np.diff(c.indptr))
    on = c.indices == col
    data = c.data.copy()
    data[on] += shift
    missing = np.ones(n, dtype=bool)
    missing[col[on]] = False
    j = np.flatnonzero(missing)
    at = c.indptr[j] + np.bincount(col[c.indices < col], minlength=n)[j]
    indptr = c.indptr.copy()
    indptr[1:] += np.cumsum(missing, dtype=indptr.dtype)
    return _Csc(np.insert(data, at, shift), np.insert(c.indices, at, j), indptr, c.shape)


def _column_ranges(m, widths):
    """Consecutive column ranges of a scipy CSC matrix m, as ``_Csc`` views of m's arrays
    (sorted in place first) for ``_place``."""
    m.sort_indices()
    p = m.indptr
    bounds = list(accumulate(widths, initial=0))
    return [_Csc(m.data[p[a]:p[b]], m.indices[p[a]:p[b]], p[a:b + 1] - p[a], (m.shape[0], b - a))
            for a, b in zip(bounds, bounds[1:])]


class _Csc(NamedTuple):
    """CSC arrays built for one new matrix, which takes them without a copy or a check:
    ``indptr`` runs from 0 to ``len(indices)``, every index lies inside ``shape``,
    and no other object holds the arrays. Duplicates and zeros may remain. (A
    ``_column_ranges`` view, read only by ``_place``, shares its matrix's arrays.)"""

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


def _count(value, name, minimum=0):
    """A count (horizon, step count, size) as a Python int: the one rule for every count.

    ``operator.index`` decides what an integer is: Python and numpy
    integers are, a bool reads as 0 or 1, and anything else (a float,
    even an integral one such as 2.0) raises TypeError. A value below
    ``minimum`` raises ValueError naming ``name``.
    """
    value = operator.index(value)
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _shape(dims):
    """Dimensions as Python ints, each a count."""
    return tuple(_count(d, "dimension") for d in dims)


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
    return _place([(0, c, m) for c, m in zip(cols, mats)], (mats[0].n_rows, cols[-1]))


def vcat(*mats):
    mats = [SparseMat(m) if not isinstance(m, SparseMat) else m for m in mats]
    if len({m.n_cols for m in mats}) != 1:
        raise ValueError(f"cannot vcat matrices with column counts {[m.shape for m in mats]}")
    rows = list(accumulate((m.n_rows for m in mats), initial=0))
    return _place([(r, 0, m) for r, m in zip(rows, mats)], (rows[-1], mats[0].n_cols))


def blkdiag(*mats):
    """Block-diagonal matrix: ``_place`` on the diagonal offsets."""
    mats = [SparseMat(m) if not isinstance(m, SparseMat) else m for m in mats]
    rows = list(accumulate((m.n_rows for m in mats), initial=0))
    cols = list(accumulate((m.n_cols for m in mats), initial=0))
    return _place(list(zip(rows, cols, mats)), (rows[-1], cols[-1]))


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
    """Everything the numeric pass needs of an upper-triangular pattern but its values.

    One walk of the elimination tree builds the tree and, for every row k,
    records the columns i < k it eliminates in the order the numeric pass
    visits them: each path from a column of the row's pattern up the tree,
    in walk order, later paths first. Returns L's column pointers (counting
    each unit diagonal) and the schedule as int32 columns with row pointers,
    so row k eliminates ``schedule[row_ptr[k]:row_ptr[k + 1]]``.

    Cached on the pattern bytes, which leave out the values: repeated
    factorizations with identical structure (a sliding estimation window, a
    plan from another initial state) skip the walk. Each entry holds these
    three arrays (the schedule takes 4 bytes per entry of L below its
    diagonal), and the cache is cleared when it holds ``_SYMBOLIC_CACHE_MAX``
    patterns.
    """
    key = (n, Ap.tobytes(), Ai.tobytes())
    with _symbolic_lock:
        hit = _symbolic_cache.get(key)
    if hit is not None:
        return hit

    Ap, Ai = Ap.tolist(), Ai.tolist()
    parent, flag, schedule, row_ptr = [-1] * n, [-1] * n, [], [0]
    for k in range(n):
        flag[k] = k
        paths = []
        for i in Ai[Ap[k]:Ap[k + 1]]:
            path = []
            while flag[i] != k:
                if parent[i] == -1:
                    parent[i] = k
                path.append(i)
                flag[i] = k
                i = parent[i]
            paths.append(path)
        for path in reversed(paths):
            schedule += path
        row_ptr.append(len(schedule))
    schedule = np.array(schedule, dtype=np.int32)
    # column pointers of L with its unit diagonal: each column holds it and one entry per
    # row that eliminates it
    Lp = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(schedule, minlength=n) + 1, out=Lp[1:])
    result = (Lp, schedule, np.array(row_ptr, dtype=np.int64))
    with _symbolic_lock:
        if len(_symbolic_cache) >= _SYMBOLIC_CACHE_MAX:
            _symbolic_cache.clear()
        _symbolic_cache[key] = result
    return result


def ldlt_factorize(m: SparseMat) -> LdltFactor:
    """Sparse LDLT factorization with 1-by-1 pivots in natural order.

    Suitable for symmetric quasi-definite matrices (positive-definite
    leading block, zero trailing block, full-row-rank coupling), for
    which this pivot sequence always exists. The pattern of M's upper
    triangle fetches ``_symbolic``'s schedule (computed once per pattern),
    and row k of L is eliminated column by column in that order, with no
    walk of the elimination tree here. The schedule and the row pointers
    are read as Python lists and each pivot and multiplier is a Python
    float, the same IEEE arithmetic as on numpy scalars; each column
    update stays one numpy expression on L's arrays. Elimination fills
    the symbolic pattern of L; entries that cancel to exactly zero are
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
    Lp, schedule, row_ptr = _symbolic(n, Ap, Ai)

    # L's arrays: each column's unit diagonal first, above the slots elimination fills
    Li = np.empty(Lp[-1], dtype=np.int64)
    Li[Lp[:-1]] = np.arange(n)
    Lx = np.ones(Lp[-1])
    D = []
    y = np.zeros(n, dtype=float)
    lnz = np.zeros(n, dtype=np.int64)

    cols, row_ptr, Ap = schedule.tolist(), row_ptr.tolist(), Ap.tolist()
    for k in range(n):
        # y is all zero here and M is canonical, so one assignment scatters row k
        a, b = Ap[k], Ap[k + 1]
        y[Ai[a:b]] = Ax[a:b]
        dk = y.item(k)
        y[k] = 0.0
        for i in cols[row_ptr[k]:row_ptr[k + 1]]:
            yi = y.item(i)
            y[i] = 0.0
            p0 = Lp[i] + 1
            p1 = p0 + lnz[i]
            if p1 > p0:
                y[Li[p0:p1]] -= Lx[p0:p1] * yi
            l_ki = yi / D[i]
            dk -= l_ki * yi
            Li[p1] = k
            Lx[p1] = l_ki
            lnz[i] += 1
        if abs(dk) <= threshold:
            raise RankDeficiencyError(k, dk)
        D.append(dk)

    # scipy's index dtype (int64 above keeps the loop's fancy indexing fast); astype
    # copies, so the symbolic cache keeps its own Lp
    idx = _index_dtype(n, Lp[-1])
    return LdltFactor(SparseMat(_Csc(Lx, Li.astype(idx), Lp.astype(idx), (n, n))), np.array(D, dtype=float))


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
