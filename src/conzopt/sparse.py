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
only validates such data from outside. When no two blocks with entries
share a column (``hcat``, ``blkdiag``, the G of ``generalized_intersection``
and ``reach.unroll``, the cost P of ``build_mpc`` and ``build_mhe``), the
blocks' arrays are written end to end with no sort and no check; any other
layout is merged per column by scipy's COO-to-CSR kernel and checked for
overlap.

Products, sums, matrix-vector products and transposes call the compiled
kernels of ``scipy.sparse._sparsetools`` that scipy's ``@``, ``+`` and
``tocsr`` run, on the same arrays, so they return scipy's values and index
dtypes without its Python wrappers: ``multiply`` and every product inside
the package go through ``_matmul``, every sum (P~ + rho I, A - B K and
``is_symmetric``'s M - M^T) through ``_add``, ``matvec`` and ``rmatvec``
through ``_matvec``, and ``.T`` and ``is_symmetric`` through
``_transpose``; ``_last_rows`` slices a row range off the CSC arrays. The
arrays ``_place`` and these kernels write, and those of ``zeros``, ``eye``,
a negation, a dense input and the factor L, reach the constructor as a
``_Csc``, which it takes without a copy or scipy's validating constructor.

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
from scipy.sparse._sparsetools import (
    coo_tocsr,
    csc_matvec,
    csc_matvecs,
    csr_has_canonical_format,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_matvec,
    csr_matvecs,
    csr_plus_csr,
    csr_sort_indices,
    csr_tocsc,
)
from scipy.sparse.linalg import splu


class RankDeficiencyError(ValueError):
    """Raised when a pivot falls below the rank-deficiency threshold or, in a saddle
    matrix, has the wrong sign. The default message blames the constraint rows;
    ``message`` replaces it."""

    def __init__(self, pivot_index, pivot_value, message=None):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(message or (
            f"rank-deficient matrix: pivot {pivot_value:.3e} at index {pivot_index} is "
            "below threshold or of the wrong sign; the constraint rows are not full row "
            "rank (redundant constraints can be removed)"
        ))


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
            # the one copy: arrays built for this matrix (a _Csc) are taken as they are
            if type(data) is _Csc:
                m = _csc(*data)
            elif not sp.issparse(data):
                data = np.atleast_2d(np.asarray(data, dtype=float))
                if shape is not None and data.size == 0:
                    data = data.reshape(shape)
                m = _csc(*_dense_csc(data))
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
        return cls(_diagonal(n, float(scale)))

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
        return SparseMat(_transpose(self._m))

    def __neg__(self):
        return SparseMat(_Csc(-self._m.data, self._m.indices.copy(), self._m.indptr.copy(), self.shape))

    def __matmul__(self, other):
        return multiply(self, other)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"cannot multiply {self.shape} by vector of length {x.shape[0]}")
        return _matvec(self._m, x, self.shape, csc_matvec, csc_matvecs)

    def rmatvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_rows:
            raise ValueError(f"cannot multiply transpose of {self.shape} by vector of length {x.shape[0]}")
        # A's CSC arrays are A^T's CSR arrays; entry j sums column j of A in stored order
        return _matvec(self._m, x, self.shape[::-1], csr_matvec, csr_matvecs)

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
        m, t = self._m, _transpose(self._m)
        if np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices):
            gap = np.abs(m.data - t.data)
        else:
            gap = np.abs(_add(m, t._replace(data=-t.data)).data)
        return not gap.size or float(gap.max()) <= 1e-12 * (1.0 + self.max_abs())

    def __repr__(self):
        return f"SparseMat(shape={self.shape}, nnz={self.nnz})"


def multiply(a: SparseMat, b):
    """Matrix product; entries cancelled to exactly zero are dropped.

    Accepts a dense vector/matrix on the right, in which case a dense
    result is returned.
    """
    if isinstance(b, SparseMat):
        return SparseMat(_matmul(a._m, b._m))
    return a.matvec(b)


def _matmul(a, b):
    """The product a b of two CSC matrices (scipy or ``_Csc``) as canonical CSC arrays, a ``_Csc``.

    Runs the kernels scipy's ``@`` runs, on the same arrays: a b in CSC is b^T a^T in CSR,
    whose operands' CSR arrays are b's and a's CSC arrays. Column j of the result adds a's
    columns in the stored order of b's column j and drops entries that cancel to exactly
    zero; the indices are then sorted in place. The index dtype is the one scipy gives.
    Shapes that do not chain raise ValueError: the kernel would read out of bounds.
    """
    (M, K), N = a.shape, b.shape[1]
    if b.shape[0] != K:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    idx = _index_dtype(M, K, N, len(a.indices), len(b.indices))
    ops = [x.astype(idx, copy=False) for x in (b.indptr, b.indices, a.indptr, a.indices)]
    bound = csr_matmat_maxnnz(N, M, *ops)
    if bound >= 2**31 and idx is np.int32:
        idx = np.int64
        ops = [x.astype(idx) for x in ops]
    indptr, indices, data = np.empty(N + 1, dtype=idx), np.empty(bound, dtype=idx), np.empty(bound)
    csr_matmat(N, M, ops[0], ops[1], b.data, ops[2], ops[3], a.data, indptr, indices, data)
    nnz = int(indptr[-1])
    if nnz < bound:                     # keep no slack: a set may hold the product for long
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    csr_sort_indices(N, indptr, indices, data)
    out = _index_dtype(M, N, nnz)
    return _Csc(data, indices.astype(out, copy=False), indptr.astype(out, copy=False), (M, N))


def _transpose(m):
    """m^T of a CSC matrix m (scipy or ``_Csc``) as CSC arrays, a ``_Csc``: the kernel of
    scipy's ``tocsr``, so each column comes out sorted."""
    n_rows, n_cols = m.shape
    nnz = len(m.indices)
    idx = _index_dtype(n_rows, n_cols, nnz)
    indptr, indices, data = np.empty(n_rows + 1, dtype=idx), np.empty(nnz, dtype=idx), np.empty(nnz)
    csr_tocsc(n_cols, n_rows, m.indptr.astype(idx, copy=False), m.indices.astype(idx, copy=False), m.data,
              indptr, indices, data)
    return _Csc(data, indices, indptr, (n_cols, n_rows))


def _last_rows(m, n):
    """The last n rows of a CSC matrix m (scipy or ``_Csc``) as CSC arrays, a ``_Csc``; each
    column keeps its stored order."""
    n_rows, n_cols = m.shape
    keep = m.indices >= n_rows - n
    indices = m.indices[keep] - (n_rows - n)
    idx = _index_dtype(n, n_cols, len(indices))
    kept = np.zeros(len(keep) + 1, dtype=idx)    # kept entries before each slot
    np.cumsum(keep, out=kept[1:])
    return _Csc(m.data[keep], indices.astype(idx, copy=False), kept[m.indptr], (n, n_cols))


def _matvec(m, x, shape, kernel, kernels):
    """The product of a matrix of the given shape, whose CSC or CSR arrays m holds, with a
    vector or the columns of a 2-D x, through scipy's compiled ``kernel`` (one vector) or
    ``kernels`` (several): a 1-D x and a single column go through ``kernel`` as in
    scipy's ``@``."""
    n_out, n_in = shape
    if x.ndim == 2 and x.shape[1] != 1:
        y = np.zeros((n_out, x.shape[1]))
        kernels(n_out, n_in, x.shape[1], m.indptr, m.indices, m.data, x.ravel(), y.ravel())
        return y
    if x.ndim > 2:
        raise ValueError(f"cannot multiply {shape} by an array of {x.ndim} dimensions")
    y = np.zeros(n_out)
    kernel(n_out, n_in, m.indptr, m.indices, m.data, x.ravel(), y)
    return y if x.ndim == 1 else y.reshape(n_out, 1)


_OVERLAP = "blocks overlap: entries of one column collide or fall out of row order"


def _place(blocks, shape, negated=(), transposed=()):
    """Matrix of the given shape holding each (row, col, block) at that offset, each block
    of ``negated`` times -1 and each of ``transposed`` transposed. Blocks are SparseMat,
    ``_Csc`` arrays with sorted columns (a product's, a ``_column_ranges`` view) or scipy
    matrices; other formats are converted to CSC, unsorted indices sorted in place, and a
    block holding an entry twice raises ValueError. When no two blocks with entries share a
    column, ``_place_columns`` writes the arrays end to end; otherwise ``_place_rows`` merges
    each column's entries in block-row order. A block outside the shape, or blocks whose
    entries collide or interleave in a column, raise ValueError."""
    return SparseMat(_place_csc(blocks, shape, negated, transposed))


def _place_csc(blocks, shape, negated=(), transposed=()):
    """``_place``'s canonical CSC arrays as a ``_Csc``, for an operand that no SparseMat keeps."""
    n_rows, n_cols = shape
    placed = [(r, c, _block(m), 1.0) for r, c, m in blocks]
    placed += [(r, c, _block(m), -1.0) for r, c, m in negated]
    placed += [(r, c, _transpose(_block(m)), 1.0) for r, c, m in transposed]
    for r, c, m, _ in placed:           # plain comparisons: offset arrays for numpy cost more
        h, w = m.shape
        if r < 0 or c < 0 or r + h > n_rows or c + w > n_cols:
            raise ValueError(f"a block of shape {(h, w)} at ({r}, {c}) is out of range for shape {shape}")
    placed = [p for p in placed if len(p[2].indices)]
    if not placed:
        idx = _index_dtype(*shape)
        return _Csc(np.zeros(0), np.zeros(0, dtype=idx), np.zeros(n_cols + 1, dtype=idx), shape)
    by_col = sorted(placed, key=operator.itemgetter(1))
    if all(c1 >= c0 + m0.shape[1] for (_, c0, m0, _), (_, c1, _, _) in zip(by_col, by_col[1:])):
        return _place_columns(by_col, shape)
    return _place_rows(sorted(placed, key=operator.itemgetter(0)), shape)


def _block(m):
    """A block's CSC arrays with sorted columns: a SparseMat's matrix, a ``_Csc`` as it is,
    or a scipy matrix converted to CSC with its indices sorted in place; ValueError when
    the block holds an entry twice."""
    if isinstance(m, SparseMat):
        return m._m
    if type(m) is _Csc:
        return m
    m = m if m.format == "csc" else m.tocsc()
    m.sort_indices()                        # only where has_sorted_indices is false
    if not m.has_canonical_format:
        raise ValueError(_OVERLAP)
    return m


def _rows_and_data(placed, nnz, idx):
    """The blocks' row indices, shifted by their row offsets, and their signed data, each
    end to end as one array; nnz lists the blocks' entry counts."""
    rows = np.concatenate([m.indices for _, _, m, _ in placed]).astype(idx, copy=False)
    data = np.concatenate([m.data for _, _, m, _ in placed])
    if any(r for r, _, _, _ in placed):
        rows += np.repeat(np.array([r for r, _, _, _ in placed], dtype=idx), nnz)
    if any(s < 0 for _, _, _, s in placed):
        data *= np.repeat(np.array([s for _, _, _, s in placed]), nnz)
    return rows, data


def _place_columns(placed, shape):
    """Canonical CSC arrays of blocks with entries, sorted by column offset, no two of which
    share a column: each column holds one block's sorted entries, so the arrays are the
    blocks' written end to end, with no sort and no check. A column no block covers
    repeats the pointer before it."""
    nnz = [len(m.indices) for _, _, m, _ in placed]
    total = sum(nnz)
    idx = _index_dtype(*shape, total)
    pieces, starts, end, before = [], [], 0, 0     # indptr pieces, the entries before each
    for (_, c, m, _), k in zip(placed, nnz):
        if c > end:
            pieces.append(np.zeros(c - end, dtype=idx))
            starts.append(before)
        pieces.append(m.indptr[:-1])
        starts.append(before)
        end, before = c + m.shape[1], before + k
    pieces.append(np.zeros(shape[1] - end + 1, dtype=idx))
    starts.append(total)
    indptr = np.concatenate(pieces).astype(idx, copy=False)
    indptr += np.repeat(np.array(starts, dtype=idx), [len(p) for p in pieces])
    rows, data = _rows_and_data(placed, nnz, idx)
    return _Csc(data, rows, indptr, shape)


def _place_rows(placed, shape):
    """Canonical CSC arrays of blocks with entries, sorted by row offset: scipy's COO-to-CSR
    kernel on the transpose is a stable counting sort on the column, so each column takes
    its entries in block-row order. Entries that collide or fall out of row order raise
    ValueError."""
    n_rows, n_cols = shape
    nnz = [len(m.indices) for _, _, m, _ in placed]
    slots = [len(m.indptr) for _, _, m, _ in placed]
    total = sum(nnz)
    idx = _index_dtype(*shape, total)
    # the indptrs end to end, each shifted by the entries before it, so a block's last slot
    # equals the next block's first; slot s of the block whose first slot is f is column
    # s - f + c of the result
    firsts = accumulate(slots[:-1], initial=0)
    shifts = np.repeat(np.array([list(accumulate(nnz[:-1], initial=0)),
                                 [c - f for (_, c, _, _), f in zip(placed, firsts)]]), slots, axis=1)
    ptr = np.concatenate([m.indptr for _, _, m, _ in placed]) + shifts[0]
    slot_col = np.arange(len(ptr)) + shifts[1]
    col = np.repeat(slot_col[:-1], ptr[1:] - ptr[:-1]).astype(idx, copy=False)
    row, data = _rows_and_data(placed, nnz, idx)
    indptr, indices, out = np.empty(n_cols + 1, dtype=idx), np.empty(total, dtype=idx), np.empty(total)
    coo_tocsr(n_cols, n_rows, total, col, row, data, indptr, indices, out)
    if not csr_has_canonical_format(n_cols, indptr, indices):
        raise ValueError(_OVERLAP)
    return _Csc(out, indices, indptr, shape)


def _diagonal(n, value):
    """CSC arrays of value I of order n, as a ``_Csc``."""
    diag = np.arange(n + 1, dtype=_index_dtype(n))
    return _Csc(np.full(n, value), diag[:-1].copy(), diag, (n, n))


def _add(a, b):
    """The sum a + b of two CSC matrices (scipy or ``_Csc``) as CSC arrays, a ``_Csc``: the
    kernel scipy's ``+`` runs, on the same arrays. It drops entries that cancel to exactly zero,
    and canonical operands give a canonical sum. Shapes that differ raise ValueError."""
    if a.shape != b.shape:
        raise ValueError(f"cannot add {a.shape} and {b.shape}")
    n_rows, n_cols = a.shape
    bound = len(a.indices) + len(b.indices)
    idx = _index_dtype(n_rows, n_cols, bound)
    ops = [x.astype(idx, copy=False) for x in (a.indptr, a.indices, b.indptr, b.indices)]
    indptr, indices, data = np.empty(n_cols + 1, dtype=idx), np.empty(bound, dtype=idx), np.empty(bound)
    # a + b in CSC is a^T + b^T in CSR, whose CSR arrays are a's and b's CSC arrays
    csr_plus_csr(n_cols, n_rows, ops[0], ops[1], a.data, ops[2], ops[3], b.data, indptr, indices, data)
    nnz = int(indptr[-1])
    if nnz < bound:                     # keep no slack, as for a product
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return _Csc(data, indices, indptr, (n_rows, n_cols))


def _column_ranges(m, widths):
    """Consecutive column ranges of a CSC matrix m with sorted columns (a ``_matmul``
    product), as ``_Csc`` views of m's arrays for ``_place``."""
    p = m.indptr
    bounds = list(accumulate(widths, initial=0))
    return [_Csc(m.data[p[a]:p[b]], m.indices[p[a]:p[b]], p[a:b + 1] - p[a], (m.shape[0], b - a))
            for a, b in zip(bounds, bounds[1:])]


class _Csc(NamedTuple):
    """CSC arrays built for one new matrix, which takes them without a copy or a check:
    ``indptr`` runs from 0 to ``len(indices)``, every index lies inside ``shape``,
    and no other object holds the arrays. Duplicates and zeros may remain, except in a
    block given to ``_place``, whose columns are sorted with no entry twice. (A
    ``_column_ranges`` view, read only by ``_place``, shares its matrix's arrays.)"""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


# what scipy's constructor sets on a CSC matrix besides its arrays and shape, read off a
# checked one; its cached format flags are left out, so each matrix finds its own
_ATTRS = {k: v for k, v in vars(sp.csc_matrix((0, 0))).items()
          if k not in ("data", "indices", "indptr", "_shape") and not k.startswith("_has_")}


def _csc(data, indices, indptr, shape):
    """scipy CSC matrix on the given arrays, made without scipy's validating constructor."""
    m = sp.csc_matrix.__new__(sp.csc_matrix)
    vars(m).update(_ATTRS, _shape=shape, data=data, indices=indices, indptr=indptr)
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
