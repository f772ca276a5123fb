"""Minimal sparse linear-algebra kernel.

Compressed sparse-column matrices with strict nonzero accounting, the
handful of structural operations needed by the set calculus (products,
concatenation, block diagonals, block assembly), and an LDLT
factorization in natural order for symmetric quasi-definite systems.
Its back-solve is compiled: two SuperLU triangular solves with L.

A matrix is its own CSC arrays (``SparseMat._m``, a ``_Csc``, never
mutated), canonicalized in one place: construction copies input from
outside the package once, sums its duplicates and drops explicit zeros.
Code inside the package composes the stored arrays and wraps only the
result, so each matrix it returns is built once. Besides outside input,
only ``tocsc`` builds a scipy matrix: for ``toarray`` and ``LdltFactor``.

Every matrix the package assembles from pieces, in this module or any
other, is written by ``_place`` from non-overlapping blocks (or by
``_place_csc``, its array half, for an operand no SparseMat keeps), so
no other module handles (row, col, value) triplets; ``from_triplets``
only validates such data from outside. Every layout is merged per column
by scipy's COO-to-CSR kernel and checked for overlap.

Products, sums, matrix-vector products and transposes call the compiled
kernels of ``scipy.sparse._sparsetools`` that scipy's ``@``, ``+`` and
``tocsr`` run, on the same arrays, so they return scipy's values and index
dtypes without its Python wrappers: ``multiply`` and every product inside
the package go through ``_matmul``, every sum (P~ + rho I, A - B K and
``is_symmetric``'s M - M^T and ``unroll``'s A) through ``_add``, ``matvec``,
``rmatvec`` and ``unroll``'s W c through ``_matvec``, and ``.T`` and ``is_symmetric`` through
``_transpose``; ``_rows`` selects rows off the CSC arrays. The arrays
``_place`` and these kernels write, and those of ``zeros``, ``eye``, a
negation, a dense input and the factor L, reach the constructor as a
``_Csc``, which it takes without a copy after one check of their order.

``ldlt_factorize`` reads the upper triangle off the sorted columns of M
and writes L's unit diagonal into the factor's arrays, and
``is_symmetric`` forms M - M^T as arrays, so a factorization builds no
matrix besides L.
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
                m = data
            elif sp.issparse(data):
                s = sp.csc_matrix(data, dtype=float, copy=True)
                s.sum_duplicates()
                m = _Csc(s.data, s.indices, s.indptr, s.shape)
            else:
                data = np.atleast_2d(np.asarray(data, dtype=float))
                if data.ndim > 2:
                    raise ValueError(f"dense input of shape {data.shape} is not 2-D")
                if shape is not None and data.size == 0:
                    data = data.reshape(shape)
                m = _dense_csc(data)
            if not csr_has_canonical_format(m.shape[1], m.indptr, m.indices):
                raise ValueError("CSC arrays with an unsorted column or an entry stored twice")
            if not m.data.all():        # an L factor's cancellations, eye(n, 0.0), zeros from outside
                nonzero = m.data != 0.0
                kept = np.zeros(len(nonzero) + 1, dtype=m.indptr.dtype)
                np.cumsum(nonzero, out=kept[1:])
                m = _Csc(m.data[nonzero], m.indices[nonzero], kept[m.indptr], m.shape)
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
        return len(self._m.data)

    def tocsc(self):
        """A scipy CSC matrix on a copy of the arrays, the only one built from package arrays."""
        m = self._m
        return sp.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape, copy=True)

    def toarray(self):
        return self.tocsc().toarray()

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
        return _matvec(self._m, np.asarray(x, dtype=float))

    def rmatvec(self, x):
        return _matvec(self._m, np.asarray(x, dtype=float), transpose=True)

    def max_abs(self):
        return float(np.max(np.abs(self._m.data))) if self.nnz else 0.0

    def is_symmetric(self):
        """Whether max|M - M^T| <= 1e-12 (1 + max|M|)."""
        if self.n_rows != self.n_cols:
            return False
        t = _transpose(self._m)
        gap = np.abs(_add(self._m, t._replace(data=-t.data)).data)
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


def _rows(m, keep):
    """The rows of a CSC matrix m (scipy or ``_Csc``) where the boolean array keep holds, as
    CSC arrays, a ``_Csc``: the arrays of scipy's ``m[keep]``, each column in its stored order."""
    entries = keep[m.indices]
    shape = (int(np.count_nonzero(keep)), m.shape[1])
    indices = (np.cumsum(keep) - 1)[m.indices[entries]]       # each kept row's new index
    idx = _index_dtype(*shape, len(indices))
    kept = np.zeros(len(entries) + 1, dtype=idx)              # kept entries before each slot
    np.cumsum(entries, out=kept[1:])
    return _Csc(m.data[entries], indices.astype(idx), kept[m.indptr], shape)


def _matvec(m, x, transpose=False):
    """The product of the CSC matrix m (scipy or ``_Csc``), or of its transpose, with a vector
    or the columns of a 2-D x, through scipy's compiled kernels: a 1-D x and a single column go
    through the one-vector kernel as in scipy's ``@``. m's CSC arrays are m^T's CSR arrays, so
    entry j of m^T x sums column j of m in stored order. An x whose first dimension is not
    m's (a 0-D x has none) raises ValueError."""
    n_out, n_in = m.shape[::-1] if transpose else m.shape
    if x.shape[:1] != (n_in,):
        operand = f"transpose of {m.shape}" if transpose else f"{m.shape}"
        raise ValueError(f"cannot multiply {operand} by vector of length {x.shape[0] if x.ndim else 'none'}")
    kernel, kernels = (csr_matvec, csr_matvecs) if transpose else (csc_matvec, csc_matvecs)
    if x.ndim == 2 and x.shape[1] != 1:
        y = np.zeros((n_out, x.shape[1]))
        kernels(n_out, n_in, x.shape[1], m.indptr, m.indices, m.data, x.ravel(), y.ravel())
        return y
    if x.ndim > 2:
        raise ValueError(f"cannot multiply {(n_out, n_in)} by an array of {x.ndim} dimensions")
    y = np.zeros(n_out)
    kernel(n_out, n_in, m.indptr, m.indices, m.data, x.ravel(), y)
    return y if x.ndim == 1 else y.reshape(n_out, 1)


def _place(blocks, shape):
    """Matrix of the given shape holding each (row, col, block) at that offset. Blocks are
    SparseMat or ``_Csc`` arrays with sorted columns (a product's, a transpose's). A block
    outside the shape, or blocks whose entries collide or interleave in a column, raise
    ValueError."""
    return SparseMat(_place_csc(blocks, shape))


def _place_csc(blocks, shape):
    """``_place``'s canonical CSC arrays as a ``_Csc``, for an operand that no SparseMat keeps.

    With the blocks in row-offset order, scipy's COO-to-CSR kernel on the transpose is a
    stable counting sort on the column, so each column takes its entries in block-row order
    and any collision or interleaving shows as a column out of row order.
    """
    n_rows, n_cols = shape
    placed = [(r, c, _block(m)) for r, c, m in blocks]
    for r, c, m in placed:              # plain comparisons: offset arrays for numpy cost more
        h, w = m.shape
        if r < 0 or c < 0 or r + h > n_rows or c + w > n_cols:
            raise ValueError(f"a block of shape {(h, w)} at ({r}, {c}) is out of range for shape {shape}")
    placed = sorted((p for p in placed if len(p[2].indices)), key=operator.itemgetter(0))
    nnz = [len(m.indices) for _, _, m in placed]
    slots = [len(m.indptr) for _, _, m in placed]
    total = sum(nnz)
    idx = _index_dtype(*shape, total)
    if not placed:
        return _Csc(np.zeros(0), np.zeros(0, dtype=idx), np.zeros(n_cols + 1, dtype=idx), shape)
    # the indptrs end to end, each shifted by the entries before it, so a block's last slot
    # equals the next block's first; slot s of the block whose first slot is f is column
    # s - f + c of the result
    firsts = accumulate(slots[:-1], initial=0)
    shifts = np.repeat(np.array([list(accumulate(nnz[:-1], initial=0)),
                                 [c - f for (_, c, _), f in zip(placed, firsts)]]), slots, axis=1)
    ptr = np.concatenate([m.indptr for _, _, m in placed]) + shifts[0]
    slot_col = np.arange(len(ptr)) + shifts[1]
    col = np.repeat(slot_col[:-1], ptr[1:] - ptr[:-1]).astype(idx, copy=False)
    row = np.concatenate([m.indices for _, _, m in placed]).astype(idx, copy=False)
    data = np.concatenate([m.data for _, _, m in placed])
    if any(r for r, _, _ in placed):
        row += np.repeat(np.array([r for r, _, _ in placed], dtype=idx), nnz)
    indptr, indices, out = np.empty(n_cols + 1, dtype=idx), np.empty(total, dtype=idx), np.empty(total)
    coo_tocsr(n_cols, n_rows, total, col, row, data, indptr, indices, out)
    if not csr_has_canonical_format(n_cols, indptr, indices):
        raise ValueError("blocks overlap: entries of one column collide or fall out of row order")
    return _Csc(out, indices, indptr, shape)


def _block(m):
    """A block's CSC arrays: a SparseMat's matrix, or a ``_Csc`` as it is."""
    return m._m if isinstance(m, SparseMat) else m


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


class _Csc(NamedTuple):
    """A matrix's CSC arrays (``SparseMat._m``), or those built for one new matrix, which
    takes them without a copy: ``indptr`` runs from 0 to ``len(indices)`` in their dtype,
    every index lies inside ``shape``, each column is sorted with no entry twice, explicit
    zeros may remain, and no other object holds the arrays, never mutated once wrapped. (A
    block read only by ``_place``, such as a negated G, may share a matrix's arrays.)"""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


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


def _vector(x, n, name):
    """A vector argument (a center, offset, direction, state, measurement) as a finite float
    array: the one rule for every vector. A scalar reads as length 1; an array that is not
    1-D, a NaN or infinite entry and a length other than ``n`` (any length when ``n`` is
    None) raise ValueError naming ``name``, checked in that order."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        if x.ndim:
            raise ValueError(f"{name} of shape {x.shape} is not a vector")
        x = x.reshape(1)
    _check_finite(name, x)
    if n is not None and len(x) != n:
        raise ValueError(f"{name} of length {len(x)} does not match {n}")
    return x


def _check_finite(name, values):
    """ValueError naming ``name`` when one of ``values`` is NaN or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has a NaN or infinite entry")


def _matrix(m, name=None, shape=None, symmetric=False, square=False):
    """A matrix argument as a SparseMat: the one rule for every matrix. A SparseMat is kept as
    it is (no copy), anything else constructs one; nameless, that is all. With a name, a NaN or
    infinite entry, a shape other than ``shape`` (a None dimension is free; ``square`` asks for
    (rows, rows)) and, when ``symmetric``, an asymmetric matrix raise ValueError naming ``name``,
    checked in that order."""
    m = m if isinstance(m, SparseMat) else SparseMat(m)
    if name is None:
        return m
    _check_finite(name, m._m.data)
    if square:
        shape = (m.n_rows, m.n_rows)
    if shape is not None and any(want not in (None, got) for got, want in zip(m.shape, shape)):
        expected = ", ".join("*" if want is None else str(want) for want in shape)
        raise ValueError(f"{name} of shape {m.shape} does not match ({expected})")
    if symmetric and not m.is_symmetric():
        raise ValueError(f"{name} is not symmetric within 1e-12 relative tolerance")
    return m


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
    mats = [_matrix(m) for m in mats]
    if len({m.n_rows for m in mats}) != 1:
        raise ValueError(f"cannot hcat matrices with row counts {[m.shape for m in mats]}")
    cols = list(accumulate((m.n_cols for m in mats), initial=0))
    return _place([(0, c, m) for c, m in zip(cols, mats)], (mats[0].n_rows, cols[-1]))


def vcat(*mats):
    mats = [_matrix(m) for m in mats]
    if len({m.n_cols for m in mats}) != 1:
        raise ValueError(f"cannot vcat matrices with column counts {[m.shape for m in mats]}")
    rows = list(accumulate((m.n_rows for m in mats), initial=0))
    return _place([(r, 0, m) for r, m in zip(rows, mats)], (rows[-1], mats[0].n_cols))


def blkdiag(*mats):
    """Block-diagonal matrix: ``_place`` on the diagonal offsets."""
    mats = [_matrix(m) for m in mats]
    rows = list(accumulate((m.n_rows for m in mats), initial=0))
    cols = list(accumulate((m.n_cols for m in mats), initial=0))
    return _place(list(zip(rows, cols, mats)), (rows[-1], cols[-1]))


class LdltFactor:
    """L D L^T factorization of a symmetric matrix in natural order.

    L is unit lower triangular with its unit diagonal stored, D holds the
    mixed-sign pivots: M = L D L^T. The back-solve reads L through SuperLU,
    built once from ``L.tocsc()`` in natural order without pivoting, which reproduces
    L with U = I; each column of a right-hand side is solved the same way
    whatever the number of columns. The SuperLU object is kept rather than
    calling ``spsolve_triangular`` per solve: in scipy 1.17.1 that function's
    kernel (``_superlu.gstrs``) leaks memory on every call.

    The factor is immutable; solves allocate per-call scratch and are
    safe to run concurrently.
    """

    __slots__ = ("n", "L", "D", "_tri")

    def __init__(self, L: SparseMat, D):
        object.__setattr__(self, "n", L.n_rows)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_tri", splu(L.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0))

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
    not full row rank. m is read by the matrix rule: square, symmetric
    and finite.
    """
    m = _matrix(m, "m", square=True, symmetric=True)
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
    if rhs.shape[:1] != (factor.n,):     # a 0-D rhs has no length
        raise ValueError(f"rhs of length {rhs.shape[0] if rhs.ndim else 'none'} does not match "
                         f"system dimension {factor.n}")
    x = factor._tri.solve(rhs)
    x /= factor.D if rhs.ndim == 1 else factor.D[:, None]
    return factor._tri.solve(x, trans="T")
