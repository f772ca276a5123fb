import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conzopt import (
    RankDeficiencyError,
    SparseMat,
    blkdiag,
    hcat,
    ldlt_factorize,
    ldlt_solve,
    multiply,
    vcat,
)
from oracles import dense_ldlt


def test_transpose_swaps_indices():
    a = SparseMat.from_triplets([0, 1], [0, 2], [1.0, 2.0], (2, 3))
    at = a.T
    assert at.shape == (3, 2)
    assert at.triplets() == [(0, 0, 1.0), (2, 1, 2.0)]


def test_blkdiag_identities():
    out = blkdiag(SparseMat.eye(2), SparseMat.eye(3))
    assert np.array_equal(out.toarray(), np.eye(5))


def test_multiply_hand_example():
    a = SparseMat([[1.0, 2.0], [3.0, 4.0]])
    b = SparseMat([[1.0], [1.0]])
    assert np.array_equal(multiply(a, b).toarray(), [[3.0], [7.0]])


def test_multiply_dimension_mismatch_names_shapes():
    a = SparseMat(np.ones((2, 3)))
    b = SparseMat(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        multiply(a, b)


def test_concat_dimension_errors():
    with pytest.raises(ValueError):
        hcat(SparseMat(np.ones((2, 2))), SparseMat(np.ones((3, 2))))
    with pytest.raises(ValueError):
        vcat(SparseMat(np.ones((2, 2))), SparseMat(np.ones((2, 3))))


def test_from_blocks_matches_coo_assembly(rng):
    csr = sp.random(3, 4, density=0.5, format="csr", random_state=1)
    base = sp.random(4, 3, density=0.6, format="csc", random_state=2)
    unsorted = sp.csc_matrix((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]), np.array([0, 2, 2, 3])),
                             shape=(3, 3))
    zeros = sp.csc_matrix((np.array([0.0, 5.0, 0.0]), np.array([0, 1, 1]), np.array([0, 1, 3])),
                          shape=(2, 2))
    assert not unsorted.has_sorted_indices
    blocks = [(0, 0, csr), (3, 1, base.T), (1, 5, unsorted), (5, 6, zeros), (4, 0, SparseMat(base))]
    shape = (9, 9)
    got = SparseMat.from_blocks(blocks, shape).tocsc()
    coos = [b.tocoo() if sp.issparse(b) else b.tocsc().tocoo() for _, _, b in blocks]
    ref = SparseMat(sp.coo_matrix((np.concatenate([m.data for m in coos]),
                                   (np.concatenate([m.row + r for (r, _, _), m in zip(blocks, coos)]),
                                    np.concatenate([m.col + c for (_, c, _), m in zip(blocks, coos)]))),
                                  shape=shape)).tocsc()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
    assert got.indices.dtype == ref.indices.dtype


def test_from_triplets_rejects_non_integral_indices():
    with pytest.raises(ValueError, match="row indices must be integers"):
        SparseMat.from_triplets([0.5], [0], [1.0], (2, 2))   # used to land at (0, 0)
    with pytest.raises(ValueError, match="column indices must be integers"):
        SparseMat.from_triplets([0], [np.nan], [1.0], (2, 2))
    with pytest.raises(ValueError, match="row indices must be integers"):
        SparseMat.from_triplets(["1"], [0], [1.0], (2, 2))
    ok = SparseMat.from_triplets(np.array([1.0, 0.0]), np.array([0, 1], dtype=np.uint8), [2.0, 3.0], (2, 2))
    assert ok.triplets() == [(1, 0, 2.0), (0, 1, 3.0)]


def test_from_triplets_rejects_negative_indices():
    with pytest.raises(ValueError, match="row index out of range"):
        SparseMat.from_triplets([-1], [0], [1.0], (2, 2))
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMat.from_triplets([0], [-1], [1.0], (2, 2))


def test_from_triplets_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="row index out of range"):
        SparseMat.from_triplets([0, 2], [0, 0], [1.0, 1.0], (2, 3))
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMat.from_triplets([0], [3], [1.0], (2, 3))
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMat.from_triplets([0], [0], [1.0], (2, 0))
    with pytest.raises(ValueError, match="out of range"):
        SparseMat.from_blocks([(1, 0, SparseMat.eye(2))], (2, 2))
    with pytest.raises(ValueError, match="one length"):
        SparseMat.from_triplets([0, 1], [0], [1.0], (2, 2))


def test_empty_block_lists():
    z = SparseMat.from_blocks([], (2, 3))
    assert z.shape == (2, 3) and z.nnz == 0
    assert blkdiag().shape == (0, 0)
    with pytest.raises(ValueError, match="hcat"):
        hcat()
    with pytest.raises(ValueError, match="vcat"):
        vcat()


def test_construction_prunes_zeros():
    a = SparseMat([[0.0, 1.0], [0.0, 0.0]])
    assert a.nnz == 1
    d = SparseMat(np.diag([1.0, 0.0, 2.0]))
    assert d.nnz == 2
    assert d.shape == (3, 3)
    # duplicate triplets are summed; a sum of exactly zero is no entry
    cancelled = SparseMat.from_triplets([0, 0, 1], [1, 1, 0], [2.5, -2.5, 0.0], (2, 2))
    assert cancelled.nnz == 0
    # integer input is stored as float
    i = SparseMat(sp.csc_matrix(np.array([[1, 0], [0, 3]])))
    assert i.tocsc().dtype == np.float64
    assert np.array_equal(i.toarray(), [[1.0, 0.0], [0.0, 3.0]])


def test_multiply_drops_cancelled_entries():
    a = SparseMat([[1.0, 1.0], [0.0, 0.0]])
    b = SparseMat([[1.0], [-1.0]])
    assert multiply(a, b).nnz == 0


def test_immutable():
    a = SparseMat.eye(2)
    with pytest.raises(AttributeError):
        a.shape = (3, 3)
    # the caller's matrix or array is copied, not shared
    source = sp.csc_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    dense = np.array([[1.0, 0.0], [2.0, 3.0]])
    from_sparse, from_dense = SparseMat(source), SparseMat(dense)
    source.data[:] = 7.0
    dense[:] = 7.0
    assert np.array_equal(from_sparse.toarray(), [[1.0, 0.0], [2.0, 3.0]])
    assert np.array_equal(from_dense.toarray(), [[1.0, 0.0], [2.0, 3.0]])


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_nnz_accounting(n, m, seed):
    rng = np.random.default_rng(seed)
    dense_a = rng.normal(size=(n, m)) * (rng.random(size=(n, m)) < 0.6)
    dense_b = rng.normal(size=(m, m)) * (rng.random(size=(m, m)) < 0.6)
    a, b = SparseMat(dense_a), SparseMat(dense_b)
    assert a.T.nnz == a.nnz
    assert blkdiag(a, b).nnz == a.nnz + b.nnz
    assert hcat(a, SparseMat.zeros(n, 2)).nnz == a.nnz
    assert vcat(b, b).nnz == 2 * b.nnz
    assert (-a).nnz == a.nnz


# dyadic values of small magnitude: every sum and product is exact, so any
# order of summing duplicates gives the same bits
_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _raw_blocks(draw, n_rows=None, n_cols=None):
    """A scipy or SparseMat block: raw CSC or CSR arrays holding duplicates, explicit
    zeros and unsorted indices, a COO matrix, or a product whose entries may cancel."""
    n_rows = draw(st.integers(0, 4)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 4)) if n_cols is None else n_cols
    kind = draw(st.sampled_from(["csc", "csr", "coo", "product", "sparsemat"]))
    if kind == "product":
        inner = draw(st.integers(0, 3))
        x, y = (np.array(draw(st.lists(_VALUES, min_size=r * c, max_size=r * c))).reshape(r, c)
                for r, c in ((n_rows, inner), (inner, n_cols)))
        return sp.csr_matrix(x) @ sp.csc_matrix(y)
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), _VALUES)
    entries = draw(st.lists(cells, max_size=10)) if n_rows and n_cols else []
    rows, cols, vals = (np.array(v, dtype=d) for v, d in zip(zip(*entries) if entries else ([], [], []),
                                                             (np.int32, np.int32, float)))
    if kind in ("coo", "sparsemat"):
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
        return coo if kind == "coo" else SparseMat(coo)
    major, minor, n_major = (cols, rows, n_cols) if kind == "csc" else (rows, cols, n_rows)
    order = np.argsort(major, kind="stable")     # grouped by major index, minor order as drawn
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=n_major))]).astype(np.int32)
    cls = sp.csc_matrix if kind == "csc" else sp.csr_matrix
    return cls((vals[order], minor[order], indptr), shape=(n_rows, n_cols))


def _canonical(m):
    """scipy's own canonical CSC form of a scipy matrix."""
    m = sp.csc_matrix(m, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def _assert_same_csc(got, ref):
    got = got.tocsc()
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert getattr(got, name).dtype == getattr(ref, name).dtype


def _scipy(m):
    return m.tocsc() if isinstance(m, SparseMat) else m


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_from_triplets_matches_scipy_coo(n_rows, n_cols, data):
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), _VALUES)
    entries = data.draw(st.lists(cells, max_size=25)) if n_rows and n_cols else []
    rows, cols, vals = ([e[i] for e in entries] for i in range(3))
    ref = sp.coo_matrix((np.array(vals, dtype=float), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
                        shape=(n_rows, n_cols))
    _assert_same_csc(SparseMat.from_triplets(rows, cols, vals, (n_rows, n_cols)), _canonical(ref.tocsc()))


@given(st.integers(0, 8), st.integers(0, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_from_blocks_matches_scipy_coo(n_rows, n_cols, data):
    blocks = []
    for _ in range(data.draw(st.integers(0, 4))):   # placed anywhere, so blocks may overlap
        b = data.draw(_raw_blocks(data.draw(st.integers(0, min(n_rows, 4))),
                                  data.draw(st.integers(0, min(n_cols, 4)))))
        blocks.append((data.draw(st.integers(0, n_rows - b.shape[0])),
                       data.draw(st.integers(0, n_cols - b.shape[1])), b))
    coos = [_scipy(b).tocoo() for _, _, b in blocks]
    rows = np.concatenate([np.zeros(0, int)] + [m.row + r for (r, _, _), m in zip(blocks, coos)])
    cols = np.concatenate([np.zeros(0, int)] + [m.col + c for (_, c, _), m in zip(blocks, coos)])
    ref = sp.coo_matrix((np.concatenate([[]] + [m.data for m in coos]), (rows, cols)), shape=(n_rows, n_cols))
    _assert_same_csc(SparseMat.from_blocks(blocks, (n_rows, n_cols)), _canonical(ref.tocsc()))


@given(st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_concatenation_matches_scipy_stacks(n, data):
    mats = data.draw(st.lists(_raw_blocks(), min_size=1, max_size=4))
    _assert_same_csc(blkdiag(*mats), _canonical(sp.block_diag([_scipy(m) for m in mats], format="csc")))
    same_rows = data.draw(st.lists(_raw_blocks(n_rows=n), min_size=1, max_size=4))
    _assert_same_csc(hcat(*same_rows), _canonical(sp.hstack([_scipy(m) for m in same_rows], format="csc")))
    same_cols = data.draw(st.lists(_raw_blocks(n_cols=n), min_size=1, max_size=4))
    _assert_same_csc(vcat(*same_cols), _canonical(sp.vstack([_scipy(m) for m in same_cols], format="csc")))


def _random_quasi_definite(rng, n_pos, n_con):
    """[[H, A^T], [A, 0]] with H positive definite and A full row rank."""
    L = rng.normal(size=(n_pos, n_pos))
    H = L @ L.T + n_pos * np.eye(n_pos)
    A = rng.normal(size=(n_con, n_pos))
    top = np.hstack([H, A.T])
    bottom = np.hstack([A, np.zeros((n_con, n_con))])
    return np.vstack([top, bottom])


def test_ldlt_diagonal():
    f = ldlt_factorize(SparseMat(np.diag([2.0, -3.0])))
    assert np.array_equal(f.L.toarray(), np.eye(2))
    assert np.array_equal(f.D, [2.0, -3.0])


def test_ldlt_hand_elimination():
    f = ldlt_factorize(SparseMat([[2.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(f.L.toarray(), [[1.0, 0.0], [0.5, 1.0]])
    assert np.allclose(f.D, [2.0, -0.5])


def test_ldlt_solve_hand_examples():
    f = ldlt_factorize(SparseMat(np.diag([2.0, -3.0])))
    assert np.allclose(ldlt_solve(f, [4.0, 6.0]), [2.0, -2.0])
    f2 = ldlt_factorize(SparseMat([[2.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ldlt_solve(f2, [1.0, 1.0]), [1.0, -1.0])


def test_ldlt_matches_dense_oracle(rng):
    M = _random_quasi_definite(rng, 8, 3)
    f = ldlt_factorize(SparseMat(M))
    L_ref, D_ref = dense_ldlt(M)
    assert np.allclose(f.L.toarray(), L_ref, atol=1e-12)
    assert np.allclose(f.D, D_ref, atol=1e-12)


def test_ldlt_reconstruction_bound(rng):
    for n_pos, n_con in [(5, 2), (20, 6), (60, 20)]:
        M = _random_quasi_definite(rng, n_pos, n_con)
        f = ldlt_factorize(SparseMat(M))
        L = f.L.toarray()
        err = np.max(np.abs(L @ np.diag(f.D) @ L.T - M))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(M)))


def test_ldlt_mixed_pivot_signs(rng):
    M = _random_quasi_definite(rng, 6, 3)
    f = ldlt_factorize(SparseMat(M))
    assert np.sum(f.D > 0) == 6
    assert np.sum(f.D < 0) == 3


def test_ldlt_solve_residual(rng):
    M = _random_quasi_definite(rng, 14, 6)
    f = ldlt_factorize(SparseMat(M))
    rhs = rng.normal(size=20)
    x = ldlt_solve(f, rhs)
    assert np.max(np.abs(M @ x - rhs)) <= 1e-8 * (1.0 + np.max(np.abs(rhs)))


@pytest.mark.parametrize("dim", [10, 50, 200])
def test_ldlt_roundtrip_random(dim):
    rng = np.random.default_rng(dim)
    n_con = dim // 4
    M = _random_quasi_definite(rng, dim - n_con, n_con)
    f = ldlt_factorize(SparseMat(M))
    x_true = rng.normal(size=dim)
    x = ldlt_solve(f, M @ x_true)
    assert np.max(np.abs(x - x_true)) <= 1e-8 * (1.0 + np.max(np.abs(x_true)))


def test_ldlt_matrix_rhs(rng):
    M = _random_quasi_definite(rng, 10, 4)
    f = ldlt_factorize(SparseMat(M))
    B = rng.normal(size=(14, 5))
    X = ldlt_solve(f, B)
    assert np.max(np.abs(M @ X - B)) <= 1e-8


def test_ldlt_rank_deficiency_reports_pivot():
    # coupling rows are linearly dependent -> zero pivot in the trailing block
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    M = np.block([
        [np.eye(2) * 2.0, A.T],
        [A, np.zeros((2, 2))],
    ])
    with pytest.raises(RankDeficiencyError) as err:
        ldlt_factorize(SparseMat(M))
    assert err.value.pivot_index == 3


def test_ldlt_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        ldlt_factorize(SparseMat([[1.0, 2.0], [0.0, 1.0]]))


def test_ldlt_rejects_nonsquare():
    with pytest.raises(ValueError):
        ldlt_factorize(SparseMat(np.ones((2, 3))))


def test_ldlt_solve_dimension_error(rng):
    f = ldlt_factorize(SparseMat.eye(3))
    with pytest.raises(ValueError, match="length 2"):
        ldlt_solve(f, np.ones(2))


def test_ldlt_sparse_solve_path(rng):
    # every dimension takes the SuperLU triangular solve
    M = _random_quasi_definite(rng, 30, 10)
    f = ldlt_factorize(SparseMat(M))
    assert f._tri is not None
    rhs = rng.normal(size=40)
    assert np.max(np.abs(M @ ldlt_solve(f, rhs) - rhs)) <= 1e-8
    B = rng.normal(size=(40, 3))
    assert np.max(np.abs(M @ ldlt_solve(f, B) - B)) <= 1e-8
    # an empty system solves to an empty vector or block
    empty = ldlt_factorize(SparseMat.zeros(0, 0))
    assert ldlt_solve(empty, np.zeros(0)).shape == (0,)
    assert ldlt_solve(empty, np.zeros((0, 2))).shape == (0, 2)


def test_ldlt_superlu_reproduces_factor(rng):
    # natural order without pivoting: SuperLU's L is L itself and U = I
    M = _random_quasi_definite(rng, 30, 10)
    f = ldlt_factorize(SparseMat(M))
    tri = f._tri
    assert np.array_equal(tri.perm_r, np.arange(40))
    assert np.array_equal(tri.perm_c, np.arange(40))
    assert np.array_equal(tri.U.toarray(), np.eye(40))
    assert np.array_equal(tri.L.toarray(), f.L.toarray())


def test_ldlt_concurrent_solves_share_one_factor(rng):
    # the factor is shared read-only: threads solving against it at once
    # get the same answers as one thread
    f = ldlt_factorize(SparseMat(_random_quasi_definite(rng, 30, 10)))
    rhs = [rng.normal(size=(40, 3)) for _ in range(6)]
    expected = [ldlt_solve(f, b) for b in rhs]
    mismatches = []

    def work(i):
        for _ in range(200):
            if not np.array_equal(ldlt_solve(f, rhs[i]), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(rhs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_ldlt_superlu_residual_on_corridor_saddle():
    # the f = 3 corridor MPC saddle matrix, above the dense cutoff
    from conzopt import AdmmSettings, QpProblem, reduce_qp
    from conzopt.builders import build_mpc
    from conzopt.scenarios import corridor_mpc_scenario

    Z, P, q, _ = build_mpc(corridor_mpc_scenario(3))
    reduced = reduce_qp(QpProblem(P, q, Z), AdmmSettings())
    f = reduced.factor_m
    assert f.n == 3135 and f._tri is not None
    M = reduced.M.tocsc()
    rhs = np.random.default_rng(3).normal(size=(f.n, 2))
    for b in (rhs[:, 0], rhs):
        assert np.linalg.norm(M @ ldlt_solve(f, b) - b) <= 1e-9 * np.linalg.norm(b)


def test_factor_keeps_cancellation_structurally():
    # L[2,1] = (1 - 1*1*1) / 1 cancels to exactly zero inside elimination:
    # the symbolic pattern has 6 slots (3 below the diagonal, 3 on it),
    # and the returned L prunes the cancelled one
    M = np.array([
        [1.0, 1.0, 1.0],
        [1.0, 2.0, 1.0],
        [1.0, 1.0, 3.0],
    ])
    f = ldlt_factorize(SparseMat(M))
    L = f.L
    assert L.shape == (3, 3)
    assert L.nnz == 5
    assert L.toarray()[2, 1] == 0.0
    assert np.array_equal(f.D, [1.0, 1.0, 2.0])
    recon = L.toarray() @ np.diag(f.D) @ L.toarray().T
    assert np.allclose(recon, M, atol=1e-12)
