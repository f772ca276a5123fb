import hashlib
import operator
import re
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conzopt import (
    ConZono,
    IntervalBox,
    LinearSystem,
    MheSpec,
    QpProblem,
    RankDeficiencyError,
    SparseMat,
    blkdiag,
    build_mhe,
    build_mpc,
    generalized_intersection,
    hcat,
    interval_to_zono,
    ldlt_factorize,
    ldlt_solve,
    multiply,
    reduce_feasibility,
    reduce_qp,
    unroll,
    vcat,
)
from conzopt.admm import ReducedQp
from conzopt.scenarios import corridor_mpc_scenario, mhe_scenario, safety_scenario
from conzopt.sparse import (
    _add,
    _block,
    _count,
    _last_rows,
    _matmul,
    _place,
    _place_columns,
    _place_rows,
    _symbolic,
    _symbolic_cache,
    _transpose,
)
from oracles import dense_ldlt, ldlt_scalar_loop


def test_count_is_the_one_rule_for_counts():
    assert _count(np.int64(3), "N") == 3 and type(_count(np.int64(3), "N")) is int
    assert _count(True, "N") == 1           # a bool is an integer, read as 0 or 1
    assert _count(4, "m", minimum=4) == 4
    with pytest.raises(TypeError):
        _count(2.0, "N")                    # a float is not a count, even an integral one
    with pytest.raises(TypeError):
        _count(np.float64(2.0), "N")
    with pytest.raises(ValueError, match="^steps must be nonnegative, got -1$"):
        _count(-1, "steps")
    with pytest.raises(ValueError, match="^horizon must be at least 1, got 0$"):
        _count(0, "horizon", minimum=1)


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


def test_place_matches_coo_assembly():
    csr = sp.random(3, 4, density=0.5, format="csr", random_state=1)
    base = sp.random(4, 3, density=0.6, format="csc", random_state=2)
    unsorted = sp.csc_matrix((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]), np.array([0, 2, 2, 3])),
                             shape=(3, 3))
    zeros = sp.csc_matrix((np.array([0.0, 5.0]), np.array([0, 1]), np.array([0, 1, 2])), shape=(2, 2))
    negated = sp.csc_matrix(np.array([[1.5, 0.0], [-2.0, 4.0]]))
    assert not unsorted.has_sorted_indices
    blocks = [(0, 0, csr), (3, 1, base.T), (1, 5, unsorted), (5, 6, zeros), (6, 0, SparseMat(base))]
    shape = (10, 9)
    flipped = sp.csc_matrix(np.array([[2.0], [0.0], [-1.0]]))
    got = _place(blocks, shape, negated=[(7, 4, negated)], transposed=[(9, 6, flipped)]).tocsc()
    placed = blocks + [(7, 4, -negated), (9, 6, flipped.T)]
    coos = [_scipy(b).tocoo() for _, _, b in placed]
    ref = SparseMat(sp.coo_matrix((np.concatenate([m.data for m in coos]),
                                   (np.concatenate([m.row + r for (r, _, _), m in zip(placed, coos)]),
                                    np.concatenate([m.col + c for (_, c, _), m in zip(placed, coos)]))),
                                  shape=shape)).tocsc()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
    assert got.indices.dtype == ref.indices.dtype


def test_place_rejects_overlapping_blocks():
    with pytest.raises(ValueError, match="overlap"):     # both blocks hold an entry at (1, 1)
        _place([(0, 0, SparseMat.eye(2)), (1, 1, SparseMat.eye(2))], (3, 3))
    with pytest.raises(ValueError, match="overlap"):     # the same, through a negated block
        _place([(0, 0, SparseMat.eye(2))], (3, 3), negated=[(1, 1, SparseMat.eye(2))])
    with pytest.raises(ValueError, match="overlap"):     # and through a transposed one
        _place([(0, 0, SparseMat.eye(2))], (3, 3), transposed=[(1, 1, SparseMat.eye(2))])
    with pytest.raises(ValueError, match="overlap"):     # rows 0 and 2 from one block, row 1 from another
        _place([(0, 0, SparseMat([[1.0], [0.0], [1.0]])), (1, 0, SparseMat([[1.0]]))], (3, 1))
    with pytest.raises(ValueError, match="overlap"):     # a block holding row 0 of column 0 twice
        _place([(0, 0, sp.csc_matrix((np.ones(2), np.array([0, 0]), np.array([0, 2])), shape=(2, 1)))], (2, 1))


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
        _place([(1, 0, SparseMat.eye(2))], (2, 2))
    with pytest.raises(ValueError, match="one length"):
        SparseMat.from_triplets([0, 1], [0], [1.0], (2, 2))


def test_empty_block_lists():
    z = _place([], (2, 3))
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
def _raw_blocks(draw, n_rows=None, n_cols=None, unique=False):
    """A scipy or SparseMat block: raw CSC or CSR arrays holding duplicates (none when
    ``unique``), explicit zeros and unsorted indices, a COO matrix, or a product whose
    entries may cancel."""
    n_rows = draw(st.integers(0, 4)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 4)) if n_cols is None else n_cols
    kind = draw(st.sampled_from(["csc", "csr", "coo", "product", "sparsemat"]))
    if kind == "product":
        inner = draw(st.integers(0, 3))
        x, y = (np.array(draw(st.lists(_VALUES, min_size=r * c, max_size=r * c))).reshape(r, c)
                for r, c in ((n_rows, inner), (inner, n_cols)))
        return sp.csr_matrix(x) @ sp.csc_matrix(y)
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), _VALUES)
    entries = draw(st.lists(cells, max_size=10, unique_by=(lambda e: e[:2]) if unique else None)) \
        if n_rows and n_cols else []
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
def test_place_matches_scipy_coo(n_rows, n_cols, data):
    # one block or none in each cell of a random grid, so blocks never overlap
    cuts = [sorted(data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3)) | {0, n}) if n else [0]
            for n in (n_rows, n_cols)]
    groups = {"blocks": [], "negated": [], "transposed": []}
    for r0, r1 in zip(cuts[0], cuts[0][1:]):
        for c0, c1 in zip(cuts[1], cuts[1][1:]):
            if data.draw(st.booleans()):
                h, w = data.draw(st.integers(0, r1 - r0)), data.draw(st.integers(0, c1 - c0))
                group = data.draw(st.sampled_from(sorted(groups)))
                b = data.draw(_raw_blocks(*((w, h) if group == "transposed" else (h, w)), unique=True))
                groups[group].append((data.draw(st.integers(r0, r1 - h)), data.draw(st.integers(c0, c1 - w)), b))
    placed = (groups["blocks"] + [(r, c, -_scipy(b)) for r, c, b in groups["negated"]]
              + [(r, c, _scipy(b).T) for r, c, b in groups["transposed"]])
    coos = [_scipy(b).tocoo() for _, _, b in placed]
    rows = np.concatenate([np.zeros(0, int)] + [m.row + r for (r, _, _), m in zip(placed, coos)])
    cols = np.concatenate([np.zeros(0, int)] + [m.col + c for (_, c, _), m in zip(placed, coos)])
    ref = sp.coo_matrix((np.concatenate([[]] + [m.data for m in coos]), (rows, cols)), shape=(n_rows, n_cols))
    _assert_same_csc(_place(groups["blocks"], (n_rows, n_cols), negated=groups["negated"],
                            transposed=groups["transposed"]), _canonical(ref.tocsc()))


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


def _dependent_rows_saddle():
    """[[2 I, A^T], [A, 0]] whose coupling rows are linearly dependent."""
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    return SparseMat(np.block([
        [np.eye(2) * 2.0, A.T],
        [A, np.zeros((2, 2))],
    ]))


def test_ldlt_rank_deficiency_reports_pivot():
    # coupling rows are linearly dependent -> zero pivot in the trailing block
    with pytest.raises(RankDeficiencyError) as err:
        ldlt_factorize(_dependent_rows_saddle())
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


# ---------------------------------------------------------------------------
# every construction path returns canonical CSC arrays that it owns


def _arrays(m):
    if isinstance(m, SparseMat):
        m = m._m
    if sp.issparse(m):
        return [m.data, m.indices, m.indptr] if m.format in ("csc", "csr") else [m.data, m.row, m.col]
    return [np.asarray(m)]


def _assert_canonical(m):
    """Sorted, summed and zero-free CSC with int32 indices, its format flags true to its arrays."""
    c = m._m
    assert type(c) is sp.csc_matrix and c.data.dtype == np.float64
    assert c.indices.dtype == c.indptr.dtype == np.int32
    assert c.indptr[0] == 0 and len(c.indices) == len(c.data) == c.indptr[-1]
    c.check_format(full_check=True)
    assert c.data.all()
    col = np.repeat(np.arange(c.shape[1]), np.diff(c.indptr))
    assert np.all((np.diff(col) > 0) | (np.diff(c.indices) > 0))   # strictly increasing rows per column
    fresh = sp.csc_matrix((c.data, c.indices, c.indptr), shape=c.shape)
    for flag in ("has_sorted_indices", "has_canonical_format"):
        cached = vars(c).get("_" + flag)
        assert cached is None or cached == getattr(fresh, flag)


def _assert_owns(m, *inputs):
    """m's arrays are its own: shared neither with each other nor with any input."""
    own = _arrays(m)
    for i, a in enumerate(own):
        for b in own[i + 1:] + [x for inp in inputs for x in _arrays(inp)]:
            assert not np.shares_memory(a, b)


def test_from_triplets_sums_duplicates_and_drops_zeros():
    rows, cols = np.array([1, 0, 1, 2, 0, 2]), np.array([0, 0, 0, 1, 1, 2])
    vals = np.array([2.0, 3.0, -2.0, 0.0, 5.0, 1.5])
    m = SparseMat.from_triplets(rows, cols, vals, (3, 3))
    _assert_canonical(m)
    _assert_owns(m, rows, cols, vals)
    expect = (np.array([3.0, 5.0, 1.5]), np.array([0, 0, 2]), np.array([0, 1, 2, 3]))
    for name, want in zip(("data", "indices", "indptr"), expect):
        np.testing.assert_array_equal(getattr(m._m, name), want)
    rows[:], cols[:], vals[:] = 0, 0, 9.0
    assert np.array_equal(m.toarray(), [[3.0, 5.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5]])


def test_place_skips_empty_blocks():
    block = sp.csc_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    blocks = [(0, 0, SparseMat.zeros(2, 2)), (1, 2, block), (0, 4, sp.coo_matrix((3, 1))),
              (2, 0, sp.csr_matrix((1, 2)))]
    m = _place(blocks, (3, 5))
    _assert_canonical(m)
    _assert_owns(m, block)
    block.data[:] = 7.0
    expect = np.zeros((3, 5))
    expect[1:, 2:4] = [[1.0, 0.0], [2.0, 3.0]]
    assert np.array_equal(m.toarray(), expect)
    # blocks without entries only: the zero matrix, as from an empty list
    for blocks in ([(0, 0, SparseMat.zeros(2, 2)), (1, 1, sp.coo_matrix((1, 2)))], []):
        z = _place(blocks, (3, 3))
        _assert_canonical(z)
        assert z.shape == (3, 3) and z.nnz == 0 and np.array_equal(z._m.indptr, np.zeros(4))


def test_zeros_and_eye_are_canonical():
    for m, dense in ((SparseMat.zeros(3, 2), np.zeros((3, 2))), (SparseMat.zeros(0, 0), np.zeros((0, 0))),
                     (SparseMat.eye(3), np.eye(3)), (SparseMat.eye(2, -0.5), -0.5 * np.eye(2)),
                     (SparseMat.eye(2, 0.0), np.zeros((2, 2))), (SparseMat.eye(0), np.zeros((0, 0)))):
        _assert_canonical(m)
        _assert_owns(m)
        assert m.shape == dense.shape and np.array_equal(m.toarray(), dense)
    a, b = SparseMat.zeros(2, 2), SparseMat.zeros(2, 2)
    _assert_owns(a, b)
    with pytest.raises(ValueError):
        SparseMat.zeros(-1, 2)
    with pytest.raises(TypeError):
        SparseMat.eye(2.5)


def test_products_and_stacks_are_canonical_and_owned():
    rng = np.random.default_rng(7)
    dense = [rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.5) for _ in range(3)]
    raw = [sp.csc_matrix(dense[0]), sp.csr_matrix(dense[1]), sp.coo_matrix(dense[2])]
    a, b = SparseMat(dense[0]), SparseMat(dense[1])
    built = [multiply(a, b), a.T, -a, SparseMat(raw[0]), SparseMat(raw[1]), SparseMat(dense[2]),
             hcat(*raw), vcat(*raw), blkdiag(*raw), blkdiag(a, SparseMat.zeros(2, 0), b)]
    for m in built:
        _assert_canonical(m)
        _assert_owns(m, a, b, *raw, *dense)
    before = [m.toarray() for m in built]
    for r in raw:
        r.data[:] = 7.0
    for d in dense:
        d[:] = 7.0
    assert all(np.array_equal(m.toarray(), ref) for m, ref in zip(built, before))


def _symmetric_by_definition(m, rel_tol=1e-12):
    if m.n_rows != m.n_cols:
        return False
    diff = m._m - m._m.T
    return diff.nnz == 0 or float(np.max(np.abs(diff.data))) <= rel_tol * (1.0 + m.max_abs())


def test_is_symmetric_matches_definition():
    rng = np.random.default_rng(11)
    s = sp.random(12, 12, density=0.3, random_state=3, format="csc")
    exact = SparseMat(s + s.T)
    # a congruence G^T (P G) is symmetric only up to rounding in the products
    G = sp.random(9, 12, density=0.4, random_state=5, format="csc")
    P = sp.diags(rng.random(9) + 1.0, format="csc")
    rounded = SparseMat(G.T @ (P @ G))
    assert not np.array_equal(rounded.toarray(), rounded.toarray().T)
    assert np.max(np.abs(rounded.toarray() - rounded.toarray().T)) < 1e-15
    one_sided = SparseMat.from_triplets([0, 1, 2], [1, 1, 0], [1.0, 2.0, 1.0], (3, 3))
    tiny_one_sided = SparseMat.from_triplets([0, 1], [1, 1], [1e-20, 2.0], (3, 3))
    cases = [(exact, True), (rounded, True), (one_sided, False), (tiny_one_sided, True),
             (SparseMat(np.ones((2, 3))), False), (SparseMat.zeros(0, 0), True)]
    for m, want in cases:
        assert m.is_symmetric() is want
        assert _symmetric_by_definition(m) is want


# ---------------------------------------------------------------------------
# the factor of three saddle matrices, pinned bit for bit

# SHA-256 over (dtype, bytes) of the saddle M's indptr, indices and data, and of
# L's indptr, indices, data and D, recorded before the factorization read M's upper
# triangle off its own arrays and wrote L's unit diagonal into the factor arrays
_SADDLE_DIGESTS = {
    "feasibility": ("d1b75a7c07fdf14625503605f9c585b2a70d8be9d040fe58a638fe71d43c7984",
                    "3cd8d24e7fcb74d2e0a71763ed5b2f6275696bfe3db38827f9d7792559f86ddb"),
    "mhe-window": ("f095cb8af94072bbe57b31669a4847a660bc72eedf9e8d25ec39984db52691f3",
                   "3203cf6a2f45820d69e827c94bd94a116f683bc4a068d03f221dddb60b42cd7f"),
    "corridor-f1": ("10fc66594367338f77e6367f5e259e421deab501d380447a1dc51f062f69fe74",
                    "ee094cde9a79dfea943c2bdbc67a4e1425d10fbed72a95ed9fa151b922efa589"),
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _safety_clash(steps=5):
    """The safety scenario's tube after a few closed-loop steps, intersected with the obstacle."""
    sc = safety_scenario(n_steps=steps)
    a_closed, n_x, X = SparseMat(sc.sys.A._m - sc.sys.B._m @ sc.K._m), sc.sys.n_x, sc.X0
    for k in range(steps):
        u_ff = sc.K.matvec(sc.x_refs[k])
        Z = unroll(X, a_closed, SparseMat.eye(n_x), [(sc.W, sc.sys.S, -sc.sys.B.matvec(u_ff))])
        X = ConZono(SparseMat(Z.G._m[Z.dim - n_x:]), Z.c[Z.dim - n_x:], Z.A, Z.b)
    return generalized_intersection(X, sc.O, sc.R_map)


def _mhe_window_qp():
    sc = mhe_scenario()
    sys, x, inputs, meas = sc.sys, sc.x_true0, [], []
    for k in range(sc.horizon):
        u = -0.25 * x[2:] + 0.03 * np.array([np.cos(k / 3.0), np.sin(k / 3.0)])
        x = sys.A.matvec(x) + sys.B.matvec(u)
        inputs.append(u)
        meas.append(sys.C.matvec(x) + 0.1 * np.sin(np.arange(4) + k))
    spec = MheSpec(sys=sys, W=sc.W, V=sc.V, prior_set=sc.X_init, prior_estimate=sc.X_init.c,
                   prior_info=sc.prior_info, Q_inv=sc.Q_inv, R_inv=sc.R_inv,
                   inputs=inputs, measurements=meas, N=sc.horizon)
    Z, P, q, _, _ = build_mhe(spec)
    return QpProblem(P, q, Z)


def _corridor_qp():
    Z, P, q, _ = build_mpc(corridor_mpc_scenario(1))
    return QpProblem(P, q, Z)


_SADDLES = {
    "feasibility": lambda: reduce_feasibility(_safety_clash()).M,
    "mhe-window": lambda: reduce_qp(_mhe_window_qp()).M,
    "corridor-f1": lambda: reduce_qp(_corridor_qp()).M,
}


@pytest.mark.parametrize("name", sorted(_SADDLES))
def test_ldlt_factor_arrays_pinned(name):
    M = _SADDLES[name]()
    m_digest, factor_digest = _SADDLE_DIGESTS[name]
    if _digest(M._m.indptr, M._m.indices, M._m.data) != m_digest:
        # the scenarios go through sin, cos and LAPACK, whose last bits differ between builds
        pytest.skip("this platform assembles a different saddle matrix than the recorded one")
    f = ldlt_factorize(M)
    L = f.L._m
    assert _digest(L.indptr, L.indices, L.data, f.D) == factor_digest


def _factor_or_pivot(M):
    """L's arrays and D as bytes, or the index of the pivot that stopped the factorization."""
    try:
        f = ldlt_factorize(M)
    except RankDeficiencyError as err:
        return err.pivot_index
    L = f.L._m
    return [(a.dtype.str, a.tobytes()) for a in (L.indptr, L.indices, L.data, f.D)]


@pytest.mark.parametrize("name", sorted(_SADDLES) + ["dependent-rows"])
def test_ldlt_cached_schedule_reproduces_cold_factor(name):
    # a factorization that finds its pattern's schedule in the cache gives the bits of one
    # that walks the elimination tree itself
    M = _SADDLES[name]() if name in _SADDLES else _dependent_rows_saddle()
    _symbolic_cache.clear()
    cold = _factor_or_pivot(M)
    (Lp, schedule, row_ptr), = _symbolic_cache.values()
    warm = _factor_or_pivot(M)
    assert len(_symbolic_cache) == 1
    assert warm == cold
    assert (cold == 3) if name == "dependent-rows" else isinstance(cold, list)
    # int32 columns: Python ints would cost several MB of the cache's memory
    assert schedule.dtype == np.int32 and len(schedule) == Lp[-1] - M.n_rows == row_ptr[-1]


def _outcome(factorize, M):
    """L's arrays and D as bytes, or the index and the bits of the pivot that stopped factorize."""
    try:
        f = factorize(M)
    except RankDeficiencyError as err:
        return err.pivot_index, np.float64(err.pivot_value).tobytes()
    L = f.L._m
    return [(a.dtype.str, a.tobytes()) for a in (L.indptr, L.indices, L.data, f.D)]


@pytest.mark.parametrize("name", sorted(_SADDLES) + ["dependent-rows"])
def test_ldlt_matches_scalar_loop_on_saddles(name):
    # the digests above skip where a platform assembles other saddle bits; this
    # comparison with the earlier scalar-at-a-time loop runs everywhere
    M = _SADDLES[name]() if name in _SADDLES else _dependent_rows_saddle()
    outcome = _outcome(ldlt_factorize, M)
    assert outcome == _outcome(ldlt_scalar_loop, M)
    assert outcome[0] == 3 if name == "dependent-rows" else isinstance(outcome, list)


def _random_saddle_blocks(rng, n_pos, n_con, density):
    """H symmetric and diagonally dominant, and a sparse random A of n_con rows."""
    S = rng.normal(size=(n_pos, n_pos)) * (rng.random((n_pos, n_pos)) < density)
    H = S + S.T
    np.fill_diagonal(H, np.abs(H).sum(axis=1) + rng.random(n_pos) + 0.5)
    A = rng.normal(size=(n_con, n_pos)) * (rng.random((n_con, n_pos)) < density)
    return H, A


@given(st.integers(1, 10), st.data(), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_ldlt_matches_scalar_loop_on_random_saddles(n_pos, data, density, seed):
    # [[H, A^T], [A, 0]]; rows of A that are dependent (an empty row, or n_con > n_pos)
    # stop both at the same pivot when one falls below the threshold, and may pass both
    # with a noise pivot above it, which ReducedQp's sign check then has to catch
    n_con = data.draw(st.integers(0, n_pos + 1))
    H, A = _random_saddle_blocks(np.random.default_rng(seed), n_pos, n_con, density)
    M = SparseMat(np.block([[H, A.T], [A, np.zeros((n_con, n_con))]]))
    assert _outcome(ldlt_factorize, M) == _outcome(ldlt_scalar_loop, M)


def _reduced_random_saddle(seed):
    rng = np.random.default_rng(seed)
    n_pos = int(rng.integers(1, 11))
    n_con = int(rng.integers(0, n_pos + 2))
    H, A = _random_saddle_blocks(rng, n_pos, n_con, rng.uniform(0.1, 1.0))
    Z = ConZono(SparseMat.eye(n_pos), np.zeros(n_pos), SparseMat(A), np.zeros(n_con))
    return ReducedQp(Z, 1.0, np.zeros(n_pos), SparseMat(H))


@pytest.mark.parametrize("seed, pivot", [(205, 12), (6861, 20), (6942, 7), (7247, 18)])
def test_saddle_sign_check_rejects_dependent_rows_above_threshold(seed, pivot):
    # A has more rows than columns, so its rows are dependent, yet every pivot clears
    # ldlt_factorize's threshold; one trailing pivot is positive, which a quasi-definite
    # saddle never has, and a solve with that factor would return |x| near 1e16 or more
    with pytest.raises(RankDeficiencyError, match="not full row rank") as err:
        _reduced_random_saddle(seed)
    assert err.value.pivot_index == pivot and err.value.pivot_value > 0


def test_symbolic_schedule_by_hand():
    # upper columns {0}, {1}, {0, 1, 2}, {0, 1, 3}: row 2 walks the paths [0] and [1],
    # row 3 walks [0, 2] and then [1], which stops at the already visited 2; each row
    # lists its later paths first
    M = _dependent_rows_saddle()._m
    upper = sp.triu(M, format="csc")
    _symbolic_cache.clear()
    Lp, schedule, row_ptr = _symbolic(4, upper.indptr.astype(np.int64), upper.indices.astype(np.int64))
    assert schedule.tolist() == [1, 0, 1, 0, 2]
    assert row_ptr.tolist() == [0, 0, 0, 2, 5]
    assert Lp.tolist() == [0, 3, 6, 8, 9]


# ---------------------------------------------------------------------------
# assembly pinned bit for bit on exactly representable data

# every value below is a small dyadic rational, so each sum and product the
# assembly forms is exact and the arrays are the same on every platform
_DYADIC_DIGESTS = {
    "tube": "98166f770612f44b935b57f672b188a6b9aba8cbd1e1eb17cb9510a08d43a661",
    "clash": "126b2fdbec9e9320791bd5b9b3787f1b503ff3f6783960f4b0b7ed6c57a3a84b",
    "saddle": "f9f6b6dbe37e01dd6f5fd8f1b782af9a2de9edd89c46e2c26c7085c4e8cb0abc",
    "window": "645e0523a3c16628aa1a0df10a43c66852d3c2c6ae1cdcf3117311d4cf609682",
}


def _set_arrays(Z):
    return [Z.G._m.indptr, Z.G._m.indices, Z.G._m.data, Z.c, Z.A._m.indptr, Z.A._m.indices, Z.A._m.data, Z.b]


def _dyadic_assembly():
    box = lambda lo, hi: interval_to_zono(IntervalBox(lo, hi))   # noqa: E731
    sys = LinearSystem(SparseMat([[1.0, 0.5], [-0.25, 1.0]]), SparseMat([[0.125], [0.5]]),
                       box([-8.0, -8.0], [8.0, 8.0]), box([-1.0], [1.0]), SparseMat([[1.0, -0.5]]))
    X0 = box([-0.5, 0.25], [0.5, 0.75])
    tube = unroll(X0, sys.A, sys.B, [(sys.U, sys.S, np.array([0.0, 0.25 * k])) for k in range(3)])
    R = hcat(SparseMat.zeros(2, tube.dim - 2), SparseMat([[1.0, 0.5], [0.0, -1.0]]))
    clash = generalized_intersection(tube, box([1.0, -2.0], [3.0, 2.0]), R)
    spec = MheSpec(sys=sys, W=box([-0.25, -0.125], [0.25, 0.125]), V=box([-0.5], [0.5]), prior_set=X0,
                   prior_estimate=X0.c, prior_info=SparseMat.eye(2, 0.5), Q_inv=SparseMat.eye(2, 4.0),
                   R_inv=SparseMat([[2.0]]), inputs=[[0.5], [-0.25], [0.0]],
                   measurements=[[0.25], [1.0], [-0.75]], N=3)
    Z, P, q, _, _ = build_mhe(spec)
    M = reduce_feasibility(clash).M._m
    return {"tube": _set_arrays(tube), "clash": _set_arrays(clash),
            "saddle": [M.indptr, M.indices, M.data],
            "window": _set_arrays(Z) + [P._m.indptr, P._m.indices, P._m.data, q]}


def test_assembly_arrays_pinned_on_dyadic_data():
    assert {name: _digest(*arrays) for name, arrays in _dyadic_assembly().items()} == _DYADIC_DIGESTS


# ---------------------------------------------------------------------------
# scipy's compiled kernels, called directly, against scipy's public operations;
# the kernels live in the private scipy.sparse._sparsetools, so these fail first
# if a scipy release changes them


@st.composite
def _scipy_csc(draw, n_rows=None, n_cols=None, raw=False):
    """A canonical scipy CSC matrix with normal or small dyadic values (whose products can
    cancel to exactly zero); with ``raw``, possibly also unsorted columns holding an entry
    twice, as a product's or a caller's arrays may be."""
    n_rows = draw(st.integers(0, 6)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 6)) if n_cols is None else n_cols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n_rows, n_cols)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    if draw(st.booleans()):
        values = rng.normal(size=(n_rows, n_cols))
    else:
        values = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=(n_rows, n_cols))
    m = sp.csc_matrix(values * mask)
    if raw and m.nnz and draw(st.booleans()):         # reverse every column, repeat one entry
        order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(m.indptr[:-1], m.indptr[1:])])
        j = int(np.flatnonzero(np.diff(m.indptr))[0])
        at = m.indptr[j]
        data = np.insert(m.data[order], at, 0.25)
        indices = np.insert(m.indices[order], at, m.indices[order][at])
        indptr = m.indptr.copy()
        indptr[j + 1:] += 1
        m = sp.csc_matrix((data, indices, indptr), shape=m.shape)
    return m


def _assert_same_arrays(got, ref):
    """data, indices and indptr equal, each with the same dtype, and the same shape."""
    assert tuple(got.shape) == tuple(ref.shape)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype, name


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_product_kernel_matches_scipy_matmul(n, k, m, data):
    a, b = data.draw(_scipy_csc(n, k, raw=True)), data.draw(_scipy_csc(k, m, raw=True))
    ref = a @ b                      # scipy drops the exact zeros of cancelled sums, leaves order
    ref.sort_indices()
    _assert_same_arrays(_matmul(a, b), ref)
    if a.has_canonical_format and b.has_canonical_format:
        _assert_same_arrays(multiply(SparseMat(a), SparseMat(b))._m, ref)


def test_product_kernel_cancellation_and_empty_operands():
    a = sp.csc_matrix(np.array([[1.0, 1.0], [2.0, -2.0], [0.0, 0.0]]))
    b = sp.csc_matrix(np.array([[1.0, 3.0], [-1.0, 3.0]]))
    got = _matmul(a, b)                                   # (0, 0) and (1, 1) cancel exactly
    _assert_same_arrays(got, (a @ b).sorted_indices())
    assert got.indptr.tolist() == [0, 1, 2] and got.indices.tolist() == [1, 0]
    for x, y in ((sp.csc_matrix((3, 0)), sp.csc_matrix((0, 2))), (sp.csc_matrix((0, 2)), b),
                 (sp.csc_matrix((3, 2)), b), (a, sp.csc_matrix((2, 0)))):
        _assert_same_arrays(_matmul(x, y), (x @ y).sorted_indices())
    # shapes that do not chain never reach the kernel, which would read out of bounds
    for x, y in ((sp.csc_matrix((0, 4)), sp.csc_matrix((0, 2))), (a, a), (b, sp.csc_matrix((3, 1)))):
        with pytest.raises(ValueError, match="cannot multiply"):
            _matmul(x, y)
    with pytest.raises(ValueError, match="cannot multiply"):
        unroll(interval_to_zono(IntervalBox([0.0, 0.0], [1.0, 1.0])), SparseMat(np.ones((2, 3))),
               SparseMat.eye(2), [(interval_to_zono(IntervalBox([0.0, 0.0], [1.0, 1.0])),) * 2 + (np.zeros(2),)])


@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([None, 0, 1, 3]), st.data())
@settings(max_examples=200, deadline=None)
def test_matvec_kernels_match_scipy_matmul(n_rows, n_cols, width, data):
    a = data.draw(_scipy_csc(n_rows, n_cols))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = SparseMat(a)
    for op, ref, n in ((m.matvec, a, n_cols), (m.rmatvec, a.T, n_rows)):
        x = rng.normal(size=n if width is None else (n, width))
        got, want = op(x), ref @ x
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        if x.ndim == 2 and width:                     # a strided column, as the solver passes one
            np.testing.assert_array_equal(op(x[:, 0]), ref @ x[:, 0])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_transpose_kernel_matches_scipy_tocsr(data):
    a = data.draw(_scipy_csc())
    ref = a.tocsr()                  # A's CSR arrays are A^T's CSC arrays
    _assert_same_arrays(_transpose(a), sp.csc_matrix((ref.data, ref.indices, ref.indptr), shape=a.shape[::-1]))
    _assert_same_arrays(SparseMat(a).T._m, a.T.tocsc())
    assert SparseMat(a).is_symmetric() is _symmetric_by_definition(SparseMat(a))


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_sum_kernel_matches_scipy_addition(n_rows, n_cols, data):
    a, b = data.draw(_scipy_csc(n_rows, n_cols, raw=True)), data.draw(_scipy_csc(n_rows, n_cols, raw=True))
    ref = a + b                      # scipy drops the exact zeros of cancelled sums
    _assert_same_arrays(_add(a, b), ref)
    if a.has_canonical_format and b.has_canonical_format:     # then the sum is canonical too
        assert ref.has_canonical_format
        _assert_same_arrays(SparseMat(_add(a, b))._m, ref)


def test_sum_kernel_on_diagonal_shifts_and_shape_errors():
    # P~ + rho I on full, partial and empty diagonals, one that cancels to zero, and the
    # empty matrix
    rng = np.random.default_rng(5)
    cases = [sp.random(n, n, density=d, random_state=int(rng.integers(1 << 30)), format="csc")
             for n, d in ((6, 0.9), (9, 0.3), (9, 0.05), (0, 0.0))]
    cases += [sp.diags([-0.75, 2.0, 0.0, 3.0], format="csc"), sp.csc_matrix(np.ones((3, 3)))]
    for s in cases:
        m = SparseMat(s + s.T)._m
        shift = 1.5 * sp.identity(m.shape[0], format="csc")
        _assert_same_arrays(_add(m, shift), m + shift)
        _assert_same_csc(_place([(0, 0, _add(m, shift))], m.shape), _canonical(m + shift))
    got = _add(sp.csc_matrix(np.diag([-1.5, 2.0])), sp.csc_matrix(np.diag([1.5, 1.5])))
    assert got.indptr.tolist() == [0, 0, 1] and got.data.tolist() == [3.5]   # (0, 0) cancels
    with pytest.raises(ValueError, match="cannot add"):
        _add(sp.csc_matrix((2, 3)), sp.csc_matrix((3, 2)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_last_rows_match_scipy_row_slice(data):
    a = data.draw(_scipy_csc())
    n = data.draw(st.integers(0, a.shape[0]))
    _assert_same_arrays(_last_rows(a, n), a[a.shape[0] - n:])


# ---------------------------------------------------------------------------
# _place: the column-disjoint path and the general path write the same arrays


@given(st.integers(0, 8), st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_column_and_row_paths_write_the_same_arrays(n_rows, n_cols, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, n_cols - 1), max_size=4)) | {0, n_cols}) if n_cols > 1 \
        else [0, n_cols]
    placed = []
    for c0, c1 in zip(cuts, cuts[1:]):
        if data.draw(st.booleans()):
            h, w = data.draw(st.integers(0, n_rows)), data.draw(st.integers(1, c1 - c0))
            block = data.draw(_raw_blocks(h, w, unique=True))
            sign = data.draw(st.sampled_from([1.0, -1.0]))
            placed.append((data.draw(st.integers(0, n_rows - h)), data.draw(st.integers(c0, c1 - w)),
                           _block(block), sign))
    placed = [p for p in placed if len(p[2].indices)]
    if not placed:
        return
    by_col = _place_columns(sorted(placed, key=operator.itemgetter(1)), (n_rows, n_cols))
    by_row = _place_rows(sorted(placed, key=operator.itemgetter(0)), (n_rows, n_cols))
    _assert_same_arrays(by_col, by_row)
    blocks = [(r, c, SparseMat(sp.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape)))
              for r, c, m, s in placed if s > 0]
    negated = [(r, c, SparseMat(sp.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape)))
               for r, c, m, s in placed if s < 0]
    _assert_same_csc(_place(blocks, (n_rows, n_cols), negated=negated), _canonical(_csc_of(by_row)))


def _csc_of(arrays):
    return sp.csc_matrix((arrays.data, arrays.indices, arrays.indptr), shape=arrays.shape)


def test_place_errors_keep_their_messages_on_both_paths():
    eye, col = SparseMat.eye(2), SparseMat([[1.0], [0.0], [1.0]])
    out_of_range = "a block of shape (2, 2) at (1, 0) is out of range for shape (2, 3)"
    with pytest.raises(ValueError, match=re.escape(out_of_range)):      # column-disjoint layout
        _place([(0, 2, SparseMat.eye(1)), (1, 0, eye)], (2, 3))
    with pytest.raises(ValueError, match=re.escape(out_of_range)):      # interleaving layout
        _place([(0, 0, SparseMat.eye(1)), (1, 0, eye)], (2, 3))
    with pytest.raises(ValueError, match=re.escape("a block of shape (2, 3) at (0, 1) is out of range "
                                                   "for shape (3, 3)")):   # shape as transposed
        _place([], (3, 3), transposed=[(0, 1, SparseMat(np.ones((3, 2))))])
    overlap = "blocks overlap: entries of one column collide or fall out of row order"
    for blocks in ([(0, 0, eye), (1, 1, eye)], [(0, 0, col), (1, 0, SparseMat([[1.0]]))]):
        with pytest.raises(ValueError, match=re.escape(overlap)):
            _place(blocks, (3, 3))
    twice = sp.csc_matrix((np.ones(2), np.array([0, 0]), np.array([0, 2])), shape=(2, 1))
    for shape, blocks in (((2, 1), [(0, 0, twice)]), ((2, 2), [(0, 0, twice), (0, 1, SparseMat.eye(1))]),
                          ((3, 1), [(0, 0, twice), (2, 0, SparseMat.eye(1))])):
        with pytest.raises(ValueError, match=re.escape(overlap)):
            _place(blocks, shape)
