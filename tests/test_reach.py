import numpy as np
import pytest

from conzopt import (
    ConZono,
    IntervalBox,
    LinearSystem,
    ReachDims,
    SparseMat,
    affine_map,
    generalized_intersection,
    interval_to_zono,
    point_set,
    predict_complexity,
    reach_graph,
    reach_sparse,
    reach_standard,
    svse_step_sparse,
    svse_step_standard,
)
from conzopt.scenarios import second_order_scenario
from oracles import lp_contains, lp_support, random_zonotope

METHODS = {"standard": reach_standard, "graph": reach_graph, "sparse": reach_sparse}


@pytest.fixture(scope="module")
def second_order():
    return second_order_scenario()


def test_horizon_zero_returns_initial_set(second_order):
    X0, sys = second_order
    for fn in METHODS.values():
        sets = fn(X0, sys, 0)
        assert len(sets) == 1
        assert sets[0] is X0


GOLDEN_NNZ = {"standard": (33, 315), "graph": (5, 237), "sparse": (2, 105)}


@pytest.mark.parametrize("method", list(METHODS))
def test_golden_nonzero_counts(second_order, method):
    X0, sys = second_order
    X_N = METHODS[method](X0, sys, 15)[-1]
    assert (X_N.G.nnz, X_N.A.nnz) == GOLDEN_NNZ[method]


def test_counts_match_closed_forms(second_order):
    X0, sys = second_order
    dims = ReachDims.of(X0, sys)
    pred_std = predict_complexity("standard", 15, dims)
    assert (pred_std.n_g, pred_std.n_c) == (47, 30)
    pred_sparse = predict_complexity("sparse", 15, dims)
    assert (pred_sparse.n_g, pred_sparse.n_c) == (47, 30)
    X_std = reach_standard(X0, sys, 15)[-1]
    X_sp = reach_sparse(X0, sys, 15)[-1]
    assert (X_std.n_g, X_std.n_c) == (47, 30)
    assert (X_sp.n_g, X_sp.n_c) == (47, 30)


def test_predict_complexity_zero_horizon(second_order):
    X0, sys = second_order
    dims = ReachDims.of(X0, sys)
    pred = predict_complexity("standard", 0, dims)
    assert pred.n_g == dims.n_g0 and pred.n_c == dims.n_c0
    assert pred.nnz_g_bound == dims.n_x * dims.n_g0
    assert pred.nnz_a_bound == dims.n_c0 * dims.n_g0


def test_predict_complexity_standard_closed_form(second_order):
    # the accumulated bound collapses to the published closed form
    X0, sys = second_order
    d = ReachDims.of(X0, sys)
    for N in (1, 5, 15):
        pred = predict_complexity("standard", N, d)
        closed = (N * N * d.n_x * d.n_gu) // 2 + N * (
            (d.n_x // 2 + d.n_cu) * d.n_gu + (d.n_x + d.n_cs) * d.n_gs + d.n_x * d.n_g0
        ) + d.n_c0 * d.n_g0
        assert pred.nnz_a_bound == closed


def _per_step_prediction(method, N, d):
    """The counts of predict_complexity added up one step at a time."""
    n_g, n_c, nnz_a = d.n_g0, d.n_c0, d.n_c0 * d.n_g0
    nnz_g = d.n_x * d.n_g0
    x_cols = d.n_g0                                  # nonzero columns of G_{x,k}
    for _ in range(N):
        blocks = d.n_cs * d.n_gs + d.n_cu * d.n_gu   # A_s, A_u
        if method == "graph":
            n_g += 2 * (d.n_gs + d.n_gu)
            n_c += 2 * d.n_cs + 2 * d.n_cu + 2 * d.n_x + d.n_u
            nnz_a += blocks + d.n_cs * d.n_gs + d.n_x * (2 * d.n_gs + d.n_gu)   # Psi
            nnz_a += d.n_cu * d.n_gu + d.n_x * (d.n_gs + x_cols) + 2 * d.n_u * d.n_gu
            x_cols = d.n_gs + d.n_gu
        else:
            n_g += d.n_gs + d.n_gu
            n_c += d.n_cs + d.n_cu + d.n_x
            nnz_a += blocks + d.n_x * (x_cols + d.n_gu + d.n_gs)
            x_cols = x_cols + d.n_gu if method == "standard" else d.n_gs
        nnz_g = d.n_x * x_cols
    return n_g, n_c, nnz_g, nnz_a


def test_predict_complexity_matches_per_step_sums():
    grid = [ReachDims(n_x, n_u, n_g0, n_c0, n_gs, n_cs, n_gu, n_cu)
            for n_x, n_u in ((1, 1), (2, 1), (4, 2))
            for n_g0, n_c0 in ((1, 0), (3, 2))
            for n_gs, n_cs in ((2, 0), (5, 3))
            for n_gu, n_cu in ((1, 0), (4, 1))]
    for d in grid:
        for method in METHODS:
            for N in range(31):
                pred = predict_complexity(method, N, d)
                got = (pred.n_g, pred.n_c, pred.nnz_g_bound, pred.nnz_a_bound)
                assert got == _per_step_prediction(method, N, d), (method, N, d)


def test_predict_rejects_unknown_method(second_order):
    X0, sys = second_order
    with pytest.raises(ValueError):
        predict_complexity("magic", 3, ReachDims.of(X0, sys))


def _random_system(rng, n_x, n_u, constrained=False):
    A = rng.normal(size=(n_x, n_x))
    A *= 0.9 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
    B = rng.normal(size=(n_x, n_u))
    S = random_zonotope(rng, n_x, n_x + 1, scale=2.0)
    U = random_zonotope(rng, n_u, n_u + 1)
    if constrained:
        S = generalized_intersection(
            S, affine_map(SparseMat.eye(n_x), S, 0.1 * rng.normal(size=n_x)))
        U = generalized_intersection(
            U, affine_map(SparseMat.eye(n_u), U, 0.05 * rng.normal(size=n_u)))
    X0 = random_zonotope(rng, n_x, n_x)
    return X0, LinearSystem(SparseMat(A), SparseMat(B), S, U)


def _random_system_with_nested_x0(rng, n_x, n_u):
    """System whose X0 is contained in the state domain set, as the
    semantics of the recursions require."""
    _, sys = _random_system(rng, n_x, n_u, constrained=False)
    # a center-anchored shrink of a zonotope is contained in it
    X0 = ConZono(SparseMat(sys.S.G.tocsc() * 0.1), np.array(sys.S.c))
    return X0, sys


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("constrained", [False, True])
def test_counts_match_prediction_exactly(seed, constrained):
    rng = np.random.default_rng(seed)
    n_x, n_u = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    X0, sys = _random_system(rng, n_x, n_u, constrained)
    dims = ReachDims.of(X0, sys)
    for N in (1, 4):
        for method, fn in METHODS.items():
            X_N = fn(X0, sys, N)[-1]
            pred = predict_complexity(method, N, dims)
            assert (X_N.n_g, X_N.n_c) == (pred.n_g, pred.n_c), (method, N)
            assert X_N.G.nnz <= pred.nnz_g_bound, (method, N)
            assert X_N.A.nnz <= pred.nnz_a_bound, (method, N)


def test_cross_method_support_equality(second_order):
    X0, sys = second_order
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(32, 2))
    Xs = {m: fn(X0, sys, 15)[-1] for m, fn in METHODS.items()}
    for d in dirs:
        sup = {m: lp_support(X, d) for m, X in Xs.items()}
        assert sup["standard"] == pytest.approx(sup["graph"], abs=1e-6)
        assert sup["standard"] == pytest.approx(sup["sparse"], abs=1e-6)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cross_method_support_random_systems(seed):
    rng = np.random.default_rng(seed)
    n_x = int(rng.integers(2, 5))
    X0, sys = _random_system_with_nested_x0(rng, n_x, 1)
    N = int(rng.integers(1, 8))
    Xs = {m: fn(X0, sys, N)[-1] for m, fn in METHODS.items()}
    for _ in range(16):
        d = rng.normal(size=n_x)
        sup = {m: lp_support(X, d) for m, X in Xs.items()}
        scale = 1.0 + abs(sup["standard"])
        assert abs(sup["standard"] - sup["graph"]) <= 1e-6 * scale
        assert abs(sup["standard"] - sup["sparse"]) <= 1e-6 * scale


def test_sparse_scaling_law(second_order):
    X0, sys = second_order
    horizons = np.arange(1, 21)
    nnz_a = []
    nnz_g = []
    for N in horizons:
        X_N = reach_sparse(X0, sys, N)[-1]
        nnz_a.append(X_N.A.nnz)
        nnz_g.append(X_N.G.nnz)
    assert len(set(nnz_g)) == 1  # constant in the horizon
    coeffs, residuals, *_ = np.polyfit(horizons, nnz_a, 1, full=True)
    ss_tot = np.sum((nnz_a - np.mean(nnz_a)) ** 2)
    r2 = 1.0 - (residuals[0] if len(residuals) else 0.0) / ss_tot
    assert r2 > 0.999


def test_standard_scaling_quadratic(second_order):
    X0, sys = second_order
    horizons = np.arange(1, 21)
    nnz_a = [reach_standard(X0, sys, N)[-1].A.nnz for N in horizons]
    quad = np.polyfit(horizons, nnz_a, 2)
    assert quad[0] > 0


def test_monotone_containment_under_input_shrink(second_order):
    X0, sys = second_order
    rng = np.random.default_rng(3)
    shrunk = LinearSystem(sys.A, sys.B, sys.S, point_set(np.zeros(1)))
    X_full = reach_standard(X0, sys, 8)[-1]
    X_none = reach_standard(X0, shrunk, 8)[-1]
    for _ in range(16):
        d = rng.normal(size=2)
        assert lp_support(X_none, d) <= lp_support(X_full, d) + 1e-9


def test_dimension_mismatch_errors(second_order):
    X0, sys = second_order
    bad = point_set([1.0, 2.0, 3.0])
    for fn in METHODS.values():
        with pytest.raises(ValueError):
            fn(bad, sys, 2)


@pytest.mark.parametrize("method", METHODS)
def test_horizon_must_be_a_nonnegative_integer(second_order, method):
    X0, sys = second_order
    with pytest.raises(TypeError):
        METHODS[method](X0, sys, 2.7)
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        METHODS[method](X0, sys, -1)
    assert len(METHODS[method](X0, sys, np.int64(2))) == 3


def _measured_system(dt=1.0):
    A = SparseMat(np.array([[1.0, dt], [0.0, 1.0]]))
    B = SparseMat(np.array([[0.5 * dt ** 2], [dt]]))
    S = interval_to_zono(IntervalBox([-100.0, -100.0], [100.0, 100.0]))
    U = interval_to_zono(IntervalBox([-1.0], [1.0]))
    C = SparseMat(np.eye(2))
    return LinearSystem(A, B, S, U, C=C)


def test_svse_singleton_propagation():
    sys = _measured_system()
    x = np.array([1.0, -0.5])
    u = np.array([0.3])
    x_next = sys.A.matvec(x) + sys.B.matvec(u)
    W = point_set(np.zeros(2))
    V = point_set(np.zeros(2))
    for step in (svse_step_standard, svse_step_sparse):
        out = step(point_set(x), sys, W, V, u, x_next)
        for d in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])):
            assert lp_support(out, d) == pytest.approx(d @ x_next, abs=1e-9)
            assert lp_support(out, -d) == pytest.approx(-d @ x_next, abs=1e-9)


def test_svse_steps_agree_and_sparse_is_sparser(rng):
    sys = _measured_system()
    X = random_zonotope(rng, 2, 3)
    W = ConZono(SparseMat(0.1 * rng.normal(size=(2, 2))), np.zeros(2))
    V = ConZono(SparseMat(0.3 * rng.normal(size=(2, 2))), np.zeros(2))
    u = rng.normal(size=1)
    # a consistent measurement: propagate a sample and corrupt it within V
    x_s = X.point(rng.uniform(-1, 1, size=3))
    w_s = W.point(rng.uniform(-1, 1, size=2))
    y = sys.A.matvec(x_s) + sys.B.matvec(u) + w_s + V.point(rng.uniform(-1, 1, size=2))
    out_std = svse_step_standard(X, sys, W, V, u, y)
    out_sp = svse_step_sparse(X, sys, W, V, u, y)
    for _ in range(16):
        d = rng.normal(size=2)
        s1, s2 = lp_support(out_std, d), lp_support(out_sp, d)
        assert abs(s1 - s2) <= 1e-6 * (1.0 + abs(s1))
    assert out_sp.A.nnz < out_std.A.nnz


def test_svse_result_is_sound(rng):
    sys = _measured_system()
    x = np.array([0.2, -0.1])
    X = interval_to_zono(IntervalBox(x - 0.5, x + 0.5))
    W = interval_to_zono(IntervalBox([-0.05, -0.05], [0.05, 0.05]))
    V = interval_to_zono(IntervalBox([-0.2, -0.2], [0.2, 0.2]))
    for _ in range(10):
        u = rng.uniform(-1, 1, size=1)
        w = rng.uniform(-0.05, 0.05, size=2)
        x = sys.A.matvec(x) + sys.B.matvec(u) + w
        y = x + rng.uniform(-0.2, 0.2, size=2)
        X = svse_step_sparse(X, sys, W, V, u, y)
        assert lp_contains(X, x)


def test_svse_result_stays_in_domain(rng):
    sys = _measured_system()
    dom = interval_to_zono(IntervalBox([-3.0, -3.0], [3.0, 3.0]))
    sys = LinearSystem(sys.A, sys.B, dom, sys.U, C=sys.C)
    X = ConZono(SparseMat(rng.normal(size=(2, 3))), np.array([0.2, -0.1]))
    u = np.array([0.5])
    W = ConZono(SparseMat(0.05 * rng.normal(size=(2, 2))), np.zeros(2))
    V = ConZono(SparseMat(0.2 * np.eye(2)), np.zeros(2))
    y = sys.A.matvec(X.c) + sys.B.matvec(u)
    out = svse_step_standard(X, sys, W, V, u, y)
    for k in range(4):
        d = np.array([np.cos(k * np.pi / 2), np.sin(k * np.pi / 2)])
        assert lp_support(out, d) <= lp_support(dom, d) + 1e-9


def test_svse_requires_measurement_map(second_order):
    X0, sys = second_order
    with pytest.raises(ValueError, match="measurement"):
        svse_step_sparse(X0, sys, X0, X0, np.zeros(1), np.zeros(2))
    # a measurement of the wrong length is refused, not broadcast
    sys = _measured_system()
    W = V = point_set(np.zeros(2))
    for step in (svse_step_standard, svse_step_sparse):
        with pytest.raises(ValueError, match="measurement of length 1"):
            step(point_set([1.0, -0.5]), sys, W, V, np.array([0.3]), np.array([1.0]))


def test_reach_dims_checks_its_counts():
    # each field is read by the count rule on construction, named by the field
    with pytest.raises(ValueError, match="^n_x must be nonnegative, got -1$"):
        predict_complexity("sparse", 2, ReachDims(-1, 1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="^n_u must be nonnegative, got -5$"):
        predict_complexity("standard", 2, ReachDims(2, -5, 1, 0, 1, 0, 1, 0))
    with pytest.raises(TypeError):
        ReachDims(2, 1, 1, 0, 1, 0, 1, 0.5)
