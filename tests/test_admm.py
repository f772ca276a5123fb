import dataclasses
import inspect

import numpy as np
import pytest

from conzopt import (
    AdmmResult,
    AdmmSettings,
    ConZono,
    EmptySetError,
    IndeterminateResultError,
    IntervalBox,
    QpProblem,
    RankDeficiencyError,
    SparseMat,
    admm_solve,
    bounding_box,
    check_empty,
    contains_point,
    generalized_intersection,
    infeasibility_check,
    interval_to_zono,
    is_empty,
    make_regular_polygon,
    point_set,
    reach_graph,
    reach_sparse,
    reach_standard,
    reduce_feasibility,
    reduce_qp,
    reduce_support,
    support,
    support_batch,
    zonotope_support,
)
from conzopt.admm import _iterate_batch, _separation
from conzopt.scenarios import second_order_scenario
from oracles import (
    box_qp_oracle,
    certificate_is_valid,
    lp_contains,
    lp_is_empty,
    lp_support,
    random_conzono,
    random_zonotope,
)


def unit_box(n=2):
    return interval_to_zono(IntervalBox(-np.ones(n), np.ones(n)))


def shifted_box(shift):
    shift = np.asarray(shift, dtype=float)
    return interval_to_zono(IntervalBox(shift - 1.0, shift + 1.0))


def interval_pair(a, b, c, d):
    return generalized_intersection(
        interval_to_zono(IntervalBox([a], [b])),
        interval_to_zono(IntervalBox([c], [d])),
    )


@pytest.mark.parametrize("kwargs", [
    {"rho": float("nan")}, {"rho": float("inf")}, {"rho": 0.0},
    {"eps_primal": float("inf")}, {"eps_primal": float("nan")}, {"eps_dual": float("inf")},
    {"eps_dual": -1e-3}, {"max_iter": -1}, {"max_iter": 0}, {"k_inf": -1}, {"k_inf": 0},
])
def test_settings_reject_invalid_values(kwargs):
    with pytest.raises(ValueError):
        AdmmSettings(**kwargs)


@pytest.mark.parametrize("kwargs", [{"max_iter": 2.5}, {"k_inf": 1.0}])
def test_settings_reject_non_integer_counts(kwargs):
    # counts follow the library's one rule: a float, even an integral one, is a TypeError
    with pytest.raises(TypeError):
        AdmmSettings(**kwargs)


def test_settings_accept_numpy_integers():
    s = AdmmSettings(k_inf=np.int64(3), max_iter=np.int32(10))
    assert (s.k_inf, s.max_iter) == (3, 10)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_unit_box_identity_cost():
    Z = unit_box()
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), Z))
    assert np.array_equal(red.q_tilde, np.zeros(2))
    assert np.array_equal(red.M.toarray(), 2.0 * np.eye(2))


def test_reduce_hexagon_saddle_size():
    hexa = make_regular_polygon(6, 1.0)
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), hexa))
    gtg = hexa.G.toarray().T @ hexa.G.toarray() + np.eye(3)
    assert red.M.shape == (3, 3)
    assert red.M.nnz <= 9
    assert np.allclose(red.M.toarray(), gtg)


def test_reduce_lifted_hexagon_nnz_bound():
    hexa = make_regular_polygon(6, 1.0)
    G_lift = SparseMat(np.hstack([np.eye(2), np.zeros((2, 3))]))
    A_lift = SparseMat(np.hstack([np.eye(2), -hexa.G.toarray()]))
    lifted = ConZono(G_lift, np.zeros(2), A_lift, np.zeros(2))
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), lifted))
    assert red.M.nnz <= 21


def test_reduce_rejects_asymmetric_cost():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(SparseMat([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), unit_box())


def test_reduced_saddle_factor_matches_dense_oracle():
    from oracles import dense_ldlt

    Z = generalized_intersection(unit_box(), shifted_box([0.5, 0.0]))
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), Z))
    M = red.M.toarray()
    L_ref, D_ref = dense_ldlt(M)
    L = red.factor_m.L.toarray()
    assert np.allclose(L, L_ref, atol=1e-12)
    assert np.max(np.abs(L @ np.diag(red.factor_m.D) @ L.T - M)) <= 1e-10 * (1 + np.max(np.abs(M)))


def test_reduce_flags_redundant_constraints():
    # duplicated constraint row violates the full-row-rank assumption
    Z = ConZono(
        SparseMat.eye(2), np.zeros(2),
        SparseMat([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]),
    )
    with pytest.raises(RankDeficiencyError, match="redundant"):
        reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), Z))


@pytest.mark.parametrize("Z, pivot", [(unit_box(), 0), (make_regular_polygon(6, 1.0), 1)])
def test_reduce_rejects_a_nonconvex_cost(Z, pivot):
    # P = -2 I: P~ + rho I = I - 2 G^T G has a negative pivot first on the box, where the
    # splitting would otherwise run to its iteration limit, and a zero one second on the
    # hexagon, which has no constraint row to blame
    with pytest.raises(RankDeficiencyError, match="not positive definite, so the cost is not convex") as err:
        reduce_qp(QpProblem(SparseMat.eye(2, -2.0), [0.1, 0.0], Z))
    assert err.value.pivot_index == pivot


def _reductions(Z):
    # one ReducedQp per mode: QP with a diagonal cost that is not a multiple of I
    # in factor space, feasibility, and support
    P = SparseMat(np.diag(np.linspace(0.5, 3.0, Z.dim)))
    return [lambda: reduce_qp(QpProblem(P, np.ones(Z.dim), Z)),
            lambda: reduce_feasibility(Z), lambda: reduce_support(Z)]


def test_reduced_qp_factors_only_the_saddle_matrix(rng, monkeypatch):
    import conzopt.admm as admm_module

    factored = []
    real = admm_module.ldlt_factorize
    monkeypatch.setattr(admm_module, "ldlt_factorize", lambda m: factored.append(m) or real(m))
    for Z in (unit_box(3), random_conzono(rng, 3)):
        for reduce in _reductions(Z):
            factored.clear()
            red = reduce()
            assert len(factored) == 1
            assert factored[0] is red.M


def test_each_reduction_builds_only_the_saddle_and_its_factor(rng, monkeypatch):
    # P~ stays the arrays of its product, and no identity or zero matrix is built for H
    built = []
    init = SparseMat.__init__
    monkeypatch.setattr(SparseMat, "__init__", lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    for Z in (unit_box(3), random_conzono(rng, 3)):
        for reduce in _reductions(Z):
            built.clear()
            red = reduce()
            assert built == [red.M, red.factor_m.L]


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]],                      # duplicated
    [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [-2.0, -4.0, 0.0]],   # scaled
    [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]],     # summed
])
def test_dependent_rows_raise_rank_error_from_every_reduction(rows):
    A = np.array(rows)
    Z = ConZono(SparseMat.eye(3), np.zeros(3), SparseMat(A), A @ np.array([0.1, -0.2, 0.3]))
    for reduce in _reductions(Z):
        with pytest.raises(RankDeficiencyError, match="pivot"):
            reduce()


def test_separation_is_euclidean_projection_for_scalar_cost(rng):
    # feasibility (H = (1 + rho) I) and support (H = rho I): the H-weighted
    # projection from the saddle solve is the least-squares one
    for settings in (AdmmSettings(), AdmmSettings(rho=0.3)):
        for n in (2, 3, 4):
            Z = random_conzono(rng, n)
            A = Z.A.toarray()
            xi, zeta = rng.normal(size=(2, Z.n_g, 5))
            y, *_ = np.linalg.lstsq(A.T, zeta - xi, rcond=None)
            expected = A.T @ y
            for red in (reduce_feasibility(Z, settings), reduce_support(Z, settings)):
                v, _ = _separation(red, xi, zeta)
                assert np.max(np.abs(v - expected)) <= 1e-10 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# solving


def test_clamped_unconstrained_optimum():
    Z = unit_box()
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.array([-2.0, 0.0]), Z))
    res = admm_solve(red)
    assert res.status == "converged"
    assert np.allclose(res.x_star, [1.0, 0.0], atol=1e-2)


def test_nearest_point_in_shifted_box():
    Z = shifted_box([2.0, 0.0])
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), Z))
    res = admm_solve(red)
    assert np.allclose(res.x_star, [1.0, 0.0], atol=1e-2)


def test_converged_iterate_invariants(rng):
    Z = random_conzono(rng, 3)
    red = reduce_qp(QpProblem(SparseMat.eye(3), rng.normal(size=3), Z))
    settings = AdmmSettings(eps_primal=1e-6, eps_dual=1e-6, max_iter=20000)
    res = admm_solve(red, settings)
    assert res.status == "converged"
    assert np.all(np.abs(res.zeta) <= 1.0)
    feas = Z.A.matvec(res.xi) - Z.b
    assert np.max(np.abs(feas)) <= 1e-6 * (1.0 + np.max(np.abs(Z.b)))
    rp = np.linalg.norm(res.xi - res.zeta)
    assert rp < np.sqrt(Z.n_g) * 1e-6


def test_admm_solve_rejects_cost_of_wrong_length():
    red = reduce_support(unit_box(4))
    for q in ([5.0], [5.0, 1.0], np.zeros(8)):
        with pytest.raises(ValueError, match=f"length {len(q)} does not match 4"):
            admm_solve(red, q_tilde=q)


def test_solve_iterates_with_the_rho_of_its_factor():
    # the factor was built with rho = 1; a solve passed rho = 0.1 still
    # iterates with 1, so it matches the closed form and the rho = 1 solve
    Z = make_regular_polygon(6, 1.0)
    d = np.array([1.0, 0.3])
    reduced = reduce_support(Z)
    q = -Z.G.rmatvec(d)
    other = admm_solve(reduced, AdmmSettings(rho=0.1, eps_primal=1e-8, eps_dual=1e-8), q_tilde=q)
    same = admm_solve(reduced, AdmmSettings(rho=reduced.rho, eps_primal=1e-8, eps_dual=1e-8), q_tilde=q)
    assert other.status == "converged"
    assert d @ other.x_star == pytest.approx(zonotope_support(Z, d), abs=1e-6)
    assert other.iterations == same.iterations
    assert np.array_equal(other.x_star, same.x_star)
    assert np.array_equal(other.residuals, same.residuals)


def test_deterministic_iterates(rng):
    Z = random_conzono(rng, 3)
    prob = QpProblem(SparseMat.eye(3), np.array([0.3, -0.2, 0.1]), Z)
    r1 = admm_solve(reduce_qp(prob))
    r2 = admm_solve(reduce_qp(prob))
    assert np.array_equal(r1.x_star, r2.x_star)
    assert np.array_equal(r1.residuals, r2.residuals)
    assert r1.iterations == r2.iterations


def test_warm_start_resumes():
    Z = unit_box()
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.array([-2.0, 0.0]), Z))
    cold = admm_solve(red)
    warm = admm_solve(red, warm=(cold.xi, cold.zeta, cold.u))
    assert warm.iterations <= cold.iterations
    assert np.allclose(warm.x_star, cold.x_star, atol=1e-6)


def test_iteration_limit_returns_best_iterates():
    Z = unit_box()
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.array([-2.0, 0.0]), Z))
    res = admm_solve(red, AdmmSettings(max_iter=2, eps_primal=1e-12, eps_dual=1e-12))
    assert res.status == "iteration-limit"
    assert res.iterations == 2
    assert res.x_star.shape == (2,)


def test_the_last_iteration_converges_or_hits_the_limit():
    # a solve whose stopping test first passes at iteration K
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.array([-2.0, 0.0]), unit_box()))
    K = admm_solve(red).iterations
    at_k = admm_solve(red, AdmmSettings(max_iter=K))
    assert (at_k.status, at_k.iterations) == ("converged", K)
    before = admm_solve(red, AdmmSettings(max_iter=K - 1))
    assert (before.status, before.iterations) == ("iteration-limit", K - 1)
    # in a batch, a column that stops later than K reports the limit at K
    later = np.array([-8.0, 3.0])
    assert admm_solve(red, q_tilde=later).iterations > K
    first, second = _iterate_batch(red, np.column_stack([red.q_tilde, later]), AdmmSettings(max_iter=K))
    assert (first.status, first.iterations) == ("converged", K)
    assert (second.status, second.iterations) == ("iteration-limit", K)


def test_iterate_batch_keeps_the_names_the_benchmark_tracer_reads():
    # perfbench/tracer.py counts iterations and certificate checks by binding
    # _iterate_batch's reduced and settings by name and reading each result's
    # iterations and status; a rename would make it count zero without an error
    assert {"reduced", "settings"} <= set(inspect.signature(_iterate_batch).parameters)
    assert {"iterations", "status"} <= {f.name for f in dataclasses.fields(AdmmResult)}


def test_inf_norm_criterion():
    Z = unit_box()
    red = reduce_qp(QpProblem(SparseMat.eye(2), np.array([-2.0, 0.0]), Z))
    res = admm_solve(red, AdmmSettings(norm="inf"))
    assert res.status == "converged"
    assert np.allclose(res.x_star, [1.0, 0.0], atol=1e-2)


@pytest.mark.parametrize("seed", range(5))
def test_matches_active_set_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 5))
    n_g = int(rng.integers(2, 7))
    n_c = int(rng.integers(0, 3))
    Z = _feasible_conzono(rng, n, n_g, n_c)
    L = rng.normal(size=(n, n))
    P = SparseMat(L @ L.T + 0.1 * np.eye(n))
    q = rng.normal(size=n)
    red = reduce_qp(QpProblem(P, q, Z))
    settings = AdmmSettings(eps_primal=1e-6, eps_dual=1e-6, max_iter=50000)
    res = admm_solve(red, settings)
    assert res.status == "converged"
    p_tilde = Z.G.toarray().T @ P.toarray() @ Z.G.toarray()
    obj = 0.5 * res.xi @ p_tilde @ res.xi + red.q_tilde @ res.xi
    best, xi_best, unique = box_qp_oracle(p_tilde, red.q_tilde, Z.A.toarray(), Z.b)
    assert obj <= best + 1e-4 * (1.0 + abs(best))
    assert obj >= best - 1e-6 * (1.0 + abs(best))
    if unique:
        assert np.max(np.abs(res.zeta - xi_best)) <= 1e-3


def _feasible_conzono(rng, n, n_g, n_c):
    G = rng.normal(size=(n, n_g))
    c = rng.normal(size=n)
    if n_c == 0:
        return ConZono(SparseMat(G), c)
    A = rng.normal(size=(n_c, n_g))
    xi0 = rng.uniform(-0.7, 0.7, size=n_g)
    return ConZono(SparseMat(G), c, SparseMat(A), A @ xi0)


# ---------------------------------------------------------------------------
# infeasibility certificates


def test_certificate_hand_example():
    Z = interval_pair(0.0, 1.0, 2.0, 3.0)
    red = reduce_support(Z)
    xi = np.array([2.0, -2.0])      # satisfies 0.5 xi0 - 0.5 xi1 = 2
    zeta = np.clip(xi, -1.0, 1.0)
    v = infeasibility_check(red, xi, zeta)
    assert v is not None
    # any positive multiple of (0.5, -0.5) separates the affine set from the box
    assert v[0] < 0 or v[0] > 0
    assert np.allclose(v / v[0], [1.0, -1.0])
    assert certificate_is_valid(Z, v)


def test_certificate_absent_on_feasible_iterates():
    Z = interval_pair(0.0, 1.0, 0.5, 2.0)
    red = reduce_support(Z)
    xi = np.array([1.0, -0.5])
    assert infeasibility_check(red, xi, np.clip(xi, -1, 1)) is None


def test_empty_interval_intersection_certified_fast():
    Z = interval_pair(0.0, 1.0, 2.0, 3.0)
    settings = AdmmSettings(k_inf=1)
    res = check_empty(Z, settings)
    assert res.status == "infeasible"
    assert res.iterations <= settings.k_inf
    assert certificate_is_valid(Z, res.certificate)
    assert is_empty(Z, settings)


def test_no_false_certificate_on_feasible_set(rng):
    # zero factor point is feasible; the check must never fire
    Z = _feasible_conzono(rng, 3, 6, 2)
    Z = ConZono(Z.G, Z.c, Z.A, np.zeros(2))
    red = reduce_qp(QpProblem(SparseMat.eye(3), rng.normal(size=3), Z))
    res = admm_solve(red, AdmmSettings(k_inf=1, max_iter=1000,
                                       eps_primal=1e-12, eps_dual=1e-12))
    assert res.status != "infeasible"
    assert not lp_is_empty(Z)


def test_is_empty_basics():
    assert not is_empty(unit_box())
    assert is_empty(interval_pair(0.0, 1.0, 2.0, 3.0), AdmmSettings(k_inf=1))
    assert not is_empty(interval_pair(0.0, 1.0, 0.25, 2.0))


def test_is_empty_point_sets():
    Z = point_set([1.0, 2.0])
    assert not is_empty(Z)
    pinned = ConZono(SparseMat.zeros(1, 0), np.zeros(1),
                     SparseMat.zeros(2, 0), np.array([0.0, 1.0]))
    assert is_empty(pinned)


def test_is_empty_contradictory_rows_raises_rank_error():
    Z = ConZono(
        SparseMat.eye(2), np.zeros(2),
        SparseMat([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]),
    )
    with pytest.raises(RankDeficiencyError):
        is_empty(Z)


def test_is_empty_indeterminate_raises():
    Z = interval_pair(0.0, 1.0, 0.25, 2.0)
    with pytest.raises(IndeterminateResultError):
        is_empty(Z, AdmmSettings(max_iter=1, k_inf=100,
                                 eps_primal=1e-12, eps_dual=1e-12))


def test_random_empty_intersections_certified(rng):
    settings = AdmmSettings(k_inf=1, max_iter=1000)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        c1 = rng.normal(size=n)
        gap = 2.5 + rng.random()
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        Z1 = interval_to_zono(IntervalBox(c1 - 1, c1 + 1))
        Z2 = interval_to_zono(IntervalBox(c1 + gap * direction - 1, c1 + gap * direction + 1))
        Z = generalized_intersection(Z1, Z2)
        assert lp_is_empty(Z)
        res = check_empty(Z, settings)
        assert res.status == "infeasible"
        assert certificate_is_valid(Z, res.certificate)


def test_qp_mode_certificates_lie_in_row_space_and_separate(rng):
    # a diagonal cost that is not a multiple of I makes the projection
    # H-weighted; its certificate is still some A^T y and still separates
    settings = AdmmSettings(k_inf=1, max_iter=1000)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        c1 = rng.normal(size=n)
        direction = rng.normal(size=n)
        direction /= np.max(np.abs(direction))
        Z = generalized_intersection(shifted_box(c1), shifted_box(c1 + (2.5 + rng.random()) * direction))
        P = SparseMat(np.diag(rng.uniform(0.2, 5.0, size=n)))
        res = admm_solve(reduce_qp(QpProblem(P, rng.normal(size=n), Z)), settings)
        assert res.status == "infeasible"
        v = res.certificate
        A = Z.A.toarray()
        y, *_ = np.linalg.lstsq(A.T, v, rcond=None)
        assert np.max(np.abs(A.T @ y - v)) <= 1e-10 * np.max(np.abs(v))
        assert abs(v @ res.xi) > np.sum(np.abs(v))
        # the inequality the solver certifies: no point of the unit box meets A xi = b
        assert abs(Z.b @ y) > np.sum(np.abs(v))
        assert certificate_is_valid(Z, v)


def _touching_boxes(rng):
    # a dyadic box under a dyadic diagonal map R, intersected through R with a dyadic box
    # that touches its image on one face or at a corner: every entry and the one common
    # face or point are exact, so the set is nonempty in floating point too
    n = int(rng.integers(1, 4))
    lo = rng.integers(-16, 16, size=n) / 8
    hi = lo + rng.integers(1, 17, size=n) / 8
    scale = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0], size=n)
    image_lo, image_hi = np.minimum(scale * lo, scale * hi), np.maximum(scale * lo, scale * hi)
    touch = np.ones(n, bool) if rng.random() < 0.5 else np.arange(n) == rng.integers(n)
    width = rng.integers(1, 17, size=n) / 8
    mid = (image_lo + image_hi) / 2
    lo2 = np.where(touch, np.where(rng.random(n) < 0.5, image_hi, image_lo - width), mid - width)
    return generalized_intersection(interval_to_zono(IntervalBox(lo, hi)),
                                    interval_to_zono(IntervalBox(lo2, lo2 + width)), np.diag(scale))


def test_no_certificate_on_touching_boxes(rng):
    # each set is a face or a point, nonempty in exact arithmetic, so |b . y| <= ||A^T y||_1
    # for every y, with equality at the touching ones: only a test blind to rounding fires
    sets = [_touching_boxes(rng) for _ in range(60)]
    sets += [generalized_intersection(interval_to_zono(IntervalBox([0.0, 0.0], [1.0, 3.0])),
                                      interval_to_zono(IntervalBox([1.0, 3.0], [2.0, 4.0]))),
             interval_pair(0.0, 0.5, 0.5, 2.0)]
    for Z in sets:
        assert not lp_is_empty(Z)
        assert check_empty(Z, AdmmSettings(k_inf=1)).status == "converged"
        assert not is_empty(Z)


# ---------------------------------------------------------------------------
# queries


def test_support_examples():
    assert support(unit_box(), [1.0, 1.0]) == pytest.approx(2.0, abs=2e-2)
    hexa = make_regular_polygon(6, 1.0)
    assert support(hexa, [0.0, 1.0]) == pytest.approx(1.0, abs=2e-2)
    Z = interval_pair(0.0, 1.0, 0.25, 2.0)
    assert support(Z, [1.0]) == pytest.approx(1.0, abs=2e-2)


def test_support_of_empty_set_raises():
    with pytest.raises(EmptySetError):
        support(interval_pair(0.0, 1.0, 2.0, 3.0), [1.0], AdmmSettings(k_inf=1))


def test_support_batch_matches_single(rng):
    # a batch column leaves at its own stopping iteration and meets the same
    # arithmetic as a lone column, so the results agree bit for bit
    settings = AdmmSettings(eps_primal=1e-6, eps_dual=1e-6, max_iter=50000)
    cases = [(random_conzono(rng, 2), rng.normal(size=(2, 6)))]
    X0, sys = second_order_scenario()
    dirs = np.random.default_rng(20240501).normal(size=(2, 32))
    dirs /= np.linalg.norm(dirs, axis=0)
    for recursion in (reach_standard, reach_graph, reach_sparse):
        cases += [(recursion(X0, sys, N)[-1], dirs) for N in (1, 5)]
    for Z, D in cases:
        reduced = reduce_support(Z, settings)
        q_cols = -Z.G.rmatvec(D)
        batch = _iterate_batch(reduced, q_cols, settings)
        for j in range(D.shape[1]):
            single = admm_solve(reduced, settings, q_tilde=q_cols[:, j])
            assert batch[j].status == single.status == "converged"
            assert batch[j].iterations == single.iterations
            assert np.array_equal(batch[j].x_star, single.x_star)
    # with a gap, status, iterations and iterates agree bit for bit too; the bound's sums
    # run over the batch's columns at once, so its last bits may differ
    Z, D = cases[0]
    reduced = reduce_support(Z, settings)
    q_cols = -Z.G.rmatvec(D)
    for gap, status in ((0.05, "bounded"), (-np.inf, "converged")):
        batch = _iterate_batch(reduced, q_cols, settings, gap=gap)
        for j in range(D.shape[1]):
            single, = _iterate_batch(reduced, q_cols[:, [j]], settings, gap=gap)
            assert batch[j].status == single.status == status
            assert batch[j].iterations == single.iterations
            assert np.array_equal(batch[j].x_star, single.x_star)
            assert batch[j].bound == pytest.approx(single.bound, rel=1e-13, abs=0.0)
    # a support value is d . x_star, so equal iterates give equal values
    assert support_batch(Z, D, settings).tolist() == [support(Z, d, settings) for d in D.T]
    assert support_batch(Z, np.zeros((2, 0)), settings).shape == (0,)


def test_support_batch_takes_directions_as_columns_only():
    hexa = make_regular_polygon(6, 1.0)
    for rows in (np.ones((3, 2)), np.ones(2), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match=r"shape \(2, m\)"):
            support_batch(hexa, rows)
    # a square array is read by columns: (1, 0) and (0.3, 1)
    settings = AdmmSettings(eps_primal=1e-8, eps_dual=1e-8)
    D = np.array([[1.0, 0.3], [0.0, 1.0]])
    values = support_batch(hexa, D, settings)
    assert values == pytest.approx([zonotope_support(hexa, d) for d in D.T], abs=1e-6)


def test_support_matches_zonotope_closed_form(rng):
    Z = random_zonotope(rng, 3, 5)
    settings = AdmmSettings(eps_primal=1e-7, eps_dual=1e-7, max_iter=50000)
    for _ in range(5):
        d = rng.normal(size=3)
        assert support(Z, d, settings) == pytest.approx(zonotope_support(Z, d), abs=1e-4)


def test_bounding_box_round_trips_axis_box():
    Z = shifted_box([0.5, -0.25])
    box = bounding_box(Z)
    assert np.allclose(box.lo, [-0.5, -1.25], atol=2e-2)
    assert np.allclose(box.hi, [1.5, 0.75], atol=2e-2)


def test_bounding_box_hexagon_matches_closed_form():
    hexa = make_regular_polygon(6, 1.0)
    box = bounding_box(hexa, AdmmSettings(eps_primal=1e-6, eps_dual=1e-6, max_iter=20000))
    for i, d in enumerate(np.eye(2)):
        assert box.hi[i] == pytest.approx(zonotope_support(hexa, d), abs=1e-4)
        assert box.lo[i] == pytest.approx(-zonotope_support(hexa, -d), abs=1e-4)


def test_bounding_box_contains_sampled_points(rng):
    Z = random_conzono(rng, 3)
    box = bounding_box(Z, AdmmSettings(eps_primal=1e-6, eps_dual=1e-6, max_iter=50000))
    A, b = Z.A.toarray(), Z.b
    kept = 0
    pinv = np.linalg.pinv(A)
    for _ in range(1000):
        xi = rng.uniform(-1, 1, size=Z.n_g)
        xi = xi - pinv @ (A @ xi - b)  # project onto the constraint rows
        if np.max(np.abs(xi)) > 1.0:
            continue
        kept += 1
        x = Z.point(xi)
        assert np.all(x >= box.lo - 1e-4) and np.all(x <= box.hi + 1e-4)
    assert kept > 100


def test_bounding_box_contains_the_exact_box_at_any_tolerance(rng):
    # the sides are weak-duality bounds, so a loose tolerance widens the box but never
    # cuts into the set (support estimates at eps 0.1 fell 0.23 inside it)
    for eps in (1e-1, 1e-2):
        for _ in range(4):
            Z = random_conzono(rng, 3)
            box = bounding_box(Z, AdmmSettings(eps_primal=eps, eps_dual=eps, max_iter=50000))
            for i, d in enumerate(np.eye(3)):
                assert box.hi[i] >= lp_support(Z, d) - 1e-9 and box.lo[i] <= -lp_support(Z, -d) + 1e-9


def test_bounding_box_empty_raises():
    with pytest.raises(EmptySetError):
        bounding_box(interval_pair(0.0, 1.0, 2.0, 3.0), AdmmSettings(k_inf=1))


def test_contains_center_and_outside_point():
    Z = unit_box()
    assert contains_point(Z, [0.0, 0.0])
    assert contains_point(Z, Z.c)
    assert not contains_point(Z, [2.0, 0.0])


def test_contains_point_matches_lp_oracle(rng):
    Z = random_conzono(rng, 2)
    settings = AdmmSettings(max_iter=20000)
    for _ in range(50):
        x = Z.c + rng.normal(size=2) * 1.5
        assert contains_point(Z, x, settings) == lp_contains(Z, x)


def test_contains_point_dimension_error():
    with pytest.raises(ValueError):
        contains_point(unit_box(), [1.0])


@pytest.mark.parametrize("call", [
    lambda Z: contains_point(Z, [np.nan, 0.0]),
    lambda Z: support(Z, [np.nan, 1.0]),
    lambda Z: support(Z, [np.inf, 1.0]),
    lambda Z: support_batch(Z, np.array([[1.0, 0.0], [-np.inf, 1.0]])),
    lambda Z: QpProblem(SparseMat.eye(2), [np.nan, 0.0], Z),
    lambda Z: QpProblem(SparseMat.eye(2, np.inf), np.zeros(2), Z),
    lambda Z: admm_solve(reduce_qp(QpProblem(SparseMat.eye(2), np.zeros(2), Z)), q_tilde=[np.nan, 1.0]),
], ids=["contains_point", "support-nan", "support-inf", "support_batch", "qp-q", "qp-P", "admm_solve"])
def test_non_finite_input_rejected_on_entry(call):
    # a NaN or infinite input would otherwise run to the iteration limit
    Z = make_regular_polygon(6, 1.0)
    with pytest.raises(ValueError, match="non-finite|has a NaN or infinite entry"):
        call(Z)


def test_contains_point_flat_set():
    # zero-width coordinate: decided exactly, no rank failure
    flat = interval_to_zono(IntervalBox([0.0, 3.0], [2.0, 3.0]))
    assert contains_point(flat, [1.0, 3.0])
    assert not contains_point(flat, [1.0, 3.0 + 1e-9])
    assert not contains_point(flat, [3.0, 3.0])
    assert contains_point(point_set([1.0, 2.0]), [1.0, 2.0])
    assert not contains_point(point_set([1.0, 2.0]), [1.0, 2.5])


def _flat_box_intersection(y):
    # two boxes flat in y: the y row of the intersection's constraints stores no entry
    # and reads 0 = y - 3, so the set is empty exactly when y != 3
    return generalized_intersection(interval_to_zono(IntervalBox([0.0, 3.0], [2.0, 3.0])),
                                    interval_to_zono(IntervalBox([1.0, y], [4.0, y])))


def test_empty_constraint_rows_are_decided_without_a_factorization(monkeypatch):
    import conzopt.admm as admm_module

    overlapping, disjoint = _flat_box_intersection(3.0), _flat_box_intersection(4.0)
    res = check_empty(overlapping)
    assert res.status == "converged"
    assert res.x_star[1] == 3.0 and 1.0 - 2e-2 <= res.x_star[0] <= 2.0 + 2e-2
    monkeypatch.setattr(admm_module, "ldlt_factorize", None)
    res = check_empty(disjoint)
    assert (res.status, res.iterations, res.certificate) == ("infeasible", 0, None)
    assert is_empty(disjoint)
    with pytest.raises(EmptySetError):
        support(disjoint, [1.0, 0.0])


def test_support_drops_empty_rows_with_a_zero_rhs():
    Z, tight = _flat_box_intersection(3.0), AdmmSettings(eps_primal=1e-6, eps_dual=1e-6)
    assert support(Z, [1.0, 0.0], tight) == pytest.approx(2.0, abs=1e-4)
    box = bounding_box(Z, tight)
    assert np.allclose([box.lo, box.hi], [[1.0, 3.0], [2.0, 3.0]], atol=1e-4)


def test_empty_rows_are_dropped_exactly():
    # constraint rows that store no entry, first, inside and last, each with b_i = 0: check_empty
    # and support_batch see the set that never had them, bit for bit; with every row empty,
    # the set that has no constraints
    rng = np.random.default_rng(3)
    G, c, dirs = SparseMat(rng.normal(size=(2, 5))), np.array([0.5, -1.0]), rng.normal(size=(2, 4))
    A = np.zeros((6, 5))
    A[[1, 2, 4]] = rng.normal(size=(3, 5))
    b = A @ rng.uniform(-0.5, 0.5, size=5)
    cases = [(ConZono(G, c, SparseMat(A), b), ConZono(G, c, SparseMat(A[[1, 2, 4]]), b[[1, 2, 4]])),
             (ConZono(G, c, SparseMat.zeros(3, 5), np.zeros(3)), ConZono(G, c))]
    for Z, ref in cases:
        got, want = check_empty(Z), check_empty(ref)
        assert got.status == want.status == "converged" and got.iterations == want.iterations
        np.testing.assert_array_equal(got.x_star, want.x_star)
        np.testing.assert_array_equal(support_batch(Z, dirs), support_batch(ref, dirs))


def test_dependent_rows_that_are_not_empty_raise_rank_error():
    # equal generator rows: pinning a point repeats a constraint row
    Z = ConZono(SparseMat([[1.0, 0.5], [1.0, 0.5]]), np.zeros(2))
    with pytest.raises(RankDeficiencyError):
        contains_point(Z, [0.5, 0.5])
    # an empty row with a zero rhs is dropped; the dependent rows beside it remain
    A = SparseMat([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficiencyError):
        check_empty(ConZono(SparseMat.eye(2), np.zeros(2), A, np.array([0.5, 0.0, 0.5])))
