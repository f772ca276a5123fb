import numpy as np
import pytest

from conzopt import (
    AdmmSettings,
    IntervalBox,
    LinearSystem,
    MheSpec,
    MpcSpec,
    QpProblem,
    SparseMat,
    admm_solve,
    bounding_box,
    build_mhe,
    build_mpc,
    extract_trajectory,
    generalized_intersection,
    interval_to_zono,
    point_set,
    reduce_prior,
    reduce_qp,
    safety_verify,
    stack_trajectory,
    svse_step_sparse,
)
from conzopt.builders import TrajectoryIndex
from oracles import box_qp_oracle, lp_contains, lp_is_empty, lp_support


def _small_system(dt=0.5):
    A = SparseMat(np.array([[1.0, dt], [0.0, 1.0]]))
    B = SparseMat(np.array([[0.5 * dt ** 2], [dt]]))
    S = interval_to_zono(IntervalBox([-5.0, -5.0], [5.0, 5.0]))
    U = interval_to_zono(IntervalBox([-1.0], [1.0]))
    return LinearSystem(A, B, S, U, C=SparseMat(np.eye(2)))


def _small_mpc_spec(N=3, x0=(0.5, 0.0)):
    sys = _small_system()
    Q = SparseMat(np.eye(2))
    R = SparseMat([[0.1]])
    refs = [np.array([1.0, 0.0])] * N
    sets = [sys.S] * N
    return MpcSpec(sys=sys, x0=np.asarray(x0), refs=refs, Q=Q, R=R, Q_N=Q,
                   N=N, state_sets=sets)


def test_build_mpc_single_step_structure():
    spec = _small_mpc_spec(N=1)
    Z, P, q, idx = build_mpc(spec)
    n_x, n_u = 2, 1
    assert Z.dim == n_x + n_u + n_x
    assert Z.n_c == n_x
    assert Z.n_g == spec.sys.U.n_g + spec.sys.S.n_g
    # the constraint rows are the dynamics applied to the generator blocks
    A_expect = np.hstack([
        spec.sys.A.toarray() @ np.zeros((2, 0)),      # x0 block has no generators
        spec.sys.B.toarray() @ spec.sys.U.G.toarray(),
        -spec.sys.S.G.toarray(),
    ])
    assert np.allclose(Z.A.toarray(), A_expect)
    x0 = np.array([0.5, 0.0])
    assert np.allclose(Z.b, -(spec.sys.A.matvec(x0)) + spec.sys.S.c)
    # cost blocks: Q on x0, R on u0, Q_N on x1
    assert np.allclose(P.toarray(),
                       np.block([
                           [np.eye(2), np.zeros((2, 1)), np.zeros((2, 2))],
                           [np.zeros((1, 2)), 0.1 * np.eye(1), np.zeros((1, 2))],
                           [np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2)],
                       ]))
    assert np.allclose(q, np.concatenate([np.zeros(2), np.zeros(1), [-1.0, 0.0]]))


def test_trajectory_index_layout():
    spec = _small_mpc_spec(N=1)
    _, _, _, idx = build_mpc(spec)
    assert idx.x_offsets == (0, 3)
    assert idx.u_offsets == (2,)
    assert idx.total_dim == 5


def test_one_trajectory_index_per_layout():
    # the index is a frozen function of (n_x, n_u, N): builds of one layout share it
    idx = build_mpc(_small_mpc_spec(N=3))[3]
    assert build_mpc(_small_mpc_spec(N=3, x0=(-0.5, 0.25)))[3] is idx
    assert build_mpc(_small_mpc_spec(N=2))[3] is not idx


def test_extract_stack_roundtrip(rng):
    idx = TrajectoryIndex(x_offsets=(0, 3, 6), u_offsets=(2, 5), n_x=2, n_u=1,
                          total_dim=8)
    xs = [rng.normal(size=2) for _ in range(3)]
    us = [rng.normal(size=1) for _ in range(2)]
    z = stack_trajectory(xs, us, idx)
    xs2, us2 = extract_trajectory(z, idx)
    assert all(np.array_equal(a, b) for a, b in zip(xs, xs2))
    assert all(np.array_equal(a, b) for a, b in zip(us, us2))


def test_extract_trajectory_length_error():
    idx = TrajectoryIndex(x_offsets=(0,), u_offsets=(), n_x=2, n_u=1, total_dim=2)
    with pytest.raises(ValueError):
        extract_trajectory(np.zeros(3), idx)


def test_build_mpc_optimum_matches_enumeration_oracle():
    spec = _small_mpc_spec(N=3)
    Z, P, q, idx = build_mpc(spec)
    red = reduce_qp(QpProblem(P, q, Z))
    settings = AdmmSettings(eps_primal=1e-6, eps_dual=1e-6, max_iter=50000)
    res = admm_solve(red, settings)
    assert res.status == "converged"
    p_tilde = Z.G.toarray().T @ P.toarray() @ Z.G.toarray()
    obj = 0.5 * res.xi @ p_tilde @ res.xi + red.q_tilde @ res.xi
    best, _, _ = box_qp_oracle(p_tilde, red.q_tilde, Z.A.toarray(), Z.b)
    assert obj <= best + 1e-4 * (1.0 + abs(best))


def test_build_mpc_feasible_rollouts_lie_in_set(rng):
    spec = _small_mpc_spec(N=3)
    Z, P, q, idx = build_mpc(spec)
    sys = spec.sys
    for _ in range(20):
        x = np.array([0.5, 0.0])
        xs, us = [x], []
        ok = True
        for k in range(spec.N):
            u = rng.uniform(-1.0, 1.0, size=1)
            x = sys.A.matvec(x) + sys.B.matvec(u)
            ok = ok and np.all(np.abs(x) <= 5.0)
            xs.append(x)
            us.append(u)
        if not ok:
            continue
        z = stack_trajectory(xs, us, idx)
        assert lp_contains(Z, z)


def test_build_mpc_infeasible_rollout_detected():
    spec = _small_mpc_spec(N=2)
    Z, P, q, idx = build_mpc(spec)
    sys = spec.sys
    # violate the dynamics on purpose
    xs = [np.array([0.5, 0.0]), np.array([3.0, 3.0]), np.array([0.0, 0.0])]
    us = [np.array([0.2]), np.array([0.0])]
    z = stack_trajectory(xs, us, idx)
    assert not lp_contains(Z, z)


def test_build_mpc_validates_lengths():
    spec = _small_mpc_spec(N=2)
    with pytest.raises(ValueError):
        MpcSpec(sys=spec.sys, x0=spec.x0, refs=spec.refs[:1], Q=spec.Q, R=spec.R,
                Q_N=spec.Q_N, N=2, state_sets=spec.state_sets)
    with pytest.raises(TypeError):                  # once accepted, failing later inside build_mpc
        MpcSpec(sys=spec.sys, x0=spec.x0, refs=spec.refs, Q=spec.Q, R=spec.R,
                Q_N=spec.Q_N, N=2.0, state_sets=spec.state_sets)


def _mhe_pieces(N=3):
    sys = _small_system()
    W = interval_to_zono(IntervalBox([-0.02, -0.02], [0.02, 0.02]))
    V = interval_to_zono(IntervalBox([-0.3, -0.3], [0.3, 0.3]))
    prior = interval_to_zono(IntervalBox([-1.0, -1.0], [1.0, 1.0]))
    Q_inv = SparseMat(np.eye(2) * 2500.0)
    R_inv = SparseMat(np.eye(2) * (1.0 / 0.09))
    return sys, W, V, prior, Q_inv, R_inv


def test_build_mhe_zero_window_is_prior():
    sys, W, V, prior, Q_inv, R_inv = _mhe_pieces()
    spec = MheSpec(sys=sys, W=W, V=V, prior_set=prior,
                   prior_estimate=np.zeros(2), prior_info=SparseMat.zeros(2, 2),
                   Q_inv=Q_inv, R_inv=R_inv, inputs=[], measurements=[], N=0)
    Z, P, q, idx, X_end = build_mhe(spec)
    assert Z.dim == 2 and Z.n_g == prior.n_g and Z.n_c == prior.n_c
    assert np.array_equal(P.toarray(), np.zeros((2, 2)))
    assert np.array_equal(q, np.zeros(2))
    assert np.allclose(X_end.G.toarray(), prior.G.toarray())
    assert np.allclose(X_end.c, prior.c)


def test_build_mhe_single_step_noiseless():
    sys, W, V, prior, Q_inv, R_inv = _mhe_pieces()
    x0 = np.array([0.2, -0.1])
    u = np.array([0.4])
    x1 = sys.A.matvec(x0) + sys.B.matvec(u)
    spec = MheSpec(sys=sys, W=W, V=V, prior_set=prior,
                   prior_estimate=np.zeros(2), prior_info=SparseMat.zeros(2, 2),
                   Q_inv=Q_inv, R_inv=R_inv, inputs=[u], measurements=[x1.copy()], N=1)
    Z, P, q, idx, X_end = build_mhe(spec)
    res = admm_solve(reduce_qp(QpProblem(P, q, Z)),
                     AdmmSettings(eps_primal=1e-5, eps_dual=1e-5, max_iter=50000))
    assert res.status == "converged"
    assert np.allclose(res.x_star[idx.x_slice(1)], x1, atol=1e-2)


def test_build_mhe_noiseless_window_recovers_truth():
    sys, W, V, prior, Q_inv, R_inv = _mhe_pieces()
    x = np.array([0.3, -0.2])
    inputs, meas = [], []
    truth = [x]
    for k in range(3):
        u = np.array([0.1 * (k + 1)])
        x = sys.A.matvec(x) + sys.B.matvec(u)
        inputs.append(u)
        meas.append(x.copy())
        truth.append(x)
    spec = MheSpec(sys=sys, W=W, V=V, prior_set=prior,
                   prior_estimate=np.zeros(2), prior_info=SparseMat.zeros(2, 2),
                   Q_inv=Q_inv, R_inv=R_inv, inputs=inputs, measurements=meas, N=3)
    Z, P, q, idx, X_end = build_mhe(spec)
    res = admm_solve(reduce_qp(QpProblem(P, q, Z)), AdmmSettings(max_iter=20000))
    assert res.status == "converged"
    x_hat = res.x_star[idx.x_slice(3)]
    assert np.allclose(x_hat, truth[-1], atol=1e-2)
    # the terminal block of the decision vector is the mapped output set input
    assert idx.x_offsets[-1] + 2 == idx.total_dim


def test_build_mhe_window_set_matches_recursion():
    sys, W, V, prior, Q_inv, R_inv = _mhe_pieces()
    rng = np.random.default_rng(5)
    x = np.array([0.1, 0.1])
    inputs, meas = [], []
    X_rec = prior
    for _ in range(3):
        u = rng.uniform(-0.5, 0.5, size=1)
        x = sys.A.matvec(x) + sys.B.matvec(u)
        y = x + rng.uniform(-0.25, 0.25, size=2)
        inputs.append(u)
        meas.append(y)
        X_rec = svse_step_sparse(X_rec, sys, W, V, u, y)
    spec = MheSpec(sys=sys, W=W, V=V, prior_set=prior,
                   prior_estimate=np.zeros(2), prior_info=SparseMat.zeros(2, 2),
                   Q_inv=Q_inv, R_inv=R_inv, inputs=inputs, measurements=meas, N=3)
    _, _, _, _, X_end = build_mhe(spec)
    for _ in range(16):
        d = rng.normal(size=2)
        s1, s2 = lp_support(X_end, d), lp_support(X_rec, d)
        assert abs(s1 - s2) <= 1e-6 * (1.0 + abs(s1))


def test_build_mhe_validates_window_lengths():
    sys, W, V, prior, Q_inv, R_inv = _mhe_pieces()
    with pytest.raises(ValueError):
        MheSpec(sys=sys, W=W, V=V, prior_set=prior, prior_estimate=np.zeros(2),
                prior_info=SparseMat.zeros(2, 2), Q_inv=Q_inv, R_inv=R_inv,
                inputs=[np.zeros(1)], measurements=[], N=1)
    with pytest.raises(TypeError):                  # once accepted, failing later inside build_mhe
        MheSpec(sys=sys, W=W, V=V, prior_set=prior, prior_estimate=np.zeros(2),
                prior_info=SparseMat.zeros(2, 2), Q_inv=Q_inv, R_inv=R_inv,
                inputs=[np.zeros(1)], measurements=[np.zeros(2)], N=1.0)


def test_reduce_prior_box_contains_set(rng):
    sys, W, V, prior, Q_inv, R_inv = _mhe_pieces()
    X = svse_step_sparse(prior, sys, W, V, np.array([0.2]), np.array([0.15, 0.1]))
    boxed = reduce_prior(X)
    for k in range(8):
        d = np.array([np.cos(k * np.pi / 4), np.sin(k * np.pi / 4)])
        assert lp_support(boxed, d) >= lp_support(X, d) - 1e-9


def test_prior_boxes_bound_the_exact_box_on_mhe_runs(monkeypatch):
    # the sets run_mhe_simulation reduces (4 per run); each side of bounding_box, with no pad,
    # at the tolerance reduce_prior once used, and of reduce_prior's box must lie outside
    # the set's exact LP box (an estimate fell 0.019 inside it; 1e-9 is the LP's accuracy,
    # as in the test above), reduce_prior's by at most 0.1
    import conzopt.scenarios as scenarios

    inputs = []
    monkeypatch.setattr(scenarios, "reduce_prior", lambda X: inputs.append(X) or reduce_prior(X))
    for seed in range(3):
        scenarios.run_mhe_simulation(seed=seed, steps=40)
    assert len(inputs) == 12
    loose = AdmmSettings(eps_primal=1e-3, eps_dual=1e-3, max_iter=50000)
    for X in inputs:
        n = X.dim
        hi = np.array([lp_support(X, d) for d in np.eye(n)])
        lo = -np.array([lp_support(X, -d) for d in np.eye(n)])
        box = bounding_box(X, loose)
        assert np.all(box.hi >= hi - 1e-9) and np.all(box.lo <= lo + 1e-9)
        boxed = reduce_prior(X)
        reach = np.abs(boxed.G.toarray()).sum(axis=1)    # boxed is the zonotope of a box
        assert np.all(boxed.c + reach >= hi - 1e-9) and np.all(boxed.c - reach <= lo + 1e-9)
        assert np.all(boxed.c + reach <= hi + 0.1) and np.all(boxed.c - reach >= lo - 0.1)


def _safety_pieces(obstacle_center=(4.0, 0.0)):
    sys = _small_system()
    W = interval_to_zono(IntervalBox([-0.01, -0.01], [0.01, 0.01]))
    X0 = interval_to_zono(IntervalBox([-0.2, -0.2], [0.2, 0.2]))
    O = interval_to_zono(IntervalBox([obstacle_center[0] - 0.5],
                                     [obstacle_center[0] + 0.5]))
    R_map = SparseMat(np.array([[1.0, 0.0]]))
    K = SparseMat(np.array([[0.4, 0.8]]))
    refs = [np.zeros(2)] * 10
    return sys, K, refs, W, X0, O, R_map


def test_safety_verify_disjoint_obstacle_certifies_all():
    sys, K, refs, W, X0, O, R_map = _safety_pieces()
    results = safety_verify(sys, K, refs, W, X0, O, R_map, 10,
                            AdmmSettings(k_inf=1))
    assert all(r.certified for r in results)
    assert sum(1 for r in results if r.iterations == 1) > len(results) / 2
    # certified disjointness is confirmed by the independent feasibility oracle
    X = X0
    clash = generalized_intersection(X, O, R_map)
    assert lp_is_empty(clash)


def test_safety_verify_overlapping_obstacle_flags_step_zero():
    sys, K, refs, W, X0, O, R_map = _safety_pieces(obstacle_center=(0.0, 0.0))
    results = safety_verify(sys, K, refs, W, X0, O, R_map, 5,
                            AdmmSettings(k_inf=1))
    assert not results[0].certified


def test_safety_verify_soundness_against_oracle():
    sys, K, refs, W, X0, O, R_map = _safety_pieces()
    settings = AdmmSettings(k_inf=1)
    results = safety_verify(sys, K, refs, W, X0, O, R_map, 6, settings)
    # rebuild the tube independently and check certified steps with the LP oracle
    from conzopt import affine_map, cartesian_product, hcat

    a_closed = SparseMat(sys.A.toarray() - sys.B.toarray() @ K.toarray())
    X = X0
    for r in results:
        clash = generalized_intersection(X, O, R_map)
        if r.certified:
            assert lp_is_empty(clash)
        if r.step == 6:
            break
        u_ff = K.matvec(refs[r.step])
        stacked = cartesian_product(cartesian_product(X, W), sys.S)
        dyn = hcat(a_closed, SparseMat.eye(2), SparseMat.eye(2, -1.0))
        pinned = generalized_intersection(stacked, point_set(-sys.B.matvec(u_ff)), dyn)
        X = affine_map(hcat(SparseMat.zeros(2, 4), SparseMat.eye(2)), pinned)
