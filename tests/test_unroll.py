"""The one-pass unroll against the step-by-step set composition.

Each site that applies the sparse reachability identity must produce
exactly the arrays (indptr, indices, data, c, b) that stacking with
``cartesian_product``, pinning with ``generalized_intersection`` and
projecting with ``affine_map`` produce one step at a time.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conzopt import (
    ConZono,
    MheSpec,
    SparseMat,
    affine_map,
    build_mhe,
    build_mpc,
    cartesian_product,
    generalized_intersection,
    hcat,
    point_set,
    reach_sparse,
    safety_verify,
    svse_step_sparse,
    unroll,
)
from conzopt.scenarios import (
    corridor_mpc_scenario,
    mhe_scenario,
    safety_scenario,
    second_order_scenario,
)


def _pin_step(Z, F_x, F_m, M, S, t):
    stacked = cartesian_product(cartesian_product(Z, M), S)
    n_x = F_x.n_rows
    dyn = hcat(F_x, F_m, SparseMat.eye(n_x, -1.0))
    pin = hcat(SparseMat.zeros(n_x, stacked.dim - dyn.n_cols), dyn)
    return generalized_intersection(stacked, point_set(t), pin)


def _last(Z, n):
    return affine_map(hcat(SparseMat.zeros(n, Z.dim - n), SparseMat.eye(n)), Z)


def _assert_same_matrix(m1, m2):
    a, b = m1._m, m2._m   # the package's own arrays: tocsc() may recast their index dtype
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        np.testing.assert_array_equal(x, y)
        assert x.dtype == y.dtype, name


def _assert_same_set(Z1, Z2):
    _assert_same_matrix(Z1.G, Z2.G)
    _assert_same_matrix(Z1.A, Z2.A)
    np.testing.assert_array_equal(Z1.c, Z2.c)
    np.testing.assert_array_equal(Z1.b, Z2.b)


def test_build_mpc_matches_composition():
    for f in (1, 2):
        spec = corridor_mpc_scenario(f)
        sys = spec.sys
        n_x, n_u = sys.n_x, sys.n_u
        Z_ref, P_ref, q_ref = point_set(spec.x0), [spec.Q.tocsc()], np.zeros(n_x)
        for k, S_k in enumerate(spec.state_sets, start=1):
            Z_ref = _pin_step(Z_ref, sys.A, sys.B, sys.U, S_k, np.zeros(n_x))
            weight = spec.Q_N if k == spec.N else spec.Q
            P_ref += [spec.R.tocsc(), weight.tocsc()]
            q_ref = np.concatenate([q_ref, np.zeros(n_u), -weight.matvec(spec.refs[k - 1])])
        Z, P, q, idx = build_mpc(spec)
        _assert_same_set(Z, Z_ref)
        _assert_same_matrix(P, SparseMat(sp.block_diag(P_ref)))
        np.testing.assert_array_equal(q, q_ref)
        stride = n_x + n_u
        assert idx.x_offsets == tuple(k * stride for k in range(spec.N + 1))
        assert idx.u_offsets == tuple(n_x + k * stride for k in range(spec.N))
        assert idx.total_dim == Z.dim == n_x + spec.N * stride


def test_build_mhe_full_window_matches_composition():
    sc = mhe_scenario()
    sys, N = sc.sys, sc.horizon
    x, inputs, meas = sc.x_true0, [], []
    for k in range(N):
        u = -0.25 * x[2:] + 0.03 * np.array([np.cos(k / 3.0), np.sin(k / 3.0)])
        x = sys.A.matvec(x) + sys.B.matvec(u)
        inputs.append(u)
        meas.append(sys.C.matvec(x) + 0.1 * np.sin(np.arange(4) + k))
    spec = MheSpec(sys=sys, W=sc.W, V=sc.V, prior_set=sc.X_init,
                   prior_estimate=sc.X_init.c, prior_info=sc.prior_info,
                   Q_inv=sc.Q_inv, R_inv=sc.R_inv, inputs=inputs, measurements=meas, N=N)
    n_x = sys.n_x
    ct_rinv = sys.C.T @ sc.R_inv
    neg_v = affine_map(SparseMat.eye(4, -1.0), sc.V)
    Z_ref, P_ref = sc.X_init, [sc.prior_info.tocsc()]
    q_ref = -sc.prior_info.matvec(spec.prior_estimate)
    for u, y in zip(inputs, meas):
        s_fused = generalized_intersection(sys.S, affine_map(SparseMat.eye(4), neg_v, y), sys.C)
        Z_ref = _pin_step(Z_ref, sys.A, SparseMat.eye(n_x), sc.W, s_fused, -sys.B.matvec(u))
        P_ref += [sc.Q_inv.tocsc(), (ct_rinv @ sys.C).tocsc()]
        q_ref = np.concatenate([q_ref, np.zeros(n_x), -ct_rinv.matvec(y)])
    Z, P, q, idx, X_end = build_mhe(spec)
    _assert_same_set(Z, Z_ref)
    _assert_same_set(X_end, _last(Z_ref, n_x))
    _assert_same_matrix(P, SparseMat(sp.block_diag(P_ref)))
    np.testing.assert_array_equal(q, q_ref)
    assert idx.x_offsets == tuple(2 * n_x * k for k in range(N + 1))
    assert idx.total_dim == Z.dim


def test_reach_sparse_matches_composition():
    X0, sys = second_order_scenario()
    sets = reach_sparse(X0, sys, 15)
    X = X0
    for k in range(1, 16):
        X = _last(_pin_step(X, sys.A, sys.B, sys.U, sys.S, np.zeros(sys.n_x)), sys.n_x)
        _assert_same_set(sets[k], X)


def test_svse_step_sparse_matches_composition():
    sc = mhe_scenario()
    sys = sc.sys
    u = np.array([0.02, -0.01])
    y = sys.C.matvec(sys.A.matvec(sc.x_true0) + sys.B.matvec(u)) + 0.1
    s_fused = generalized_intersection(
        sys.S, affine_map(SparseMat.eye(4, -1.0), sc.V, y), sys.C)
    pinned = _pin_step(sc.X_init, sys.A, SparseMat.eye(4), sc.W, s_fused, -sys.B.matvec(u))
    _assert_same_set(svse_step_sparse(sc.X_init, sys, sc.W, sc.V, u, y), _last(pinned, 4))


def test_safety_verify_tube_step_matches_composition(monkeypatch):
    import conzopt.builders as builders

    sc = safety_scenario(n_steps=1)
    checked = []
    real_check_empty = builders.check_empty

    def recording_check_empty(Z, settings):
        checked.append(Z)
        return real_check_empty(Z, settings)

    monkeypatch.setattr(builders, "check_empty", recording_check_empty)
    safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map, 1)
    a_closed = SparseMat(sc.sys.A.tocsc() - (sc.sys.B @ sc.K).tocsc())
    u_ff = sc.K.matvec(sc.x_refs[0])
    pinned = _pin_step(sc.X0, a_closed, SparseMat.eye(4), sc.W, sc.sys.S, -sc.sys.B.matvec(u_ff))
    X1 = _last(pinned, 4)
    assert len(checked) == 2
    _assert_same_set(checked[1], generalized_intersection(X1, sc.O, sc.R_map))


def test_unroll_matches_composition_on_constrained_sets(rng):
    def conzono(dim, n_g, n_c):
        G = rng.normal(size=(dim, n_g)) * (rng.random((dim, n_g)) < 0.6)
        return ConZono(SparseMat(G), rng.normal(size=dim),
                       SparseMat(rng.normal(size=(n_c, n_g))), rng.normal(size=n_c))

    F_x, F_m = SparseMat(rng.normal(size=(2, 2))), SparseMat(rng.normal(size=(2, 3)))
    Z0 = conzono(5, 4, 2)  # x_0 is its last two coordinates
    steps = [(conzono(3, 3, 1), conzono(2, 4, 2), rng.normal(size=2)) for _ in range(3)]
    Z_ref = Z0
    for M, S, t in steps:
        Z_ref = _pin_step(Z_ref, F_x, F_m, M, S, t)
    _assert_same_set(unroll(Z0, F_x, F_m, steps), Z_ref)


def test_unroll_matches_composition_on_shared_step_sets(rng):
    # two M sets alternate, and the S sets share one G and one A object
    # while their c and b differ: every step's pin rows must match its own sets
    def conzono(dim, n_g, n_c):
        G = rng.normal(size=(dim, n_g)) * (rng.random((dim, n_g)) < 0.6)
        return ConZono(SparseMat(G), rng.normal(size=dim),
                       SparseMat(rng.normal(size=(n_c, n_g))), rng.normal(size=n_c))

    F_x, F_m = SparseMat(rng.normal(size=(2, 2))), SparseMat(rng.normal(size=(2, 3)))
    Z0 = conzono(4, 3, 1)
    Ms = [conzono(3, 3, 1), conzono(3, 4, 2)]
    S = conzono(2, 4, 2)
    steps = [(Ms[k % 2], ConZono(S.G, rng.normal(size=2), S.A, rng.normal(size=2)), rng.normal(size=2))
             for k in range(5)]
    Z_ref = Z0
    for M, S_k, t in steps:
        Z_ref = _pin_step(Z_ref, F_x, F_m, M, S_k, t)
    _assert_same_set(unroll(Z0, F_x, F_m, steps), Z_ref)


def test_unroll_rejects_mismatched_steps():
    X0, sys = second_order_scenario()
    with pytest.raises(ValueError, match="do not match"):
        unroll(X0, sys.A, sys.B, [(sys.U, sys.S, np.zeros(3))])
    with pytest.raises(ValueError, match="do not match"):
        unroll(X0, sys.A, sys.B, [(sys.S, sys.S, np.zeros(2))])
    with pytest.raises(ValueError, match="cannot multiply"):
        unroll(point_set([1.0]), sys.A, sys.B, [(sys.U, sys.S, np.zeros(2))])


def test_unroll_rejects_a_non_square_state_map():
    # W places [F_x F_m -I] from x_{k-1}'s first column, which only lines up for a square F_x
    X0, sys = second_order_scenario()
    with pytest.raises(ValueError, match=r"^F_x of shape \(2, 3\) does not match \(2, 2\)$"):
        unroll(X0, SparseMat(np.ones((2, 3))), sys.B, [(sys.U, sys.S, np.zeros(2))])
