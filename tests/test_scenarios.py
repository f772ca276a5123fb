import numpy as np
import pytest

from conzopt import AdmmSettings, ReachDims, predict_complexity, safety_verify
from conzopt.scenarios import (
    corridor_mpc_scenario,
    mhe_scenario,
    run_mhe_simulation,
    run_mpc_closed_loop,
    run_mpc_open_loop,
    run_safety_scenario,
    safety_scenario,
    second_order_scenario,
    shift_mpc_spec,
)
from oracles import lp_contains


def test_second_order_matrices():
    X0, sys = second_order_scenario()
    assert np.allclose(sys.A.toarray(), [[1.0, 0.1], [-0.009, 0.958]])
    assert np.allclose(sys.B.toarray(), [[0.0], [0.1]])
    assert np.allclose(X0.c, [0.0, 0.5])
    assert np.allclose(X0.G.toarray(), np.diag([0.01, 0.01]))


def test_corridor_scenario_structure():
    spec = corridor_mpc_scenario(1)
    assert spec.N == 55
    assert np.array_equal(spec.x0, [0.0, -10.0, 0.0, 0.0])
    assert spec.sys.U.n_g == 6          # 12-gon inputs
    assert all(S.n_g == 9 and S.n_c == 0 for S in spec.state_sets)
    assert all(S.dim == 4 for S in spec.state_sets)
    assert np.allclose(spec.Q.toarray(), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(spec.R.toarray(), 10.0 * np.eye(2))


def test_corridor_counts_match_prediction():
    spec = corridor_mpc_scenario(1)
    run = run_mpc_open_loop(spec, AdmmSettings(norm="inf"))
    dims = ReachDims(n_x=4, n_u=2, n_g0=0, n_c0=0, n_gs=9, n_cs=0, n_gu=6, n_cu=0)
    pred = predict_complexity("sparse", spec.N, dims)
    assert run.n_g == pred.n_g == 825
    assert run.n_c == pred.n_c == 220
    assert run.nnz_m > 0


@pytest.mark.parametrize("horizon", [0, -1])
def test_corridor_rejects_nonpositive_horizon(horizon):
    with pytest.raises(ValueError, match="horizon"):
        corridor_mpc_scenario(1, horizon=horizon)


@pytest.mark.parametrize("kwargs", [{"f": 1.9}, {"f": 1, "horizon": 5.5}])
def test_corridor_counts_must_be_integers(kwargs):
    # 1.9 once truncated silently to f = 1
    with pytest.raises(TypeError):
        corridor_mpc_scenario(**kwargs)


def test_corridor_scaling_factor_dimensions():
    spec = corridor_mpc_scenario(2, horizon=10)
    assert spec.N == 10
    # time step halves with the scale factor
    assert np.isclose(spec.sys.A.toarray()[0, 2], 0.5)


def test_corridor_open_loop_tracks_inside_sets():
    spec = corridor_mpc_scenario(1)
    run = run_mpc_open_loop(spec, AdmmSettings(norm="inf"))
    assert run.status == "converged"
    assert run.violations == 0
    # reaches the end of the corridor
    assert np.linalg.norm(run.states[-1][:2] - spec.refs[-1][:2]) < 3.0


def test_corridor_closed_loop_converges_every_step():
    base = corridor_mpc_scenario(1)
    outcomes = run_mpc_closed_loop(base, 20, settings=AdmmSettings(norm="inf"))
    assert len(outcomes) == 20
    assert all(status == "converged" for status, *_ in outcomes)


def test_closed_loop_horizon_past_base_repeats_last_set():
    base = corridor_mpc_scenario(1, horizon=5)
    spec = shift_mpc_spec(base, 0, base.x0, 6)
    assert spec.N == 6
    assert spec.state_sets[5] is base.state_sets[4] and spec.refs[5] is base.refs[4]
    outcomes = run_mpc_closed_loop(base, 1, horizon=6)
    assert [status for status, *_ in outcomes] == ["converged"]


def test_mhe_scenario_sets():
    sc = mhe_scenario()
    assert sc.sys.S.dim == 4 and sc.sys.S.n_g == 6
    assert sc.W.n_g == 6 and sc.V.n_g == 6
    assert np.allclose(sc.X_init.c, [-4.0, 1.0, 0.0, 0.0])
    assert np.allclose(np.diag(sc.Q_inv.toarray()), [1e6, 1e6, 1e4, 1e4])
    assert np.allclose(np.diag(sc.R_inv.toarray()), [4.0, 4.0, 25.0, 25.0])
    assert sc.horizon == 15


def test_mhe_truth_starts_inside_initial_set():
    sc = mhe_scenario()
    assert lp_contains(sc.X_init, sc.x_true0)


def test_mhe_one_measurement_update_encloses_truth():
    from conzopt import contains_point, svse_step_sparse

    sc = mhe_scenario()
    rng = np.random.default_rng(9)
    u = np.array([0.02, -0.01])
    w = np.concatenate([rng.uniform(-0.002, 0.002, 2) / np.sqrt(2),
                        rng.uniform(-0.02, 0.02, 2) / np.sqrt(2)])
    x_next = sc.sys.A.matvec(sc.x_true0) + sc.sys.B.matvec(u) + w
    noise = np.concatenate([rng.uniform(-0.7, 0.7, 2), rng.uniform(-0.28, 0.28, 2)])
    y = x_next + noise
    X1 = svse_step_sparse(sc.X_init, sc.sys, sc.W, sc.V, u, y)
    assert contains_point(X1, x_next, AdmmSettings(max_iter=20000))
    assert lp_contains(X1, x_next)


def test_mhe_simulation_sound_and_converged():
    r = run_mhe_simulation(seed=2, steps=20)
    assert all(s == "converged" for s in r.statuses)
    assert all(r.contained)
    assert r.rms_mhe_pos < r.rms_meas_pos
    # oracle agrees with the solver's containment verdicts
    for t in (0, 9, 19):
        assert lp_contains(r.sets[t], r.truth[t + 1])


def test_mhe_truth_stays_in_domain():
    sc = mhe_scenario()
    for seed in range(3):
        r = run_mhe_simulation(seed=seed, steps=40)
        speeds = np.linalg.norm(r.truth[:, 2:], axis=1)
        assert np.max(speeds) <= 1.0  # inside the velocity hexagon's inscribed circle


def test_safety_scenario_certifies_with_single_iterations():
    steps = run_safety_scenario()
    assert all(s.certified for s in steps)
    assert sum(1 for s in steps if s.iterations == 1) > len(steps) / 2


def test_safety_scenario_gain_is_stabilizing():
    sc = safety_scenario()
    closed = sc.sys.A.toarray() - sc.sys.B.toarray() @ sc.K.toarray()
    assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0


def test_run_counts_must_be_integers():
    base = corridor_mpc_scenario(1, horizon=3)
    sc = safety_scenario(n_steps=2)
    with pytest.raises(TypeError):
        run_mpc_closed_loop(base, 1.5)
    with pytest.raises(TypeError):
        run_mpc_closed_loop(base, 1, horizon=2.5)
    with pytest.raises(TypeError):
        run_mhe_simulation(steps=2.5)
    with pytest.raises(TypeError):
        safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map, 1.5)
    with pytest.raises(TypeError):
        safety_scenario(n_steps=2.0)


def test_run_counts_below_their_minimum_raise_value_error():
    base = corridor_mpc_scenario(1, horizon=3)
    sc = safety_scenario(n_steps=2)
    with pytest.raises(ValueError, match="steps"):
        run_mpc_closed_loop(base, -2)               # once returned []
    with pytest.raises(ValueError, match="horizon"):
        run_mpc_closed_loop(base, 1, horizon=0)     # once an IndexError
    assert run_mpc_closed_loop(base, 0) == []
    with pytest.raises(ValueError, match="steps"):
        run_mhe_simulation(steps=0)                 # once an IndexError
    with pytest.raises(ValueError, match="n_steps"):
        safety_scenario(n_steps=-2)                 # once a scenario with N = -2
    with pytest.raises(ValueError, match="references"):
        safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map, 3)   # once an IndexError
    # once [], which reads as "every step certified"
    with pytest.raises(ValueError, match="N must be nonnegative"):
        safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map, -1)
    assert len(safety_verify(sc.sys, sc.K, [], sc.W, sc.X0, sc.O, sc.R_map, 0)) == 1


def test_safety_verify_default_is_the_scenario_default():
    # a near miss, where certificates need 2 to 21 iterations, so the cadence shows
    sc = safety_scenario(n_steps=8, obstacle_center=(2.0, 1.6))
    ref = run_safety_scenario(sc)
    own = safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map, sc.N)
    flags = [(s.certified, s.iterations) for s in own]
    assert flags == [(s.certified, s.iterations) for s in ref]
    assert all(certified for certified, _ in flags) and max(i for _, i in flags) > 10
    every_tenth = safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map, sc.N,
                                AdmmSettings())
    assert [s.iterations for s in every_tenth] != [i for _, i in flags]


def test_safety_obstacle_override_blocks_certification():
    sc = safety_scenario(obstacle_center=(1.0, 0.0))
    steps = run_safety_scenario(sc)
    assert not steps[0].certified
