"""Benchmark scenarios: reachability counts, corridor tracking,
estimation under bounded noise, and closed-loop safety certification.

Everything here is deterministic given a seed; geometry that the
problem statements leave open (corridor layout, input profiles,
reference paths, obstacle placement) is generated procedurally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .admm import (
    AdmmSettings,
    QpProblem,
    admm_solve,
    contains_point,
    reduce_qp,
)
from .builders import (
    SAFETY_SETTINGS,
    MheSpec,
    MpcSpec,
    build_mhe,
    build_mpc,
    extract_trajectory,
    reduce_prior,
    safety_verify,
)
from .intervals import IntervalBox
from .reach import LinearSystem, svse_step_sparse
from .sets import (
    ConZono,
    cartesian_product,
    interval_to_zono,
    make_regular_polygon,
    minkowski_sum,
)
from .sparse import SparseMat, _count


# ---------------------------------------------------------------------------
# second-order reachability benchmark


def second_order_scenario():
    """Lightly damped second-order system with box domain sets."""
    dt, omega_n, damping = 0.1, 0.3, 0.7
    A = np.array([
        [1.0, dt],
        [-omega_n ** 2 * dt, 1.0 - 2.0 * damping * omega_n * dt],
    ])
    B = np.array([[0.0], [dt]])
    X0 = interval_to_zono(IntervalBox([-0.01, 0.49], [0.01, 0.51]))
    S = interval_to_zono(IntervalBox([-1.0, -1.0], [1.0, 1.0]))
    U = interval_to_zono(IntervalBox([-1.0], [1.0]))
    sys = LinearSystem(SparseMat(A), SparseMat(B), S, U)
    return X0, sys


# ---------------------------------------------------------------------------
# planar double integrator


def double_integrator(dt):
    A = np.array([
        [1.0, 0.0, dt, 0.0],
        [0.0, 1.0, 0.0, dt],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    B = np.array([
        [0.5 * dt ** 2, 0.0],
        [0.0, 0.5 * dt ** 2],
        [dt, 0.0],
        [0.0, dt],
    ])
    return SparseMat(A), SparseMat(B)


def lqr_gain(A: SparseMat, B: SparseMat, Q, R):
    """Discrete-time infinite-horizon state-feedback gain for dense weights Q and R."""
    Ad, Bd = A.toarray(), B.toarray()
    P = scipy.linalg.solve_discrete_are(Ad, Bd, Q, R)
    K = np.linalg.solve(R + Bd.T @ P @ Bd, Bd.T @ P @ Ad)
    return SparseMat(K)


# ---------------------------------------------------------------------------
# corridor tracking scenario


def _corridor_path(f):
    """Waypoint polyline resampled at uniform arc length 1/f."""
    waypoints = np.array([
        [0.0, -10.0],
        [0.0, 15.0],
        [15.0, 20.0],
        [15.0, 35.0],
    ])
    seg = np.sqrt(np.sum(np.diff(waypoints, axis=0) ** 2, axis=1))
    d_way = np.concatenate([[0.0], np.cumsum(seg)])
    ds = 1.0 / f
    d_vec = np.linspace(0.0, d_way[-1], int(d_way[-1] / ds))
    path_x = np.interp(d_vec, d_way, waypoints[:, 0])
    path_y = np.interp(d_vec, d_way, waypoints[:, 1])
    return d_vec, path_x, path_y


def corridor_mpc_scenario(f=1, horizon=None) -> MpcSpec:
    """Tracking problem through a narrowing corridor of hexagonal
    position sets, with 12-gon velocity and input sets.

    f >= 1 refines the discretization: the horizon scales as 55 f and
    the time step as 1/f. A given horizon must be at least 1.
    """
    f = _count(f, "f", 1)
    dt = 1.0 / f
    N = 55 * f if horizon is None else _count(horizon, "horizon", 1)

    d_vec, path_x, path_y = _corridor_path(f)
    n_pts = len(d_vec)

    # transverse half-width narrows in the middle leg, along-track stays wide
    middle = np.nonzero((path_y >= 15.0) & (path_y <= 20.0))[0]
    r_trans = np.full(n_pts, 4.5)
    r_along = np.full(n_pts, 4.5)
    n_front = len(middle) // 2
    n_back = len(middle) - n_front
    r_trans[middle] = np.concatenate([
        np.linspace(2.0, 0.4, n_front),
        np.linspace(0.4, 2.0, n_back),
    ])
    r_along[middle] = 2.0

    heading = np.arctan2(np.diff(path_y), np.diff(path_x))
    heading = np.concatenate([[heading[0]], heading])

    hexagon = make_regular_polygon(6, 1.0)
    position_sets = []
    for i in range(n_pts):
        ct, st = np.cos(heading[i]), np.sin(heading[i])
        scale = np.array([[ct * r_along[i], -st * r_trans[i]],
                          [st * r_along[i], ct * r_trans[i]]])
        shifted = ConZono(
            SparseMat(scale) @ hexagon.G,
            np.array([path_x[i], path_y[i]]),
        )
        position_sets.append(shifted)

    v_max = 5.0
    omega_max = 75.0 * np.pi / 180.0
    v_min = 0.1
    velocity_set = make_regular_polygon(12, v_max)
    input_set = make_regular_polygon(12, omega_max * v_min)

    A, B = double_integrator(dt)
    state_sets = []
    refs = []
    for k in range(1, N + 1):
        i = min(k, n_pts - 1)
        state_sets.append(cartesian_product(position_sets[i], velocity_set))
        refs.append(np.array([path_x[i], path_y[i], 0.0, 0.0]))

    sys = LinearSystem(A, B, state_sets[0], input_set)
    Q = SparseMat(np.diag([1.0, 1.0, 0.0, 0.0]))
    R = SparseMat(10.0 * np.eye(2))
    return MpcSpec(
        sys=sys,
        x0=np.array([0.0, -10.0, 0.0, 0.0]),
        refs=refs,
        Q=Q,
        R=R,
        Q_N=Q,
        N=N,
        state_sets=state_sets,
    )


def shift_mpc_spec(base: MpcSpec, k, x_now, horizon) -> MpcSpec:
    """Receding-horizon update: a horizon of the given length starting at
    step k of the base scenario, with the measured state as the new
    initial condition. Steps past base.N repeat its last set and ref."""
    # base.refs[j-1] belongs to absolute step j; horizon step i sits at k+i
    steps = [min(k + i - 1, base.N - 1) for i in range(1, horizon + 1)]
    return MpcSpec(
        sys=base.sys, x0=np.asarray(x_now, dtype=float), refs=[base.refs[j] for j in steps],
        Q=base.Q, R=base.R, Q_N=base.Q_N, N=horizon,
        state_sets=[base.state_sets[j] for j in steps],
    )


@dataclass
class MpcRunResult:
    status: str
    iterations: int
    n_g: int
    n_c: int
    nnz_g: int
    nnz_a: int
    nnz_m: int
    objective: float
    states: list
    inputs: list
    violations: int


def run_mpc_open_loop(spec: MpcSpec, settings: AdmmSettings = AdmmSettings()) -> MpcRunResult:
    """Build, solve once, and check every planned state against its set
    inflated by a 0.02 box."""
    Z, P, q, idx = build_mpc(spec)
    reduced = reduce_qp(QpProblem(P, q, Z), settings)
    result = admm_solve(reduced, settings)
    xs, us = extract_trajectory(result.x_star, idx)
    violations = 0
    if result.status == "converged":
        violations = count_state_set_violations(xs[1:], spec.state_sets, settings)
    objective = float(0.5 * result.x_star @ P.matvec(result.x_star) + q @ result.x_star)
    return MpcRunResult(
        status=result.status,
        iterations=result.iterations,
        n_g=Z.n_g,
        n_c=Z.n_c,
        nnz_g=Z.G.nnz,
        nnz_a=Z.A.nnz,
        nnz_m=reduced.M.nnz,
        objective=objective,
        states=xs,
        inputs=us,
        violations=violations,
    )


def count_state_set_violations(states, state_sets, settings):
    """States outside their per-step sets inflated by a 0.02 box."""
    violations = 0
    pad_cache = {}
    for x, S_k in zip(states, state_sets):
        key = id(S_k)
        if key not in pad_cache:
            pad = interval_to_zono(IntervalBox(np.full(S_k.dim, -2e-2), np.full(S_k.dim, 2e-2)))
            pad_cache[key] = minkowski_sum(S_k, pad)
        if not contains_point(pad_cache[key], x, settings):
            violations += 1
    return violations


def run_mpc_closed_loop(base: MpcSpec, steps, horizon=None,
                        settings: AdmmSettings = AdmmSettings()):
    """Receding-horizon simulation on the nominal model.

    Step k plans over shift_mpc_spec(base, k, x, horizon), horizon
    defaulting to base.N; a horizon reaching past base.N repeats the
    last set and ref. Returns per-step (status, iterations, x, u); the
    applied input u is the first planned one and the plant follows the
    nominal dynamics. steps >= 0 (zero gives no outcomes), horizon >= 1.
    """
    steps = _count(steps, "steps")
    horizon = _count(base.N if horizon is None else horizon, "horizon", 1)
    x = np.asarray(base.x0, dtype=float)
    outcomes = []
    for k in range(steps):
        Z, P, q, idx = build_mpc(shift_mpc_spec(base, k, x, horizon))
        reduced = reduce_qp(QpProblem(P, q, Z), settings)
        result = admm_solve(reduced, settings)
        _, us = extract_trajectory(result.x_star, idx)
        outcomes.append((result.status, result.iterations, x.copy(), us[0].copy()))
        x = base.sys.A.matvec(x) + base.sys.B.matvec(us[0])
    return outcomes


# ---------------------------------------------------------------------------
# estimation scenario


@dataclass(frozen=True)
class MheScenario:
    sys: LinearSystem
    W: ConZono
    V: ConZono
    X_init: ConZono
    Q_inv: SparseMat
    R_inv: SparseMat
    prior_info: SparseMat
    x_true0: np.ndarray
    sigma_w: np.ndarray
    sigma_v: np.ndarray
    horizon: int


def mhe_scenario() -> MheScenario:
    """Noisy planar double integrator with hexagonal noise bounds.

    Noise is zero-mean truncated normal; each planar noise pair is
    bounded by a hexagon of inradius two standard deviations.
    """
    A, B = double_integrator(1.0)
    C = SparseMat(np.eye(4))
    S = cartesian_product(make_regular_polygon(6, 500.0), make_regular_polygon(6, 1.0))
    sigma_w = np.array([0.001, 0.01])   # position, velocity process noise std
    sigma_v = np.array([0.5, 0.2])      # position, velocity measurement noise std
    W = cartesian_product(
        make_regular_polygon(6, 2.0 * sigma_w[0]),
        make_regular_polygon(6, 2.0 * sigma_w[1]),
    )
    V = cartesian_product(
        make_regular_polygon(6, 2.0 * sigma_v[0]),
        make_regular_polygon(6, 2.0 * sigma_v[1]),
    )
    X_init = cartesian_product(
        make_regular_polygon(6, 2.0, center=(-4.0, 1.0)),
        make_regular_polygon(6, 1.0),
    )
    Q_inv = SparseMat(np.diag(1.0 / np.repeat(sigma_w ** 2, 2)))
    R_inv = SparseMat(np.diag(1.0 / np.repeat(sigma_v ** 2, 2)))
    sys = LinearSystem(A, B, S, make_regular_polygon(12, 1.0), C=C)
    return MheScenario(
        sys=sys, W=W, V=V, X_init=X_init, Q_inv=Q_inv, R_inv=R_inv,
        prior_info=SparseMat.zeros(4, 4),
        x_true0=np.array([-5.0, 2.0, -0.6, 0.2]),
        sigma_w=sigma_w, sigma_v=sigma_v, horizon=15,
    )


def _truncated_pair(rng, sigma, zero_noise):
    """Planar sample from N(0, sigma^2 I) conditioned on norm <= 2 sigma."""
    if zero_noise or sigma == 0.0:
        return np.zeros(2)
    while True:
        sample = rng.normal(0.0, sigma, size=2)
        if np.linalg.norm(sample) <= 2.0 * sigma:
            return sample


@dataclass
class MheSimResult:
    truth: np.ndarray
    measurements: np.ndarray
    estimates: np.ndarray
    sets: list
    contained: list
    iterations: list
    statuses: list
    rms_meas_pos: float
    rms_mhe_pos: float
    rms_meas_vel: float
    rms_mhe_vel: float


def run_mhe_simulation(seed=0, steps=40, settings: AdmmSettings = AdmmSettings(),
                       zero_noise=False) -> MheSimResult:
    """Closed estimation run of steps >= 1 steps with a recursively updated window prior.

    The applied input gently regulates the true velocity so the plant
    stays well inside its domain set for every seed. The window prior
    advances one measurement-update step once the window is full and is
    replaced by its padded bounding box every 10 steps.
    """
    steps = _count(steps, "steps", 1)
    sc = mhe_scenario()
    sys = sc.sys
    rng = np.random.default_rng(seed)
    horizon = sc.horizon

    truth = [sc.x_true0.copy()]
    inputs = []
    measurements = [None]  # measurement at step 0 is unused
    estimates = []
    sets = []
    contained = []
    iterations = []
    statuses = []

    prior_set = sc.X_init
    prior_estimate = sc.X_init.c.copy()

    for t in range(1, steps + 1):
        k = t - 1
        v_now = truth[-1][2:]
        u = -0.25 * v_now + 0.03 * np.array([np.cos(2 * np.pi * k / 20.0),
                                             np.sin(2 * np.pi * k / 20.0)])
        w = np.concatenate([
            _truncated_pair(rng, sc.sigma_w[0], zero_noise),
            _truncated_pair(rng, sc.sigma_w[1], zero_noise),
        ])
        x_next = sys.A.matvec(truth[-1]) + sys.B.matvec(u) + w
        noise = np.concatenate([
            _truncated_pair(rng, sc.sigma_v[0], zero_noise),
            _truncated_pair(rng, sc.sigma_v[1], zero_noise),
        ])
        y = sys.C.matvec(x_next) + noise
        truth.append(x_next)
        inputs.append(u)
        measurements.append(y)

        n_eff = min(t, horizon)
        spec = MheSpec(
            sys=sys, W=sc.W, V=sc.V, prior_set=prior_set,
            prior_estimate=prior_estimate, prior_info=sc.prior_info,
            Q_inv=sc.Q_inv, R_inv=sc.R_inv,
            inputs=inputs[t - n_eff:t],
            measurements=measurements[t - n_eff + 1:t + 1],
            N=n_eff,
        )
        Z, P, q, idx, X_end = build_mhe(spec)
        reduced = reduce_qp(QpProblem(P, q, Z), settings)
        result = admm_solve(reduced, settings)
        x_hat = result.x_star[idx.x_slice(n_eff)]
        estimates.append(x_hat)
        sets.append(X_end)
        iterations.append(result.iterations)
        statuses.append(result.status)
        contained.append(contains_point(X_end, x_next, settings))

        if t >= horizon:
            s = t - horizon
            prior_set = svse_step_sparse(prior_set, sys, sc.W, sc.V,
                                         inputs[s], measurements[s + 1])
        if t % 10 == 0:
            prior_set = reduce_prior(prior_set)

    truth = np.asarray(truth)
    estimates = np.asarray(estimates)
    meas = np.asarray(measurements[1:])
    pos_err_meas = meas[:, :2] - truth[1:, :2]
    pos_err_mhe = estimates[:, :2] - truth[1:, :2]
    vel_err_meas = meas[:, 2:] - truth[1:, 2:]
    vel_err_mhe = estimates[:, 2:] - truth[1:, 2:]

    def rms(err):
        return float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))

    return MheSimResult(
        truth=truth,
        measurements=meas,
        estimates=estimates,
        sets=sets,
        contained=contained,
        iterations=iterations,
        statuses=statuses,
        rms_meas_pos=rms(pos_err_meas),
        rms_mhe_pos=rms(pos_err_mhe),
        rms_meas_vel=rms(vel_err_meas),
        rms_mhe_vel=rms(vel_err_mhe),
    )


# ---------------------------------------------------------------------------
# safety certification scenario


@dataclass(frozen=True)
class SafetyScenario:
    sys: LinearSystem
    K: SparseMat
    x_refs: list
    W: ConZono
    X0: ConZono
    O: ConZono
    R_map: SparseMat
    N: int


def safety_scenario(n_steps=20, obstacle_center=(6.0, -5.0), obstacle_inradius=1.0) -> SafetyScenario:
    """Disturbed double integrator under state feedback, certified
    against a position-space obstacle.

    The velocity disturbance is biased upward, so the tube drifts off
    the reference; the default obstacle sits clear of the resulting
    swept region. n_steps >= 0 (zero certifies X0 alone).
    """
    n_steps = _count(n_steps, "n_steps")
    dt = 0.5
    A, B = double_integrator(dt)
    S = cartesian_product(make_regular_polygon(6, 500.0), make_regular_polygon(6, 1.0))
    W = cartesian_product(
        make_regular_polygon(6, 0.01),
        make_regular_polygon(6, 0.2, center=(0.0, 0.5)),
    )
    X0 = cartesian_product(
        make_regular_polygon(6, 0.5, center=(1.0, 0.0)),
        make_regular_polygon(6, 0.5, center=(0.0, 0.0)),
    )
    Q = np.diag([1.0, 1.0, 0.0, 0.0])
    R = 0.1 * np.eye(2)
    K = lqr_gain(A, B, Q, R)
    v_ref = 0.5
    x_refs = [np.array([1.0 + v_ref * dt * k, 0.0, v_ref, 0.0]) for k in range(n_steps)]
    O = make_regular_polygon(6, obstacle_inradius, center=obstacle_center)
    R_map = SparseMat(np.hstack([np.eye(2), np.zeros((2, 2))]))
    sys = LinearSystem(A, B, S, make_regular_polygon(12, 1.0))
    return SafetyScenario(sys=sys, K=K, x_refs=x_refs, W=W, X0=X0, O=O,
                          R_map=R_map, N=n_steps)


def run_safety_scenario(scenario: SafetyScenario = None,
                        settings: AdmmSettings = SAFETY_SETTINGS):
    """Run the per-step certification with safety_verify's settings by default."""
    sc = scenario or safety_scenario()
    return safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, sc.O, sc.R_map,
                         sc.N, settings)
