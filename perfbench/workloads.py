"""The four benchmark workloads.

Each workload generates its inputs from the seed, warms up, runs units
of operations in a closed loop with one caller, and checks the outputs
afterwards, outside the timed region. A unit is the smallest block of
operations whose outputs can be checked on their own: a corridor pass,
a 40-step estimator run, a reachability pass, or a 41-step tube. Unit
``i`` of a seed always has the same inputs, so a run's first units can
be replayed exactly by the traced run.

The library is reached only through module attributes of ``lib`` (a
mapping of short names to the ``conzopt`` modules) at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize
import scipy.sparse as sp


@dataclass
class Op:
    """One timed operation and the outputs its checks need."""

    latency: float
    work: float
    out: dict = field(default_factory=dict)
    error: str | None = None
    segments: list = field(default_factory=list)   # timed (start, end) pairs
    ref_latency: float | None = None               # latency in reference units


class OpClock:
    """Times operations; tells an installed tracer which op is running.

    With a ``reference``, the reference kernel may run just before an
    operation and at each ``split()`` inside one, outside the timed
    segments, so that each segment can be expressed in kernel units.
    """

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.count = 0
        self._segments = None
        self._t0 = 0.0

    def run(self, fn, work=1.0):
        """Time fn(); return an Op carrying its output dict or error."""
        if self.tracer is not None:
            self.tracer.op = self.count
        self.count += 1
        out, error = {}, None
        self._segments = []
        self._start()
        try:
            out = fn()
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        self._stop()
        segments, self._segments = self._segments, None
        if self.tracer is not None:
            self.tracer.op = -1
        return Op(sum(b - a for a, b in segments), work, out, error, segments)

    def split(self):
        """Mark a point between two parts of an operation."""
        if self._segments is not None:
            self._stop()
            self._start()

    def _start(self):
        if self.reference is not None:
            self.reference.maybe_measure()
        self._t0 = time.perf_counter()

    def _stop(self):
        self._segments.append((self._t0, time.perf_counter()))


def _rng(seed, stream, unit):
    """Generator for one unit's inputs; unit -1 is the warm-up unit."""
    return np.random.default_rng([int(seed), stream, unit + 1])


def _lp_feasible(A_eq, b_eq, slack=0.0):
    """Feasibility of {xi in [-1 - slack, 1 + slack]^n : A_eq xi = b_eq} by HiGHS."""
    n = A_eq.shape[1]
    if n == 0:
        return bool(np.all(b_eq == 0.0))
    res = scipy.optimize.linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                                 bounds=(-1.0 - slack, 1.0 + slack), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"feasibility LP failed with status {res.status}")
    return res.status == 0


def _contains(Z, x):
    """Independent membership test of x in Z by linear programming."""
    A_eq = sp.vstack([Z.A.tocsc(), Z.G.tocsc()], format="csc")
    return _lp_feasible(A_eq, np.concatenate([Z.b, np.asarray(x, dtype=float) - Z.c]))




# ---------------------------------------------------------------------------


class MpcCorridor:
    """Plans the corridor MPC at f = 1, 2, 3 and 6 from a seeded x0.

    A unit is one pass: a plan (build_mpc -> reduce_qp -> admm_solve) at
    every f. The saddle sizes run from n = 1045 to 6270, across the
    dense-L cutoff of the back-solve at n = 2600.
    """

    name = "mpc-corridor"
    scales = (1, 2, 3, 6)
    min_units = 1
    traced_units = 1
    state_tolerance = 2e-2
    canonical_f1 = (825, 10119)   # n_G and nnz(M) at f = 1

    def setup(self, lib, seed):
        settings = lib["admm"].AdmmSettings()
        specs = {f: lib["scenarios"].corridor_mpc_scenario(f) for f in self.scales}
        ctx = {"settings": settings, "specs": specs, "seed": seed}
        # warm-up: assemble and factorize once at every f (fills the
        # symbolic-factorization cache, whose key ignores x0)
        warm = {}
        for f, spec in specs.items():
            Z, P, q, _ = lib["builders"].build_mpc(spec)
            reduced = lib["admm"].reduce_qp(lib["admm"].QpProblem(P, q, Z), settings)
            warm[f] = (Z.n_g, reduced.M.nnz)
        ctx["warm"] = warm
        return ctx

    def x0(self, ctx, i):
        # The iteration count follows the forward speed (27 iterations
        # at 0.01 m/s, 18 to 20 at 0.08 to 0.1 m/s), so a wide speed draw
        # made the seed, not the code, decide a run's plan times: the
        # vehicle enters at 0.08 to 0.1 m/s from a seeded spot.
        rng = _rng(ctx["seed"], 1, i)
        return np.array([0.0, -10.0, 0.0, 0.0]) + np.concatenate([
            rng.uniform(-0.25, 0.25, 2), rng.uniform(-0.05, 0.05, 1), rng.uniform(0.08, 0.1, 1)])

    def plan(self, lib, spec, settings, clock):
        """One plan, with a split before each phase; "latency" sums the
        phases, so it leaves out any reference measurement between them."""
        builders, admm = lib["builders"], lib["admm"]
        latency = 0.0

        def phase(fn, *args):
            nonlocal latency
            clock.split()
            t0 = time.perf_counter()
            value = fn(*args)
            latency += time.perf_counter() - t0
            return value

        Z, P, q, idx = phase(builders.build_mpc, spec)
        reduced = phase(lambda: admm.reduce_qp(admm.QpProblem(P, q, Z), settings))
        result = phase(admm.admm_solve, reduced, settings)
        return {"status": result.status, "iterations": result.iterations,
                "x_star": result.x_star, "P": P, "q": q, "idx": idx,
                "n_g": Z.n_g, "nnz_m": reduced.M.nnz, "latency": latency}

    def unit(self, lib, ctx, i, clock):
        x0 = self.x0(ctx, i)

        def one_pass():
            plans = {}
            for f in self.scales:
                spec = replace(ctx["specs"][f], x0=x0)
                plans[f] = self.plan(lib, spec, ctx["settings"], clock)
                plans[f]["spec"] = spec
            return {"plans": plans}

        return [clock.run(one_pass, work=len(self.scales))]

    def check_unit(self, lib, ctx, i, ops):
        return [self._check(lib, ctx, op) for op in ops]

    def _check(self, lib, ctx, op):
        errors = []
        if ctx["warm"][1] != self.canonical_f1:
            errors.append(f"f=1 n_G, nnz(M) = {ctx['warm'][1]}, expected {self.canonical_f1}")
        settings = ctx["settings"]
        for f, plan in op.out["plans"].items():
            if plan["status"] != "converged":
                errors.append(f"f={f}: status {plan['status']}")
                continue
            if f == 1 and (plan["n_g"], plan["nnz_m"]) != self.canonical_f1:
                errors.append(f"f=1: n_G, nnz(M) = {plan['n_g'], plan['nnz_m']}")
            spec = plan["spec"]
            xs, us = lib["builders"].extract_trajectory(plan["x_star"], plan["idx"])
            A, B = spec.sys.A.toarray(), spec.sys.B.toarray()
            residual = np.array([xs[k + 1] - A @ xs[k] - B @ us[k] for k in range(len(us))])
            # the solver stops on ||xi - zeta||_2 < sqrt(n_G) eps_primal
            limit = np.sqrt(plan["n_g"]) * settings.eps_primal
            if np.linalg.norm(residual) > limit:
                errors.append(f"f={f}: dynamics residual {np.linalg.norm(residual):.3e} > {limit:.3e}")
            if not self._states_inside(xs[1:], spec.state_sets):
                errors.append(f"f={f}: a planned state lies outside its inflated state set")
        return errors

    def _states_inside(self, states, sets):
        # one block-diagonal LP: every x_k in S_k + [-tol, tol]^n
        blocks, rhs = [], []
        for x, S in zip(states, sets):
            pad = self.state_tolerance * sp.identity(S.dim, format="csc")
            blocks.append(sp.bmat([[S.G.tocsc(), pad], [S.A.tocsc(), None]], format="csc")
                          if S.n_c else sp.hstack([S.G.tocsc(), pad], format="csc"))
            rhs.append(np.concatenate([np.asarray(x) - S.c, S.b]))
        return _lp_feasible(sp.block_diag(blocks, format="csc"), np.concatenate(rhs))

    def report(self, ops):
        return {f"mpc_f{f}_plan_s": (float(np.median([op.out["plans"][f]["latency"] for op in ops])), "s")
                for f in self.scales}


# ---------------------------------------------------------------------------


class MheWindow:
    """40-step estimator runs, window 15, prior reduced every 10 steps.

    A unit is one estimator run on a seed derived from the workload
    seed; an operation is one step: build_mhe -> reduce_qp -> admm_solve
    -> contains_point -> svse_step_sparse, plus reduce_prior on every
    tenth step (a bounding box from 8 support solves at eps 1e-3).
    """

    name = "mhe-window"
    steps = 40
    reduce_every = 10
    # at least 12 reduce_prior steps (4 in each run), more than the 10
    # samples beyond the printed tail percentile
    min_units = 3
    traced_units = 1

    def setup(self, lib, seed):
        ctx = {"settings": lib["admm"].AdmmSettings(), "seed": seed,
               "scenario": lib["scenarios"].mhe_scenario()}
        # warm-up: the first reduce_every steps of an extra run
        clock = OpClock()
        self._steps(lib, ctx, self.inputs(ctx, -1), clock, self.reduce_every)
        return ctx

    def run_seed(self, ctx, i):
        return int(_rng(ctx["seed"], 2, i).integers(2 ** 31))

    def inputs(self, ctx, i):
        """Truth, inputs and measurements, drawn as run_mhe_simulation draws them."""
        sc = ctx["scenario"]
        sys_ = sc.sys
        seed = self.run_seed(ctx, i)
        rng = np.random.default_rng(seed)

        def pair(sigma):
            while True:
                sample = rng.normal(0.0, sigma, size=2)
                if np.linalg.norm(sample) <= 2.0 * sigma:
                    return sample

        truth, inputs, measurements = [sc.x_true0.copy()], [], [None]
        for t in range(1, self.steps + 1):
            k = t - 1
            u = -0.25 * truth[-1][2:] + 0.03 * np.array([np.cos(2 * np.pi * k / 20.0),
                                                        np.sin(2 * np.pi * k / 20.0)])
            w = np.concatenate([pair(sc.sigma_w[0]), pair(sc.sigma_w[1])])
            x_next = sys_.A.matvec(truth[-1]) + sys_.B.matvec(u) + w
            noise = np.concatenate([pair(sc.sigma_v[0]), pair(sc.sigma_v[1])])
            truth.append(x_next)
            inputs.append(u)
            measurements.append(sys_.C.matvec(x_next) + noise)
        return {"seed": seed, "truth": truth, "inputs": inputs, "measurements": measurements}

    def _steps(self, lib, ctx, run, clock, steps):
        builders, admm, reach = lib["builders"], lib["admm"], lib["reach"]
        sc, settings = ctx["scenario"], ctx["settings"]
        horizon = sc.horizon
        truth, inputs, measurements = run["truth"], run["inputs"], run["measurements"]
        state = {"prior": sc.X_init}
        prior_estimate = sc.X_init.c.copy()
        ops = []
        for t in range(1, steps + 1):
            def step(t=t):
                n_eff = min(t, horizon)
                spec = builders.MheSpec(
                    sys=sc.sys, W=sc.W, V=sc.V, prior_set=state["prior"],
                    prior_estimate=prior_estimate, prior_info=sc.prior_info,
                    Q_inv=sc.Q_inv, R_inv=sc.R_inv,
                    inputs=inputs[t - n_eff:t],
                    measurements=measurements[t - n_eff + 1:t + 1],
                    N=n_eff,
                )
                Z, P, q, idx, X_end = builders.build_mhe(spec)
                reduced = admm.reduce_qp(admm.QpProblem(P, q, Z), settings)
                result = admm.admm_solve(reduced, settings)
                contained = admm.contains_point(X_end, truth[t], settings)
                if t >= horizon:
                    s = t - horizon
                    state["prior"] = reach.svse_step_sparse(
                        state["prior"], sc.sys, sc.W, sc.V, inputs[s], measurements[s + 1])
                if t % self.reduce_every == 0:
                    state["prior"] = builders.reduce_prior(state["prior"])
                return {"status": result.status, "iterations": result.iterations,
                        "estimate": result.x_star[idx.x_slice(n_eff)], "X_end": X_end,
                        "contained": contained, "t": t}

            op = clock.run(step)
            ops.append(op)
            if op.error is not None:
                break   # the prior chain is broken; the run stops here
        return ops

    def unit(self, lib, ctx, i, clock):
        return self._steps(lib, ctx, self.inputs(ctx, i), clock, self.steps)

    def check_unit(self, lib, ctx, i, ops):
        """Per-op error lists for one estimator run."""
        run = self.inputs(ctx, i)
        errors = []
        for op in ops:
            e = []
            if op.out["status"] != "converged":
                e.append(f"step {op.out['t']}: status {op.out['status']}")
            x_true = run["truth"][op.out["t"]]
            if not _contains(op.out["X_end"], x_true):
                e.append(f"step {op.out['t']}: true state outside X_end")
            if not op.out["contained"]:
                e.append(f"step {op.out['t']}: contains_point rejected the true state")
            errors.append(e)
        if len(ops) == self.steps and not any(op.error for op in ops):
            truth = np.asarray(run["truth"][1:])
            est = np.array([op.out["estimate"] for op in ops])
            meas = np.asarray(run["measurements"][1:])
            rms_est = np.sqrt(np.mean(np.sum((est[:, :2] - truth[:, :2]) ** 2, axis=1)))
            rms_meas = np.sqrt(np.mean(np.sum((meas[:, :2] - truth[:, :2]) ** 2, axis=1)))
            if not rms_est < rms_meas:
                for e in errors:
                    e.append(f"run seed {run['seed']}: estimate RMS {rms_est:.3f} >= {rms_meas:.3f}")
        return errors

    def report(self, ops):
        lat = [op.latency for op in ops]
        return {"mhe_step_p50_s": (float(np.median(lat)), "s"),
                "mhe_step_tail_s": (tail(lat), "s")}


# ---------------------------------------------------------------------------


class SupportReach:
    """Reachability sweep N = 1..20 with all three recursions, then
    support_batch at eps 1e-8 on 32 evenly spaced directions for X_15 of each.

    A unit is one such pass. The iterations dominate: 3 factorizations
    of n <= 170 followed by 10^3 - 10^4 iterations with 32 columns.
    """

    name = "support-reach"
    methods = ("standard", "graph", "sparse")
    horizon = 20
    support_at = 15
    directions = 32
    min_units = 1
    traced_units = 1
    expected_nnz = {"standard": (33, 315), "graph": (5, 237), "sparse": (2, 105)}
    max_gap = 1e-6

    def setup(self, lib, seed):
        admm = lib["admm"]
        X0, sys_ = lib["scenarios"].second_order_scenario()
        # Fixed, not seeded: at eps 1e-8 the iteration count is heavy-tailed
        # in the direction, so random sets made passes take 5 s to 99 s. The
        # half-step offset needs at most 14049 iterations (graph X_15)
        # against 36166 for the set through the axes, so a run holds 2-3 passes.
        angles = np.pi * (2.0 * np.arange(self.directions) + 1.0) / self.directions
        ctx = {"X0": X0, "sys": sys_, "directions": np.vstack([np.cos(angles), np.sin(angles)]),
               "settings": admm.AdmmSettings(eps_primal=1e-8, eps_dual=1e-8, max_iter=300000)}
        # warm-up: the sweep, and a loose-tolerance batch on every X_15
        loose = admm.AdmmSettings(eps_primal=1e-3, eps_dual=1e-3, max_iter=300000)
        for name in self.methods:
            X = getattr(lib["reach"], f"reach_{name}")(X0, sys_, self.horizon)[self.support_at]
            admm.support_batch(X, ctx["directions"], loose)
        return ctx

    def unit(self, lib, ctx, i, clock):
        D = ctx["directions"]

        def one_pass():
            sets, values = {}, {}
            for name in self.methods:
                clock.split()
                sets[name] = getattr(lib["reach"], f"reach_{name}")(ctx["X0"], ctx["sys"], self.horizon)
            for name in self.methods:
                clock.split()
                values[name] = lib["admm"].support_batch(sets[name][self.support_at], D, ctx["settings"])
            return {"sets": sets, "values": values}

        return [clock.run(one_pass, work=self.directions * len(self.methods))]

    def check_unit(self, lib, ctx, i, ops):
        return [self._check(lib, ctx, op) for op in ops]

    def _check(self, lib, ctx, op):
        reach = lib["reach"]
        errors = []
        dims = reach.ReachDims.of(ctx["X0"], ctx["sys"])
        for name, sets in op.out["sets"].items():
            X = sets[self.support_at]
            if (X.G.nnz, X.A.nnz) != self.expected_nnz[name]:
                errors.append(f"{name}: nnz(G), nnz(A) at N=15 = {(X.G.nnz, X.A.nnz)}")
            for N, X_N in enumerate(sets):
                pred = reach.predict_complexity(name, N, dims)
                if (X_N.n_g, X_N.n_c) != (pred.n_g, pred.n_c) or X_N.G.nnz > pred.nnz_g_bound \
                        or X_N.A.nnz > pred.nnz_a_bound:
                    errors.append(f"{name}: N={N} counts exceed predict_complexity")
        v = op.out["values"]
        gap = max(np.max(np.abs(v["standard"] - v["graph"])),
                  np.max(np.abs(v["standard"] - v["sparse"])))
        if not gap <= self.max_gap:
            errors.append(f"cross-method support gap {gap:.3e} > {self.max_gap}")
        return errors

    def report(self, ops):
        return {"support_values_per_s": (work_rate(ops), "1/s")}


# ---------------------------------------------------------------------------


class SafetyCert:
    """Per-step certification of a 40-step disturbed tube against one
    seeded obstacle per tube; every other obstacle crosses the tube.

    An operation is one step: propagate the tube, build the clash set,
    run check_empty with k_inf = 1. Certificates fire here, mostly at
    iteration 1; on nonempty steps the projection runs every iteration
    and never hits.
    """

    name = "safety-cert"
    steps = 40
    min_units = 1
    traced_units = 2

    def setup(self, lib, seed):
        admm, sets, sparse = lib["admm"], lib["sets"], lib["sparse"]
        sc = lib["scenarios"].safety_scenario(n_steps=self.steps)
        sys_, K = sc.sys, sc.K
        n_x = sys_.n_x
        SparseMat = sparse.SparseMat
        a_closed = SparseMat(sys_.A.tocsc() - sparse.multiply(sys_.B, K).tocsc())
        ctx = {
            "seed": seed, "scenario": sc, "settings": admm.AdmmSettings(k_inf=1),
            "dyn": sparse.hcat(a_closed, SparseMat.eye(n_x), SparseMat.eye(n_x, -1.0)),
            "project": sparse.hcat(SparseMat.zeros(n_x, 2 * n_x), SparseMat.eye(n_x)),
        }
        # warm-up: the first ten steps of an extra tube
        self._tube(lib, ctx, self.obstacle(lib, ctx, -1), OpClock(), 10)
        return ctx

    def obstacle(self, lib, ctx, i):
        """Hexagon crossing the tube (y in [0.15, 0.5]) on even units,
        clear of it on odd ones."""
        rng = _rng(ctx["seed"], 4, i)
        r = rng.uniform(0.5, 1.5)
        cx = rng.uniform(2.0, 10.0)
        if i % 2 == 0:
            cy = 0.3 + rng.uniform(-0.5, 0.5) * r
        else:
            cy = 0.3 + rng.choice([-1.0, 1.0]) * (0.2 + 1.16 * r + rng.uniform(0.3, 3.0))
        return lib["sets"].make_regular_polygon(6, r, center=(cx, cy))

    def _tube(self, lib, ctx, O, clock, steps):
        sets, admm = lib["sets"], lib["admm"]
        sc, settings = ctx["scenario"], ctx["settings"]
        sys_ = sc.sys
        state = {"X": sc.X0}
        ops = []
        for k in range(steps + 1):
            def step(k=k):
                if k > 0:
                    u_ff = sc.K.matvec(np.asarray(sc.x_refs[k - 1], dtype=float))
                    stacked = sets.cartesian_product(sets.cartesian_product(state["X"], sc.W), sys_.S)
                    pinned = sets.generalized_intersection(
                        stacked, sets.point_set(-sys_.B.matvec(u_ff)), ctx["dyn"])
                    state["X"] = sets.affine_map(ctx["project"], pinned)
                clash = sets.generalized_intersection(state["X"], O, sc.R_map)
                outcome = admm.check_empty(clash, settings)
                return {"status": outcome.status, "iterations": outcome.iterations,
                        "clash": clash, "k": k}

            op = clock.run(step)
            ops.append(op)
            if op.error is not None:
                break
        return ops

    def unit(self, lib, ctx, i, clock):
        return self._tube(lib, ctx, self.obstacle(lib, ctx, i), clock, self.steps)

    def check_unit(self, lib, ctx, i, ops):
        settings = ctx["settings"]
        errors = []
        for op in ops:
            status, Z = op.out["status"], op.out["clash"]
            if status == "infeasible":
                ok = not _lp_feasible(Z.A.tocsc(), Z.b)
                kind = "false certificate"
            else:
                # "converged" claims a box point zeta within ||xi - zeta||_2 <
                # sqrt(n_G) eps_primal of the affine set, so the affine set
                # must meet the box widened by that much
                slack = settings.eps_primal * (np.sqrt(Z.n_g) if settings.norm == "l2" else 1.0)
                ok = status == "converged" and _lp_feasible(Z.A.tocsc(), Z.b, slack)
                kind = "iteration limit" if status != "converged" else "missed certificate"
            errors.append([] if ok else [f"step {op.out['k']}: {kind}"])
        return errors

    def report(self, ops):
        lat = [op.latency for op in ops]
        return {"cert_step_p50_s": (float(np.median(lat)), "s"),
                "cert_step_tail_s": (tail(lat), "s")}


# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least 10 samples beyond it.

    With n samples that is the (n - 10)-th smallest; below 11 samples
    no such percentile exists and the maximum is returned.
    """
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[-11]) if len(v) >= 11 else float(v[-1])


def work_rate(ops):
    return float(sum(op.work for op in ops) / sum(op.latency for op in ops))


WORKLOADS = {w.name: w for w in (MpcCorridor(), MheWindow(), SupportReach(), SafetyCert())}
