"""Command-line front end for the benchmark scenarios.

Subcommands: reach | mpc | mhe | verify. Each emits one JSON document
(stdout, and a file under --out when given) plus a flat CSV of bench
records. Exit codes: 0 success, 2 solver non-convergence (or a solver
error: dependent constraint rows, an indeterminate or empty-set query),
3 soundness violation, 64 bad usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .admm import AdmmSettings, ConstraintRankError, EmptySetError, IndeterminateResultError
from .builders import SAFETY_SETTINGS
from .reach import REACH_METHODS, ReachDims, predict_complexity
from .scenarios import (
    corridor_mpc_scenario,
    run_mhe_simulation,
    run_mpc_closed_loop,
    run_mpc_open_loop,
    run_safety_scenario,
    safety_scenario,
    second_order_scenario,
)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_SOUNDNESS = 3
EXIT_USAGE = 64


@dataclass
class BenchRecord:
    """One row of the benchmark table."""

    scenario: str
    method: str
    N: int
    n_g: int
    n_c: int
    nnz_g: int
    nnz_a: int
    nnz_m: int
    iterations: int
    wall_ms: float
    status: str


class _Parser(argparse.ArgumentParser):
    # a prefix of a flag is not that flag: mhe --f json would otherwise read as --format
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not (0.0 < value < np.inf):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _obstacle(text):
    """CX,CY[,R] as keyword arguments of safety_scenario."""
    parts = [float(p) for p in text.split(",")]
    if len(parts) not in (2, 3) or not np.all(np.isfinite(parts)) or min(parts[2:], default=0.0) < 0:
        raise argparse.ArgumentTypeError(f"expected CX,CY[,R] as finite numbers with R >= 0, got {text!r}")
    return dict(zip(("obstacle_center", "obstacle_inradius"), (tuple(parts[:2]), *parts[2:])))


def _add_output(parser):
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="json")


def _add_solver(parser, defaults: AdmmSettings):
    """The six solver flags, each defaulting to its field of ``defaults``."""
    parser.add_argument("--eps-primal", type=_positive_float)
    parser.add_argument("--eps-dual", type=_positive_float)
    parser.add_argument("--rho", type=_positive_float)
    parser.add_argument("--k-inf", type=_positive_int)
    parser.add_argument("--max-iter", type=_positive_int)
    parser.add_argument("--norm", choices=["l2", "inf"])
    parser.set_defaults(**asdict(defaults))


def _settings(args):
    return AdmmSettings(**{f.name: getattr(args, f.name) for f in fields(AdmmSettings)})


def _emit(args, name, document, records):
    document = dict(document)
    document["records"] = [asdict(r) for r in records]
    text = json.dumps(document, indent=2)
    if args.out is None:
        print(text)
        return
    args.out.mkdir(parents=True, exist_ok=True)
    if args.format in ("json", "both"):
        (args.out / f"{name}.json").write_text(text + "\n")
    if args.format in ("csv", "both"):
        path = args.out / f"{name}_records.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(BenchRecord.__dataclass_fields__))
            writer.writeheader()
            for r in records:
                writer.writerow(asdict(r))
    print(text)


# ---------------------------------------------------------------------------


def cmd_reach(args):
    X0, sys = second_order_scenario()
    dims = ReachDims.of(X0, sys)
    records = []
    sets_json = {}
    counts = {}
    for method, fn in REACH_METHODS.items():
        t0 = time.perf_counter()
        sets = fn(X0, sys, args.n)
        wall = (time.perf_counter() - t0) * 1e3
        X_N = sets[-1]
        records.append(BenchRecord(
            scenario="reach2nd", method=method, N=args.n,
            n_g=X_N.n_g, n_c=X_N.n_c, nnz_g=X_N.G.nnz, nnz_a=X_N.A.nnz,
            nnz_m=0, iterations=0, wall_ms=wall, status="ok",
        ))
        sets_json[method] = X_N.to_json_dict()
        pred = predict_complexity(method, args.n, dims)
        counts[method] = {
            "nnz_g": X_N.G.nnz, "nnz_a": X_N.A.nnz,
            "n_g": X_N.n_g, "n_c": X_N.n_c,
            "predicted": asdict(pred),
        }
    sweep = []
    if args.sweep:
        for n in range(1, args.sweep + 1):
            for method, fn in REACH_METHODS.items():
                X_N = fn(X0, sys, n)[-1]
                sweep.append({"method": method, "N": n,
                              "nnz_g": X_N.G.nnz, "nnz_a": X_N.A.nnz})
    doc = {"scenario": "reach2nd", "N": args.n, "counts": counts,
           "sets": sets_json, "sweep": sweep}
    _emit(args, "reach", doc, records)
    return EXIT_OK


def cmd_mpc(args):
    settings = _settings(args)
    spec = corridor_mpc_scenario(args.f, horizon=args.n)
    t0 = time.perf_counter()
    run = run_mpc_open_loop(spec, settings)
    wall = (time.perf_counter() - t0) * 1e3
    record = BenchRecord(
        scenario="mpc-corridor", method="sparse", N=spec.N,
        n_g=run.n_g, n_c=run.n_c, nnz_g=run.nnz_g, nnz_a=run.nnz_a, nnz_m=run.nnz_m,
        iterations=run.iterations, wall_ms=wall, status=run.status,
    )
    closed = []
    if args.closed_loop:
        for status, iters, x, u in run_mpc_closed_loop(
                spec, args.closed_loop, horizon=args.horizon, settings=settings):
            closed.append({"status": status, "iterations": iters,
                           "x": x.tolist(), "u": u.tolist()})
    doc = {
        "scenario": "mpc-corridor", "f": args.f, "N": spec.N,
        "settings": asdict(settings),
        "status": run.status, "iterations": run.iterations,
        "n_g": run.n_g, "n_c": run.n_c, "nnz_g": run.nnz_g, "nnz_a": run.nnz_a,
        "nnz_m": run.nnz_m,
        "objective": run.objective,
        "violations": run.violations,
        "trajectory": {
            "x": [x.tolist() for x in run.states],
            "u": [u.tolist() for u in run.inputs],
        },
        "closed_loop": closed,
    }
    _emit(args, "mpc", doc, [record])
    if run.status != "converged" or any(c["status"] != "converged" for c in closed):
        return EXIT_NO_CONVERGENCE
    if run.violations:
        return EXIT_SOUNDNESS
    return EXIT_OK


def cmd_mhe(args):
    settings = _settings(args)
    t0 = time.perf_counter()
    result = run_mhe_simulation(seed=args.seed, steps=args.n, settings=settings,
                                zero_noise=args.zero_noise)
    wall = (time.perf_counter() - t0) * 1e3
    record = BenchRecord(
        scenario="mhe-sim", method="sparse", N=args.n,
        n_g=max(s.n_g for s in result.sets), n_c=max(s.n_c for s in result.sets),
        nnz_g=0, nnz_a=0, nnz_m=0,
        iterations=int(np.sum(result.iterations)), wall_ms=wall,
        status="ok" if all(s == "converged" for s in result.statuses) else "not-converged",
    )
    doc = {
        "scenario": "mhe-sim", "seed": args.seed, "steps": args.n,
        "settings": asdict(settings),
        "rms": {
            "measurement_position": result.rms_meas_pos,
            "mhe_position": result.rms_mhe_pos,
            "measurement_velocity": result.rms_meas_vel,
            "mhe_velocity": result.rms_mhe_vel,
        },
        "contained": result.contained,
        "estimates": result.estimates.tolist(),
        "truth": result.truth.tolist(),
        "sets": [s.to_json_dict() for s in result.sets],
    }
    _emit(args, "mhe", doc, [record])
    if record.status != "ok":
        return EXIT_NO_CONVERGENCE
    if not all(result.contained):
        bad = [i + 1 for i, ok in enumerate(result.contained) if not ok]
        print(f"soundness violation: true state left the feasible set at steps {bad}", file=sys.stderr)
        return EXIT_SOUNDNESS
    return EXIT_OK


def cmd_verify(args):
    settings = _settings(args)
    scenario = safety_scenario(n_steps=args.n, **args.obstacle)
    t0 = time.perf_counter()
    steps = run_safety_scenario(scenario, settings)
    wall = (time.perf_counter() - t0) * 1e3
    histogram = {}
    for s in steps:
        if s.certified:
            histogram[s.iterations] = histogram.get(s.iterations, 0) + 1
    record = BenchRecord(
        scenario="safety", method="sparse", N=args.n,
        n_g=0, n_c=0, nnz_g=0, nnz_a=0, nnz_m=0,
        iterations=int(np.sum([s.iterations for s in steps])), wall_ms=wall,
        status="certified" if all(s.certified for s in steps) else "not-certified",
    )
    doc = {
        "scenario": "safety", "steps": args.n,
        "settings": asdict(settings),
        "per_step": [{"step": s.step, "certified": s.certified,
                      "iterations": s.iterations} for s in steps],
        "iterations_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    _emit(args, "verify", doc, [record])
    if not all(s.certified for s in steps):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="conzopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_reach = sub.add_parser("reach", help="reachable-set size benchmark")
    p_reach.add_argument("--n", type=_nonnegative_int, default=15, help="horizon (default %(default)s)")
    p_reach.add_argument("--sweep", type=_nonnegative_int, default=0, help="also sweep N=1..SWEEP")
    _add_output(p_reach)
    p_reach.set_defaults(fn=cmd_reach)

    p_mpc = sub.add_parser("mpc", help="corridor tracking benchmark")
    p_mpc.add_argument("--n", type=_positive_int, default=None, help="horizon (default 55 F)")
    p_mpc.add_argument("--f", type=_positive_int, default=1, help="scenario scaling factor")
    _add_solver(p_mpc, AdmmSettings())
    p_mpc.add_argument("--closed-loop", type=_nonnegative_int, default=0, help="simulate this many steps")
    p_mpc.add_argument("--horizon", type=_positive_int, default=None, help="receding horizon length")
    _add_output(p_mpc)
    p_mpc.set_defaults(fn=cmd_mpc)

    p_mhe = sub.add_parser("mhe", help="estimation benchmark")
    p_mhe.add_argument("--n", type=_positive_int, default=40, help="step count (default %(default)s)")
    p_mhe.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_solver(p_mhe, AdmmSettings())
    p_mhe.add_argument("--zero-noise", action="store_true")
    _add_output(p_mhe)
    p_mhe.set_defaults(fn=cmd_mhe)

    p_verify = sub.add_parser("verify", help="safety certification benchmark")
    p_verify.add_argument("--n", type=_nonnegative_int, default=20, help="step count (default %(default)s)")
    _add_solver(p_verify, SAFETY_SETTINGS)
    p_verify.add_argument("--obstacle", type=_obstacle, default={},
                          help="obstacle override as CX,CY[,R]")
    _add_output(p_verify)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConstraintRankError, IndeterminateResultError, EmptySetError) as err:
        print(f"{parser.prog} {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
