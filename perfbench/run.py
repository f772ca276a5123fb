#!/usr/bin/env python3
"""Benchmark of the conzopt library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mpc-corridor --seed 0 --seconds 20 --trace 0

Workloads: mpc-corridor, mhe-window, safety-cert and support-reach (see
perfbench/README.md; BENCHMARK.json lists the first three). The load is a
closed loop with one caller in one process, BLAS on one thread. With
``--trace 0`` the run sets up at least three times and for at least three
seconds (reporting the median), measures operations for ``--seconds``
seconds, timing the reference kernel of reference.py between them, and
prints the end-to-end metrics; latencies are gated in units of that
kernel's time and also printed in seconds. With ``--trace 1`` it replays
the first units of the same seed alternately without and with spans
around the library's public functions, and prints the per-layer metrics.
Outputs are checked after timing in both modes. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
a copy of the full result, and with ``--trace 1`` the spans, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAYERS = ("sparse", "sets", "reach", "admm", "builders", "scenarios")
SETUP_REPS = 3          # set-ups per timed run: at least this many ...
SETUP_SECONDS = 3.0     # ... and until this much time is spent on them,
SETUP_MAX_REPS = 15     # so that short set-ups get a steadier median
# listed here because importing workloads loads numpy, which has to wait
# for the BLAS thread cap
WORKLOAD_NAMES = ("mpc-corridor", "mhe-window", "support-reach", "safety-cert")
KIB_PER_MB = 1024.0   # ru_maxrss is in KiB on Linux
BLAS_THREADS = 1


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def limit_blas_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    Idle OpenBLAS worker threads on a shared host made a 400 x 400
    triangular solve take 1 or 8 ms depending on when they were woken,
    so more threads measured the scheduler rather than the library.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_library():
    """Import conzopt afresh (dropping any loaded copy) from the checkout."""
    for name in [m for m in sys.modules if m == "conzopt" or m.startswith("conzopt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("conzopt")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "conzopt":
        raise ImportError(f"conzopt imported from {pkg.__file__}, not from this checkout")
    return {name: importlib.import_module(f"conzopt.{name}") for name in LAYERS}


# ---------------------------------------------------------------------------
# machine description


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _blas_threads():
    import ctypes
    import numpy
    import scipy

    found = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
            try:
                found[f"{pkg.__name__}"] = int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (OSError, AttributeError):
                pass
    return found or {"env": int(os.environ["OPENBLAS_NUM_THREADS"])}


def machine_info(seed):
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "seed": seed,
    }


# ---------------------------------------------------------------------------
# running


def setup(workload, seed, reps, seconds=0.0):
    """Import, generate inputs and warm up at least ``reps`` times and for at
    least ``seconds`` (at most SETUP_MAX_REPS times); keep the last."""
    times = []
    while len(times) < reps or (sum(times) < seconds and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        lib = load_library()
        ctx = workload.setup(lib, seed)
        times.append(time.perf_counter() - t0)
    return lib, ctx, times


def run_units(lib, workload, ctx, clock, seconds=0.0, units=0):
    """Run whole units until ``seconds`` have passed and ``units`` are done."""
    by_unit = []
    t_end = time.perf_counter() + seconds
    while len(by_unit) < units or time.perf_counter() < t_end:
        by_unit.append(workload.unit(lib, ctx, len(by_unit), clock))
    return by_unit


def check(lib, workload, ctx, by_unit):
    """Error lists, one per op; an op that raised carries its error."""
    errors = []
    for i, ops in enumerate(by_unit):
        done = [op for op in ops if op.error is None]
        per_op = iter(workload.check_unit(lib, ctx, i, done))
        errors += [[op.error] if op.error else next(per_op) for op in ops]
    return errors


@dataclass
class Outcome:
    ops: list           # every timed operation
    errors: list        # one list of messages per operation
    metrics: dict       # name -> (value, unit), the gated metrics
    extra: dict         # name -> (value, unit), printed only
    info: dict
    problems: list = field(default_factory=list)   # run-level failures


def timed_run(workload, seed, seconds):
    from reference import Reference
    from workloads import OpClock, work_rate

    lib, ctx, setup_times = setup(workload, seed, SETUP_REPS, SETUP_SECONDS)
    ref = Reference()
    by_unit = run_units(lib, workload, ctx, OpClock(reference=ref), seconds, workload.min_units)
    ref.measure()   # so that the last segment has a measurement after it
    ops = [op for ops in by_unit for op in ops]
    for op in ops:
        op.ref_latency = ref.in_units(op.segments)
    work = sum(op.work for op in ops)
    metrics = {
        "op_p50_ref": (statistics.median(op.ref_latency for op in ops), "ref"),
        "work_per_kref": (1e3 * work / sum(op.ref_latency for op in ops), "1/kref"),
        "setup_s": (statistics.median(setup_times), "s"),
        # read before the checks, whose LPs are not the library's memory
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB_PER_MB, "MB"),
    }
    extra = {"op_p50_s": (statistics.median(op.latency for op in ops), "s"),
             "work_per_s": (work_rate(ops), "1/s"),
             "reference_p50_s": (statistics.median(d for _, d in ref.samples), "s")}
    ok = [op for op in ops if op.error is None]
    extra.update(workload.report(ok) if ok else {})
    return Outcome(ops, check(lib, workload, ctx, by_unit), metrics, extra,
                   {"setup_runs_s": setup_times, "units": len(by_unit),
                    "reference_samples": ref.samples, "reference_parts_s": ref.parts_s,
                    "segments": [op.segments for op in ops]})


def traced_run(workload, seed, seconds):
    from tracer import EXACT_COUNTS, UNITS, Tracer, write_spans
    from workloads import OpClock

    lib, ctx, _ = setup(workload, seed, 1)
    tracer = Tracer(lib)
    reps = []   # (untraced seconds, traced seconds, metrics, spans, ops by unit)
    t_end = time.perf_counter() + seconds
    while not reps or time.perf_counter() < t_end:
        # alternate which side runs first, so neither always meets cold caches
        if len(reps) % 2 == 0:
            plain = run_units(lib, workload, ctx, OpClock(), units=workload.traced_units)
        tracer.reset()
        tracer.install()
        try:
            traced = run_units(lib, workload, ctx, OpClock(tracer), units=workload.traced_units)
        finally:
            tracer.uninstall()
        if len(reps) % 2 == 1:
            plain = run_units(lib, workload, ctx, OpClock(), units=workload.traced_units)
        t_plain = sum(op.latency for ops in plain for op in ops)
        t_traced = sum(op.latency for ops in traced for op in ops)
        reps.append((t_plain, t_traced, tracer.metrics(t_traced), list(tracer.spans), traced))
    t_plain, t_traced, metrics, spans, traced = sorted(reps, key=lambda r: r[1])[len(reps) // 2]
    metrics = dict(metrics)
    metrics["trace.overhead_frac"] = (statistics.median(r[1] for r in reps)
                                      / statistics.median(r[0] for r in reps) - 1.0)
    unsteady = [k for k in EXACT_COUNTS if len({r[2][k] for r in reps}) > 1]
    OUT.mkdir(exist_ok=True)
    write_spans(spans, OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    ops = [op for ops in traced for op in ops]
    return Outcome(ops, check(lib, workload, ctx, traced),
                   {k: (v, UNITS[k]) for k, v in metrics.items()}, {},
                   {"repetitions": len(reps), "traced_op_s": t_traced,
                    "missing_names": tracer.missing},
                   [f"counts differ between repetitions: {unsteady}"] if unsteady else [])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not (ROOT / "src" / "conzopt" / "__init__.py").is_file():
        print(f"error: no conzopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  (imported before timing: not part of setup_s)
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    out = run(workload, args.seed, args.seconds)
    failures = [e for e in out.errors if e]
    failed, attempted = len(failures), len(out.ops)

    machine = machine_info(args.seed)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    print("machine " + json.dumps(machine))
    for name, (value, unit) in {**out.metrics, **out.extra}.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    failures += [[p] for p in out.problems]
    for e in failures[:10]:
        print("FAILED: " + "; ".join(e))

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = {**result, "workload": workload.name, "trace": args.trace, "machine": machine,
              "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.extra.items()},
              "info": out.info, "errors": failures}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
