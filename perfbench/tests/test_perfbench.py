"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

They check that the step loops time the library's real code path (by
comparing with the library's own scenario runners on the same seed), that the
counts later changes may cite repeat exactly, that the traced self times
account for the traced operation time, and that the runner refuses to
run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import EXACT_COUNTS, TIMED, Tracer  # noqa: E402
from workloads import WORKLOADS, OpClock, tail  # noqa: E402

SEED = 0


def traced_units(name):
    """Fresh import and set-up, then the workload's traced units with spans."""
    workload = WORKLOADS[name]
    lib, ctx, _ = run.setup(workload, SEED, 1)
    tracer = Tracer(lib).install()
    try:
        by_unit = run.run_units(lib, workload, ctx, OpClock(tracer), units=workload.traced_units)
    finally:
        tracer.uninstall()
    ops = [op for ops in by_unit for op in ops]
    return lib, ctx, tracer, by_unit, ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_self_times_add_up(name):
    runs = [traced_units(name) for _ in range(2)]
    counts = []
    for lib, ctx, tracer, by_unit, ops in runs:
        assert not tracer.missing
        assert all(op.error is None for op in ops)
        op_seconds = sum(op.latency for op in ops)
        metrics = tracer.metrics(op_seconds)
        own, _ = tracer.self_times()
        self_seconds = sum(metrics[f"{name}_s"] for name in TIMED if name != "builders.reduce_prior")
        assert self_seconds == pytest.approx(sum(own.values()), abs=1e-9)
        assert self_seconds + metrics["bench.other_s"] == pytest.approx(op_seconds, abs=1e-9)
        assert 0.0 <= metrics["bench.other_s"] < op_seconds
        assert not any(run.check(lib, WORKLOADS[name], ctx, by_unit)[i] for i in range(len(ops)))
        counts.append({k: metrics[k] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["admm.iterations"] > 0 and counts[0]["sparse.matrices_built"] > 0


def test_tracer_rebinds_imported_names_and_restores_them():
    lib = run.load_library()
    originals = (lib["admm"].ldlt_factorize, lib["builders"].cartesian_product,
                 lib["sparse"].SparseMat.__init__)
    tracer = Tracer(lib).install()
    try:
        assert lib["admm"].ldlt_factorize is not originals[0]
        assert lib["builders"].cartesian_product is not originals[1]
        assert lib["sets"].cartesian_product is lib["builders"].cartesian_product
        lib["sets"].cartesian_product(lib["sets"].point_set([1.0]), lib["sets"].point_set([2.0]))
    finally:
        tracer.uninstall()
    assert (lib["admm"].ldlt_factorize, lib["builders"].cartesian_product,
            lib["sparse"].SparseMat.__init__) == originals
    names = {span[0] for span in tracer.spans}
    assert {"sets.ops", "sparse.assemble"} <= names


def test_removed_name_is_skipped():
    lib = dict(run.load_library())

    class Stub:            # a reach module whose functions were renamed
        pass

    lib["reach"] = Stub()
    tracer = Tracer(lib).install()
    tracer.uninstall()
    assert "reach.reach_sparse" in tracer.missing
    assert "admm.admm_solve" not in tracer.missing


def test_mhe_estimates_equal_run_mhe_simulation():
    workload = WORKLOADS["mhe-window"]
    lib, ctx, _ = run.setup(workload, SEED, 1)
    ops = workload.unit(lib, ctx, 0, OpClock())
    sim = lib["scenarios"].run_mhe_simulation(seed=workload.run_seed(ctx, 0), steps=workload.steps)
    np.testing.assert_array_equal(np.array([op.out["estimate"] for op in ops]), sim.estimates)
    assert [op.out["contained"] for op in ops] == sim.contained


def test_safety_flags_equal_safety_verify():
    workload = WORKLOADS["safety-cert"]
    lib, ctx, _ = run.setup(workload, SEED, 1)
    sc = ctx["scenario"]
    flags = []
    for i in range(2):      # one crossing obstacle, one clear of the tube
        ops = workload.unit(lib, ctx, i, OpClock())
        O = workload.obstacle(lib, ctx, i)
        ref = lib["builders"].safety_verify(sc.sys, sc.K, sc.x_refs, sc.W, sc.X0, O, sc.R_map,
                                            workload.steps, ctx["settings"])
        flags += [op.out["status"] == "infeasible" for op in ops]
        assert flags[-len(ops):] == [s.certified for s in ref]
        assert [op.out["iterations"] for op in ops] == [s.iterations for s in ref]
    assert any(flags) and not all(flags)


def test_mpc_objectives_equal_run_mpc_open_loop():
    workload = WORKLOADS["mpc-corridor"]
    lib, ctx, _ = run.setup(workload, SEED, 1)
    (op,) = workload.unit(lib, ctx, 0, OpClock())
    for f, plan in op.out["plans"].items():
        x = plan["x_star"]
        objective = float(0.5 * x @ plan["P"].matvec(x) + plan["q"] @ x)
        ref = lib["scenarios"].run_mpc_open_loop(plan["spec"], ctx["settings"])
        assert objective == ref.objective, f
        assert plan["iterations"] == ref.iterations


def test_clock_keeps_reference_measurements_out_of_the_timed_segments():
    ref = Reference()
    ref.interval = 0.0          # measure at every chance
    clock = OpClock(reference=ref)

    def two_parts():
        clock.split()
        return {}

    op = clock.run(two_parts)
    assert len(op.segments) == 2 and len(ref.samples) == 2
    for (measured_at, _), (start, _) in zip(ref.samples, op.segments):
        assert measured_at <= start
    assert op.latency == sum(b - a for a, b in op.segments)


def test_reference_units_use_the_kernel_times_around_each_segment():
    ref = Reference()
    ref.samples = [(1.0, 0.01), (2.0, 0.02), (10.0, 0.04)]
    # measured within the window: the first two
    assert ref.in_units([(1.2, 1.8)]) == pytest.approx(0.6 / 0.015)
    # none within the window: the last before and the first after
    assert ref.in_units([(5.0, 6.0)]) == pytest.approx(1.0 / 0.03)
    assert ref.in_units([(1.2, 1.8), (5.0, 6.0)]) == pytest.approx(40.0 + 1.0 / 0.03)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail(range(5)) == 4
    assert tail(range(100)) == 89


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_the_metrics_of_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "safety-cert", "--seed", "1",
                                             "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "safety-cert", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
