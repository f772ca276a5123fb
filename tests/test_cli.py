import argparse
import csv
import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest

from conzopt import AdmmSettings, safety_verify
from conzopt.cli import EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_SOUNDNESS, EXIT_USAGE, build_parser, main
from conzopt.reach import REACH_METHODS
from conzopt.scenarios import run_mhe_simulation, safety_scenario, second_order_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_reach_default_counts(tmp_path, capsys):
    code, doc = run_cli(capsys, "reach", "--out", str(tmp_path), "--format", "both")
    assert code == EXIT_OK
    counts = doc["counts"]
    assert counts["standard"]["nnz_g"] == 33
    assert counts["graph"]["nnz_g"] == 5
    assert counts["sparse"]["nnz_g"] == 2
    assert counts["standard"]["nnz_a"] == 315
    assert counts["graph"]["nnz_a"] == 237
    assert counts["sparse"]["nnz_a"] == 105
    for method in counts:
        assert counts[method]["n_g"] == counts[method]["predicted"]["n_g"]
        assert counts[method]["n_c"] == counts[method]["predicted"]["n_c"]
        assert counts[method]["nnz_g"] <= counts[method]["predicted"]["nnz_g_bound"]
        assert counts[method]["nnz_a"] <= counts[method]["predicted"]["nnz_a_bound"]
    assert (tmp_path / "reach.json").exists()
    with (tmp_path / "reach_records.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"standard", "graph", "sparse"}
    assert all(int(r["n_g"]) >= 0 for r in rows)


def test_reach_zero_horizon_counts(capsys):
    code, doc = run_cli(capsys, "reach", "--n", "0")
    assert code == EXIT_OK
    for method in ("standard", "graph", "sparse"):
        assert doc["counts"][method]["n_g"] == 2
        assert doc["counts"][method]["n_c"] == 0
        assert doc["counts"][method]["nnz_g"] == 2


def test_reach_sweep_sparse_affine(capsys):
    code, doc = run_cli(capsys, "reach", "--sweep", "12")
    assert code == EXIT_OK
    rows = [r for r in doc["sweep"] if r["method"] == "sparse"]
    ns = np.array([r["N"] for r in rows])
    nnz = np.array([r["nnz_a"] for r in rows])
    coeffs, residuals, *_ = np.polyfit(ns, nnz, 1, full=True)
    ss_tot = np.sum((nnz - nnz.mean()) ** 2)
    assert 1.0 - (residuals[0] if len(residuals) else 0.0) / ss_tot > 0.999
    assert len({r["nnz_g"] for r in rows}) == 1


def test_reach_json_sets_roundtrip(capsys):
    from conzopt import ConZono

    code, doc = run_cli(capsys, "reach", "--n", "3")
    for method in ("standard", "graph", "sparse"):
        Z = ConZono.from_json_dict(doc["sets"][method])
        assert Z.dim == 2
        assert Z.to_json_dict() == doc["sets"][method]


def test_mpc_small_instance(tmp_path, capsys):
    code, doc = run_cli(capsys, "mpc", "--n", "8", "--norm", "inf",
                        "--out", str(tmp_path), "--format", "json")
    assert code == EXIT_OK
    assert doc["status"] == "converged"
    assert doc["violations"] == 0
    assert len(doc["trajectory"]["x"]) == 9
    assert (tmp_path / "mpc.json").exists()


def test_mpc_reports_structural_counts(tmp_path, capsys):
    # the f = 1 corridor problem: G and A of the unrolled set, and M
    code, doc = run_cli(capsys, "mpc", "--f", "1", "--out", str(tmp_path), "--format", "both")
    assert code == EXIT_OK
    assert (doc["n_g"], doc["nnz_g"], doc["nnz_a"], doc["nnz_m"]) == (825, 1540, 3657, 10119)
    with (tmp_path / "mpc_records.csv").open() as fh:
        (row,) = list(csv.DictReader(fh))
    assert (int(row["nnz_g"]), int(row["nnz_a"]), int(row["nnz_m"])) == (1540, 3657, 10119)


def test_mpc_closed_loop_smoke(capsys):
    code, doc = run_cli(capsys, "mpc", "--n", "6", "--closed-loop", "3",
                        "--norm", "inf")
    assert code == EXIT_OK
    assert len(doc["closed_loop"]) == 3
    assert all(c["status"] == "converged" for c in doc["closed_loop"])


def test_mpc_closed_loop_horizon_past_base(capsys):
    code, doc = run_cli(capsys, "mpc", "--n", "5", "--closed-loop", "1", "--horizon", "6")
    assert code == EXIT_OK
    assert [c["status"] for c in doc["closed_loop"]] == ["converged"]


def test_mhe_soundness_and_rms(tmp_path, capsys):
    code, doc = run_cli(capsys, "mhe", "--n", "18", "--seed", "1",
                        "--out", str(tmp_path), "--format", "both")
    assert code == EXIT_OK
    assert {f.name for f in tmp_path.iterdir()} == {"mhe.json", "mhe_records.csv"}
    assert all(doc["contained"])
    assert doc["rms"]["mhe_position"] < doc["rms"]["measurement_position"]
    assert len(doc["sets"]) == 18


def test_mhe_zero_noise_tracks_truth(capsys):
    code, doc = run_cli(capsys, "mhe", "--n", "10", "--seed", "0", "--zero-noise",
                        "--eps-primal", "1e-4", "--eps-dual", "1e-4")
    assert code == EXIT_OK
    est = np.asarray(doc["estimates"])
    truth = np.asarray(doc["truth"])[1:]
    assert np.max(np.abs(est - truth)) <= 1e-2


def test_mhe_deterministic_given_seed(capsys):
    code1, doc1 = run_cli(capsys, "mhe", "--n", "6", "--seed", "7")
    code2, doc2 = run_cli(capsys, "mhe", "--n", "6", "--seed", "7")
    assert doc1["estimates"] == doc2["estimates"]
    assert doc1["rms"] == doc2["rms"]
    assert doc1["sets"] == doc2["sets"]


def test_verify_default_certifies(tmp_path, capsys):
    code, doc = run_cli(capsys, "verify", "--out", str(tmp_path), "--format", "csv")
    assert code == EXIT_OK
    assert all(s["certified"] for s in doc["per_step"])
    ones = doc["iterations_histogram"].get("1", 0)
    assert ones > len(doc["per_step"]) / 2
    assert np.median([s["iterations"] for s in doc["per_step"]]) <= 10
    assert (tmp_path / "verify_records.csv").exists()


_SIZES = ("n_g", "n_c", "nnz_g", "nnz_a", "nnz_m")


def _records_and_rows(tmp_path, capsys, name, *argv):
    """A command's bench records, from its JSON document and from its CSV file."""
    code, doc = run_cli(capsys, name, *argv, "--out", str(tmp_path), "--format", "both")
    assert code == EXIT_OK
    with (tmp_path / f"{name}_records.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(doc["records"]) == len(rows)
    return doc, doc["records"], rows


def test_records_leave_unmeasured_sizes_empty(tmp_path, capsys):
    # a size the command does not measure is null in JSON and an empty CSV cell, not 0
    _, (record,), (row,) = _records_and_rows(tmp_path, capsys, "verify", "--n", "3")
    assert all(record[k] is None and row[k] == "" for k in _SIZES)
    assert int(row["iterations"]) == record["iterations"] > 0

    doc, (record,), (row,) = _records_and_rows(tmp_path, capsys, "mhe", "--n", "4", "--seed", "1")
    assert record["nnz_m"] is None and row["nnz_m"] == ""
    assert record["nnz_g"] == max(len(s["G"]) for s in doc["sets"]) > 0
    assert record["nnz_a"] == max(len(s["A"]) for s in doc["sets"]) > 0
    assert record["n_g"] == max(s["nG"] for s in doc["sets"])
    assert [int(row[k]) for k in _SIZES[:4]] == [record[k] for k in _SIZES[:4]]

    doc, records, rows = _records_and_rows(tmp_path, capsys, "reach", "--n", "2")
    for record, row in zip(records, rows):
        assert record["nnz_m"] is None and row["nnz_m"] == ""
        assert int(row["nnz_a"]) == record["nnz_a"] == doc["counts"][record["method"]]["nnz_a"]


def test_verify_obstacle_on_tube_fails(capsys):
    code = main(["verify", "--obstacle", "1,0"])
    capsys.readouterr()
    assert code == EXIT_NO_CONVERGENCE


def test_verify_point_obstacle_certifies(capsys):
    # R = 0 is a point obstacle, still clear of the tube at the default centre
    code, doc = run_cli(capsys, "verify", "--n", "3", "--obstacle", "6,-5,0")
    assert code == EXIT_OK
    assert all(s["certified"] for s in doc["per_step"])


@pytest.mark.parametrize("argv, error", [
    (["mhe", "--n", "2", "--rho", "1e-300"], "RankDeficiencyError"),
    (["verify", "--n", "2", "--rho", "1e300"], "RankDeficiencyError"),
    (["mhe", "--n", "2", "--max-iter", "1"], "IndeterminateResultError"),
])
def test_solver_errors_exit_no_convergence(argv, error, capsys):
    assert main(argv) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_bad_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["mpc", "--norm", "l7"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["mpc", "--f", "0"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["verify", "--obstacle", "a,b"],
    ["verify", "--obstacle", "1,2,3,4"],
    ["verify", "--obstacle", "6,-5,-1"],
    ["verify", "--obstacle", "6,-5,nan"],
    ["verify", "--n", "-1"],
    ["mpc", "--n", "0"],
    ["mhe", "--n", "0"],
    ["reach", "--n", "-1"],
    ["mpc", "--rho", "-1"],
    ["mpc", "--rho", "nan"],
    ["mpc", "--k-inf", "0"],
    ["mpc", "--eps-primal", "0"],
    ["mpc", "--eps-dual", "inf"],
    ["mpc", "--horizon", "0"],
    ["mhe", "--max-iter", "0"],
    ["mhe", "--seed", "-1"],
    ["reach", "--sweep", "-3"],
])
def test_invalid_values_exit_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, defaults", [
    (["mpc", "--n", "2"], AdmmSettings()),
    (["mhe", "--n", "2"], AdmmSettings()),
    (["verify", "--n", "1"], inspect.signature(safety_verify).parameters["settings"].default),
])
def test_solver_flags_default_to_the_library_settings(argv, defaults, capsys):
    _, doc = run_cli(capsys, *argv)
    assert doc["settings"] == asdict(defaults)


@pytest.mark.parametrize("command, fn, name", [
    ("mhe", run_mhe_simulation, "steps"),
    ("verify", safety_scenario, "n_steps"),
])
def test_step_count_defaults_to_the_library_signature(command, fn, name):
    assert build_parser().parse_args([command]).n == inspect.signature(fn).parameters[name].default


def test_sweep_entries_equal_per_horizon_runs(capsys):
    _, doc = run_cli(capsys, "reach", "--n", "2", "--sweep", "5")
    X0, sys = second_order_scenario()
    expected = []
    for n in range(1, 6):
        for method, fn in REACH_METHODS.items():
            X_n = fn(X0, sys, n)[-1]
            expected.append({"method": method, "N": n, "nnz_g": X_n.G.nnz, "nnz_a": X_n.A.nnz})
    assert doc["sweep"] == expected


def test_solver_flags_override_the_library_settings(capsys):
    _, doc = run_cli(capsys, "verify", "--n", "1", "--k-inf", "4", "--norm", "inf")
    assert doc["settings"] == asdict(AdmmSettings(k_inf=4, norm="inf"))


SOLVER_FLAGS = {"--eps-primal", "--eps-dual", "--rho", "--k-inf", "--max-iter", "--norm"}
OUTPUT_FLAGS = {"--out", "--format"}


def test_each_subcommand_registers_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert flags == {
        "reach": {"--n", "--sweep"} | OUTPUT_FLAGS,
        "mpc": {"--n", "--f", "--closed-loop", "--horizon"} | SOLVER_FLAGS | OUTPUT_FLAGS,
        "mhe": {"--n", "--seed", "--zero-noise"} | SOLVER_FLAGS | OUTPUT_FLAGS,
        "verify": {"--n", "--obstacle"} | SOLVER_FLAGS | OUTPUT_FLAGS,
    }
    assert sum(map(len, flags.values())) == 37


@pytest.mark.parametrize("argv", [
    ["reach", "--rho", "1"],
    ["reach", "--seed", "1"],
    ["mpc", "--seed", "1"],
    ["mhe", "--f", "2"],
    ["mhe", "--f", "json"],
    ["verify", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_exit_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_NO_CONVERGENCE, EXIT_SOUNDNESS, EXIT_USAGE) == (0, 2, 3, 64)
