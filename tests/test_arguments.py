"""The rules for vector and matrix arguments (``sparse._vector``, ``sparse._matrix``),
checked at every public site.

Each vector site takes one vector argument of a known length, all its other arguments valid. A
column, a matrix, a wrong length and a NaN each raise ValueError whose message starts with
the argument's name; a scalar reads as a vector of length 1.

Each matrix site takes one matrix argument, all its other arguments valid. A NaN entry, a
wrong shape and, where the rule asks for symmetry, an asymmetric matrix each raise ValueError
whose message starts with the argument's name; the valid matrix is accepted.
"""

import re

import numpy as np
import pytest

from conzopt import (
    ConZono,
    IntervalBox,
    LinearSystem,
    MheSpec,
    MpcSpec,
    QpProblem,
    admm_solve,
    affine_map,
    build_mhe,
    contains_point,
    extract_trajectory,
    generalized_intersection,
    interval_to_zono,
    ldlt_factorize,
    point_set,
    reach_graph,
    reach_sparse,
    reach_standard,
    rotation_matrix,
    safety_verify,
    stack_trajectory,
    support,
    support_batch,
    svse_step_sparse,
    svse_step_standard,
    unroll,
    zonotope_support,
)
from conzopt.admm import infeasibility_check, reduce_support
from conzopt.builders import TrajectoryIndex

BOX = interval_to_zono(IntervalBox([-1.0, -1.0], [1.0, 1.0]))     # dimension 2, 2 generators
SYS = LinearSystem(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.5], [1.0]]),
                   interval_to_zono(IntervalBox([-9.0, -9.0], [9.0, 9.0])),
                   interval_to_zono(IntervalBox([-1.0], [1.0])), C=np.eye(2))
REDUCED = reduce_support(BOX)
INDEX = TrajectoryIndex(x_offsets=(0, 3), u_offsets=(2,), n_x=2, n_u=1, total_dim=5)


def _mpc(**parts):
    return MpcSpec(**{"sys": SYS, "x0": np.zeros(2), "refs": [np.zeros(2)], "Q": np.eye(2), "R": np.eye(1),
                      "Q_N": np.eye(2), "N": 1, "state_sets": [SYS.S], **parts})


def _mhe(**parts):
    return MheSpec(**{"sys": SYS, "W": BOX, "V": BOX, "prior_set": BOX, "prior_estimate": np.zeros(2),
                      "prior_info": np.eye(2), "Q_inv": np.eye(2), "R_inv": np.eye(2), "inputs": [np.zeros(1)],
                      "measurements": [np.zeros(2)], "N": 1, **parts})


# (site, argument name, length, call with the argument v)
SITES = [
    ("ConZono-c", "c", 2, lambda v: ConZono(np.eye(2), v)),
    ("ConZono-b", "b", 1, lambda v: ConZono(np.eye(2), np.zeros(2), np.ones((1, 2)), v)),
    ("ConZono.point", "xi", 2, lambda v: BOX.point(v)),
    ("point_set", "x", None, point_set),
    ("affine_map", "offset", 2, lambda v: affine_map(np.eye(2), BOX, v)),
    ("zonotope_support", "d", 2, lambda v: zonotope_support(BOX, v)),
    ("QpProblem", "q", 2, lambda v: QpProblem(np.eye(2), v, BOX)),
    ("admm_solve", "q_tilde", 2, lambda v: admm_solve(REDUCED, q_tilde=v)),
    ("infeasibility_check-xi", "xi", 2, lambda v: infeasibility_check(REDUCED, v, np.zeros(2))),
    ("infeasibility_check-zeta", "zeta", 2, lambda v: infeasibility_check(REDUCED, np.zeros(2), v)),
    ("contains_point", "x", 2, lambda v: contains_point(BOX, v)),
    ("support", "d", 2, lambda v: support(BOX, v)),
    ("unroll", "t", None, lambda v: unroll(BOX, np.eye(2), np.eye(2), [(BOX, BOX, v)])),
    ("svse_step_standard-u", "u", 1, lambda v: svse_step_standard(BOX, SYS, BOX, BOX, v, np.zeros(2))),
    ("svse_step_standard-y", "measurement", 2,
     lambda v: svse_step_standard(BOX, SYS, BOX, BOX, np.zeros(1), v)),
    ("svse_step_sparse-u", "u", 1, lambda v: svse_step_sparse(BOX, SYS, BOX, BOX, v, np.zeros(2))),
    ("svse_step_sparse-y", "measurement", 2, lambda v: svse_step_sparse(BOX, SYS, BOX, BOX, np.zeros(1), v)),
    ("MpcSpec-x0", "x0", 2, lambda v: _mpc(x0=v)),
    ("MpcSpec-refs", "refs[0]", 2, lambda v: _mpc(refs=[v])),
    ("MheSpec", "prior_estimate", 2, lambda v: _mhe(prior_estimate=v)),
    ("build_mhe-inputs", "inputs[0]", 1, lambda v: build_mhe(_mhe(inputs=[v]))),
    ("build_mhe-measurements", "measurements[0]", 2, lambda v: build_mhe(_mhe(measurements=[v]))),
    ("safety_verify", "x_refs[0]", 2,
     lambda v: safety_verify(SYS, np.zeros((1, 2)), [v], BOX, BOX, BOX, np.eye(2), 1)),
    ("extract_trajectory", "z", 5, lambda v: extract_trajectory(v, INDEX)),
    ("stack_trajectory-xs", "xs[1]", 2, lambda v: stack_trajectory([np.zeros(2), v], [np.zeros(1)], INDEX)),
    ("stack_trajectory-us", "us[0]", 1, lambda v: stack_trajectory([np.zeros(2)] * 2, [v], INDEX)),
]

BAD = {
    "column": lambda n: np.ones((n, 1)),
    "matrix": lambda n: np.ones((n, 2)),
    "wrong-length": lambda n: np.ones(n + 1),
    "nan": lambda n: np.r_[np.ones(n - 1), np.nan],
}

CASES = [pytest.param(name, n, call, bad, id=f"{site}-{bad}") for site, name, n, call in SITES
         for bad in BAD if n is not None or bad != "wrong-length"]
# n is None: point_set takes any length, and unroll checks t's length with its step's sets


@pytest.mark.parametrize("name, n, call, bad", CASES)
def test_vector_argument_rejected_by_name(name, n, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(BAD[bad](n or 2))


def test_scalar_reads_as_length_one():
    line = ConZono(np.eye(1), 3.0)
    assert np.array_equal(line.c, [3.0]) and np.array_equal(point_set(3.0).c, [3.0])
    assert np.array_equal(line.point(0.5), [3.5])
    assert zonotope_support(line, -2.0) == -4.0
    assert np.array_equal(affine_map(np.eye(1), line, 1.0).c, [4.0])
    assert np.array_equal(stack_trajectory([1.0], [], TrajectoryIndex((0,), (), 1, 0, 1)), [1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: ConZono(np.eye(2), np.zeros((2, 1))), "c of shape (2, 1) is not a vector"),
    (lambda: affine_map(np.eye(2), BOX, np.zeros((2, 1))), "offset of shape (2, 1) is not a vector"),
    (lambda: support(BOX, np.ones((2, 1))), "d of shape (2, 1) is not a vector"),
    (lambda: support(BOX, np.ones((2, 3))), "d of shape (2, 3) is not a vector"),
    (lambda: extract_trajectory(np.ones((5, 2)), INDEX), "z of shape (5, 2) is not a vector"),
    (lambda: contains_point(BOX, np.zeros((2, 1))), "x of shape (2, 1) is not a vector"),
    (lambda: stack_trajectory([np.zeros(2)] * 3, [np.zeros(1)], INDEX), "xs holds 3 blocks, not 2"),
    (lambda: stack_trajectory([np.zeros(2)] * 2, [], INDEX), "us holds 0 blocks, not 1"),
], ids=["ConZono", "affine_map", "support-column", "support-matrix", "extract_trajectory",
        "contains_point", "stack_trajectory-states", "stack_trajectory-inputs"])
def test_arguments_once_accepted_or_misreported_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# two inputs and three outputs, so that every square weight can be asymmetric and R_inv's
# order (C's rows) differs from the state dimension
C3 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
SYS3 = LinearSystem(SYS.A, np.eye(2), SYS.S, BOX, C=C3)
BOX3 = interval_to_zono(IntervalBox([-1.0] * 3, [1.0] * 3))
WEIGHT, WEIGHT3 = np.array([[2.0, 1.0], [1.0, 2.0]]), 2.0 * np.eye(3) + 0.5


def _mpc3(**parts):
    return _mpc(**{"sys": SYS3, "R": WEIGHT, **parts})


def _mhe3(**parts):
    return _mhe(**{"sys": SYS3, "V": BOX3, "R_inv": WEIGHT3, "inputs": [np.zeros(2)],
                   "measurements": [np.zeros(3)], **parts})


# (site, argument name, a valid matrix, wrong shapes, whether symmetry is required, call with m)
MATRIX_SITES = [
    ("ConZono-G", "G", np.eye(2), [], False, lambda m: ConZono(m, np.zeros(2))),
    ("ConZono-A", "A", np.ones((1, 2)), [(1, 3)], False, lambda m: ConZono(np.eye(2), np.zeros(2), m, np.zeros(1))),
    ("affine_map", "R", np.eye(2), [(2, 3)], False, lambda m: affine_map(m, BOX)),
    ("generalized_intersection", "R", np.eye(2), [(3, 2), (2, 3)], False,
     lambda m: generalized_intersection(BOX, BOX, m)),
    ("LinearSystem-A", "A", SYS.A.toarray(), [(2, 3)], False, lambda m: LinearSystem(m, np.eye(2), SYS.S, BOX, C=C3)),
    ("LinearSystem-B", "B", np.eye(2), [(3, 2)], False, lambda m: LinearSystem(SYS.A, m, SYS.S, BOX, C=C3)),
    ("LinearSystem-C", "C", C3, [(3, 3)], False, lambda m: LinearSystem(SYS.A, np.eye(2), SYS.S, BOX, C=m)),
    ("unroll-F_x", "F_x", SYS.A.toarray(), [(2, 3)], False,
     lambda m: unroll(BOX, m, np.eye(2), [(BOX, BOX, np.zeros(2))])),
    ("unroll-F_m", "F_m", np.eye(2), [(3, 2)], False, lambda m: unroll(BOX, SYS.A, m, [(BOX, BOX, np.zeros(2))])),
    ("QpProblem", "P", WEIGHT, [(3, 3)], True, lambda m: QpProblem(m, np.zeros(2), BOX)),
    ("MpcSpec-Q", "Q", WEIGHT, [(3, 3)], True, lambda m: _mpc3(Q=m)),
    ("MpcSpec-R", "R", WEIGHT, [(3, 3)], True, lambda m: _mpc3(R=m)),
    ("MpcSpec-Q_N", "Q_N", WEIGHT, [(3, 3)], True, lambda m: _mpc3(Q_N=m)),
    ("MheSpec-prior_info", "prior_info", WEIGHT, [(3, 3)], True, lambda m: _mhe3(prior_info=m)),
    ("MheSpec-Q_inv", "Q_inv", WEIGHT, [(3, 3)], True, lambda m: _mhe3(Q_inv=m)),
    ("MheSpec-R_inv", "R_inv", WEIGHT3, [(2, 2)], True, lambda m: _mhe3(R_inv=m)),
    ("safety_verify-K", "K", 0.1 * np.ones((2, 2)), [(1, 2), (2, 3)], False,
     lambda m: safety_verify(SYS3, m, [np.zeros(2)], BOX, BOX, BOX, np.eye(2), 1)),
    ("safety_verify-R_map", "R_map", np.eye(2), [(3, 2), (2, 3)], False,
     lambda m: safety_verify(SYS3, np.zeros((2, 2)), [np.zeros(2)], BOX, BOX, BOX, m, 1)),
    ("ldlt_factorize", "m", WEIGHT, [(2, 3)], True, ldlt_factorize),
]


def _bad_matrices(good, shapes, symmetric):
    nan = good.copy()
    nan[0, 0] = np.nan
    bad = [("nan", nan)] + [(f"shape-{r}x{c}", np.ones((r, c))) for r, c in shapes]
    if symmetric:
        skew = good.copy()
        skew[0, 1] += 1e-3
        bad.append(("asymmetric", skew))
    return bad


MATRIX_CASES = [pytest.param(name, call, m, id=f"{site}-{bad}")
                for site, name, good, shapes, symmetric, call in MATRIX_SITES
                for bad, m in _bad_matrices(good, shapes, symmetric)]


@pytest.mark.parametrize("name, call, m", MATRIX_CASES)
def test_matrix_argument_rejected_by_name(name, call, m):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(m)


@pytest.mark.parametrize("call, good", [pytest.param(call, good, id=site)
                                        for site, _, good, _, _, call in MATRIX_SITES])
def test_matrix_table_accepts_its_valid_matrices(call, good):
    call(good)


_NAN_A = np.array([[np.nan, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: LinearSystem(SYS.A, SYS.B, SYS.S, SYS.U, C=np.eye(3)), "C of shape (3, 3) does not match (*, 2)"),
    (lambda: safety_verify(SYS, np.zeros((1, 3)), [np.zeros(2)], BOX, BOX, BOX, np.eye(2), 1),
     "K of shape (1, 3) does not match (1, 2)"),
    (lambda: _mhe(prior_info=np.eye(3)), "prior_info of shape (3, 3) does not match (2, 2)"),
    (lambda: build_mhe(_mhe(Q_inv=np.eye(3))), "Q_inv of shape (3, 3) does not match (2, 2)"),
    (lambda: _mpc(Q=np.array([[np.nan, 0.0], [0.0, 1.0]])), "Q has a NaN or infinite entry"),
    (lambda: reach_standard(BOX, LinearSystem(_NAN_A, SYS.B, SYS.S, SYS.U), 1), "A has a NaN or infinite entry"),
    (lambda: generalized_intersection(BOX, BOX3), "cannot intersect sets of dimensions 2 and 3"),
    (lambda: ConZono.from_json_dict({"G": 1}), "set JSON has no key 'n'"),
    (lambda: ConZono.from_json_dict({**BOX.to_json_dict(), "G": 1}), "G is not a list of [row, col, value] triplets"),
    (lambda: ConZono.from_json_dict({**BOX.to_json_dict(), "A": [[0, 0]]}),
     "A is not a list of [row, col, value] triplets"),
    (lambda: rotation_matrix(np.nan), "theta must be finite, got nan"),
    (lambda: support_batch(BOX, np.array([[1.0], [np.nan]])), "directions has a NaN or infinite entry"),
], ids=["LinearSystem-C", "safety_verify-K", "MheSpec-prior_info", "build_mhe-Q_inv", "MpcSpec-nan-Q",
        "reach_standard-nan-A", "generalized_intersection-dims", "from_json_dict-missing-key",
        "from_json_dict-G", "from_json_dict-A-pair", "rotation_matrix-nan", "support_batch-nan"])
def test_matrix_arguments_once_accepted_or_misreported_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: _mhe(prior_set=BOX3), "prior_set has dimension 3, expected 2"),
    (lambda: _mhe(V=BOX3), "V has dimension 3, expected 2"),
    (lambda: _mhe3(V=BOX), "V has dimension 2, expected 3"),
    (lambda: _mhe(W=BOX3), "W has dimension 3, expected 2"),
    (lambda: safety_verify(SYS, np.zeros((1, 2)), [np.zeros(2)], BOX, BOX3, BOX, np.eye(2), 1),
     "X0 has dimension 3, expected 2"),
    (lambda: safety_verify(SYS, np.zeros((1, 2)), [np.zeros(2)], BOX3, BOX, BOX, np.eye(2), 1),
     "W has dimension 3, expected 2"),
    (lambda: LinearSystem(SYS.A, SYS.B, BOX3, SYS.U), "S has dimension 3, expected 2"),
    (lambda: LinearSystem(SYS.A, SYS.B, SYS.S, BOX), "U has dimension 2, expected 1"),
    (lambda: reach_standard(BOX3, SYS, 1), "X0 has dimension 3, expected 2"),
    (lambda: reach_graph(BOX3, SYS, 1), "X0 has dimension 3, expected 2"),
    (lambda: reach_sparse(BOX3, SYS, 1), "X0 has dimension 3, expected 2"),
    (lambda: svse_step_standard(BOX3, SYS, BOX, BOX, np.zeros(1), np.zeros(2)), "Xk has dimension 3, expected 2"),
    (lambda: svse_step_standard(BOX, SYS, BOX3, BOX, np.zeros(1), np.zeros(2)), "W has dimension 3, expected 2"),
    (lambda: svse_step_standard(BOX, SYS, BOX, BOX3, np.zeros(1), np.zeros(3)), "V has dimension 3, expected 2"),
    (lambda: svse_step_standard(BOX, SYS3, BOX, BOX, np.zeros(2), np.zeros(2)), "V has dimension 2, expected 3"),
    (lambda: svse_step_sparse(BOX3, SYS, BOX, BOX, np.zeros(1), np.zeros(2)), "Xk has dimension 3, expected 2"),
    (lambda: svse_step_sparse(BOX, SYS, BOX3, BOX, np.zeros(1), np.zeros(2)), "W has dimension 3, expected 2"),
    (lambda: svse_step_sparse(BOX, SYS, BOX, BOX3, np.zeros(1), np.zeros(3)), "V has dimension 3, expected 2"),
    (lambda: svse_step_sparse(BOX, SYS3, BOX, BOX, np.zeros(2), np.zeros(2)), "V has dimension 2, expected 3"),
], ids=["MheSpec-prior_set", "MheSpec-V", "MheSpec-V-three-outputs", "MheSpec-W", "safety_verify-X0",
        "safety_verify-W", "LinearSystem-S", "LinearSystem-U", "reach_standard-X0", "reach_graph-X0",
        "reach_sparse-X0", "svse_step_standard-Xk", "svse_step_standard-W", "svse_step_standard-V",
        "svse_step_standard-V-three-outputs", "svse_step_sparse-Xk", "svse_step_sparse-W", "svse_step_sparse-V",
        "svse_step_sparse-V-three-outputs"])
def test_set_of_another_dimension_rejected_by_name(call, message):
    # each was accepted, or blamed on another argument: a 3-D prior built a 7-D Z, a 3-D V
    # raised "R of shape (2, 2) does not match (3, 2)", a 3-D X0 one about R_map; the steps
    # read the sets before any vector, so a V that fits its measurement is still named
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
