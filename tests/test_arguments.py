"""The one rule for vector arguments (``sparse._vector``), checked at every public site.

Each site takes one vector argument of a known length, all its other arguments valid. A
column, a matrix, a wrong length and a NaN each raise ValueError whose message starts with
the argument's name; a scalar reads as a vector of length 1.
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
    interval_to_zono,
    point_set,
    safety_verify,
    stack_trajectory,
    support,
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


def _mpc(x0=np.zeros(2), ref=np.zeros(2)):
    return MpcSpec(sys=SYS, x0=x0, refs=[ref], Q=np.eye(2), R=np.eye(1), Q_N=np.eye(2), N=1,
                   state_sets=[SYS.S])


def _mhe(prior_estimate=np.zeros(2), u=np.zeros(1), y=np.zeros(2)):
    return MheSpec(sys=SYS, W=BOX, V=BOX, prior_set=BOX, prior_estimate=prior_estimate,
                   prior_info=np.eye(2), Q_inv=np.eye(2), R_inv=np.eye(2), inputs=[u],
                   measurements=[y], N=1)


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
    ("MpcSpec-refs", "refs[0]", 2, lambda v: _mpc(ref=v)),
    ("MheSpec", "prior_estimate", 2, lambda v: _mhe(prior_estimate=v)),
    ("build_mhe-inputs", "inputs[0]", 1, lambda v: build_mhe(_mhe(u=v))),
    ("build_mhe-measurements", "measurements[0]", 2, lambda v: build_mhe(_mhe(y=v))),
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
