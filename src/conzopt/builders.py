"""Assemble control, estimation, and safety-verification problems.

Each builder unrolls a horizon with the high-sparsity reachability
identity through ``reach.unroll``, the one place that applies it,
producing a constrained zonotope over the stacked trajectory together
with the matching quadratic cost blocks. Solutions map back to per-step
states and inputs through a recorded offset index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .admm import AdmmSettings, check_empty, bounding_box
from .intervals import IntervalBox
from .reach import LinearSystem, _fused_domains, _last_block, unroll
from .sets import ConZono, generalized_intersection, interval_to_zono, point_set
from .sets import cartesian_product  # noqa: F401  (perfbench/tests patch it under this name)
from .sparse import SparseMat, _add, _count, _matmul, _matrix, _transpose, _vector, blkdiag, multiply


@dataclass(frozen=True)
class TrajectoryIndex:
    """Offsets of each state and input (or noise) block inside the
    stacked decision vector."""

    x_offsets: tuple
    u_offsets: tuple
    n_x: int
    n_u: int
    total_dim: int

    def x_slice(self, k):
        o = self.x_offsets[k]
        return slice(o, o + self.n_x)

    def u_slice(self, k):
        o = self.u_offsets[k]
        return slice(o, o + self.n_u)


def extract_trajectory(z, idx: TrajectoryIndex):
    """Split a stacked decision vector into per-step states and inputs."""
    z = _vector(z, idx.total_dim, "z")
    xs = [z[idx.x_slice(k)].copy() for k in range(len(idx.x_offsets))]
    us = [z[idx.u_slice(k)].copy() for k in range(len(idx.u_offsets))]
    return xs, us


def stack_trajectory(xs, us, idx: TrajectoryIndex):
    """Inverse of extract_trajectory: one state per x offset, one input per u offset."""
    z = np.zeros(idx.total_dim)
    for name, blocks, offsets, n in (("xs", xs, idx.x_offsets, idx.n_x), ("us", us, idx.u_offsets, idx.n_u)):
        if len(blocks) != len(offsets):
            raise ValueError(f"{name} holds {len(blocks)} blocks, not {len(offsets)}")
        for k, (o, block) in enumerate(zip(offsets, blocks)):
            z[o:o + n] = _vector(block, n, f"{name}[{k}]")
    return z


@cache
def _index(n_x, n_m, N):
    # layout x_0, m_1, x_1, ..., m_N, x_N; one frozen index per layout, shared by every build
    stride = n_x + n_m
    return TrajectoryIndex(tuple(k * stride for k in range(N + 1)),
                           tuple(n_x + k * stride for k in range(N)),
                           n_x, n_m, n_x + N * stride)


@dataclass(frozen=True)
class MpcSpec:
    """Finite-horizon tracking problem with per-step state sets.

    state_sets[k-1] constrains x_k for k = 1..N; refs[k-1] is the state
    reference for the same step. The initial state is pinned exactly.
    """

    sys: LinearSystem
    x0: np.ndarray
    refs: list
    Q: SparseMat
    R: SparseMat
    Q_N: SparseMat
    N: int
    state_sets: list

    def __post_init__(self):
        n_x, n_u = self.sys.n_x, self.sys.n_u
        object.__setattr__(self, "x0", _vector(self.x0, n_x, "x0"))
        object.__setattr__(self, "refs", [_vector(r, n_x, f"refs[{k}]") for k, r in enumerate(self.refs)])
        object.__setattr__(self, "N", _count(self.N, "N"))
        if len(self.state_sets) != self.N or len(self.refs) != self.N:
            raise ValueError(
                f"need {self.N} state sets and references, got "
                f"{len(self.state_sets)} and {len(self.refs)}"
            )
        for name, n in (("Q", n_x), ("R", n_u), ("Q_N", n_x)):
            object.__setattr__(self, name, _matrix(getattr(self, name), name, (n, n), symmetric=True))


def build_mpc(spec: MpcSpec):
    """Unroll the tracking problem into (Z, P, q, index).

    Per step the feasible set is extended by the input set and the
    step's state set, with the dynamics rows pinned against the origin.
    Cost blocks stack Q/R with Q_N at the terminal state.
    """
    sys, N = spec.sys, spec.N
    n_x, n_u = sys.n_x, sys.n_u
    origin = np.zeros(n_x)
    Z = unroll(point_set(spec.x0), sys.A, sys.B, [(sys.U, S_k, origin) for S_k in spec.state_sets])
    P_blocks, q_parts = [spec.Q], [np.zeros(n_x)]
    for k, ref in enumerate(spec.refs, start=1):
        weight = spec.Q_N if k == N else spec.Q
        P_blocks += [spec.R, weight]
        q_parts += [np.zeros(n_u), -weight.matvec(ref)]
    return Z, blkdiag(*P_blocks), np.concatenate(q_parts), _index(n_x, n_u, N)


@dataclass(frozen=True)
class MheSpec:
    """Fixed-window estimation problem over bounded noise.

    inputs[j] and measurements[j] are u and y for the j-th step of the
    window (the measurement taken after applying the input). prior_set
    bounds the state at the window start; the quadratic weights are the
    inverse covariances.
    """

    sys: LinearSystem
    W: ConZono
    V: ConZono
    prior_set: ConZono
    prior_estimate: np.ndarray
    prior_info: SparseMat
    Q_inv: SparseMat
    R_inv: SparseMat
    inputs: list
    measurements: list
    N: int

    def __post_init__(self):
        n_x = self.sys.n_x
        object.__setattr__(self, "prior_estimate", _vector(self.prior_estimate, n_x, "prior_estimate"))
        object.__setattr__(self, "N", _count(self.N, "N"))
        if self.sys.C is None:
            raise ValueError("estimation needs a system with a measurement map")
        if len(self.inputs) != self.N or len(self.measurements) != self.N:
            raise ValueError(
                f"need {self.N} inputs and measurements, got "
                f"{len(self.inputs)} and {len(self.measurements)}"
            )
        if self.W.dim != n_x:
            raise ValueError(f"process noise set has dimension {self.W.dim}, expected {n_x}")
        for name, n in (("prior_info", n_x), ("Q_inv", n_x), ("R_inv", self.sys.C.n_rows)):
            object.__setattr__(self, name, _matrix(getattr(self, name), name, (n, n), symmetric=True))


def build_mhe(spec: MheSpec):
    """Unroll the estimation window into (Z, P, q, index, X_end).

    The decision vector stacks the window-start state, each step's
    process noise, and each subsequent state. X_end is the set of states
    consistent with the window data, read off by a linear map. The G and A
    of the fused domains, C^T R^-1 and C^T R^-1 C are built once per call.
    """
    sys, n_x, C = spec.sys, spec.sys.n_x, spec.sys.C
    ct_rinv = SparseMat(_matmul(_transpose(C._m), spec.R_inv._m))
    ct_rinv_c = multiply(ct_rinv, C)
    steps, q_parts = [], [-spec.prior_info.matvec(spec.prior_estimate)]
    domains = _fused_domains(sys, spec.V, spec.measurements, [f"measurements[{j}]" for j in range(spec.N)])
    for j, (u, (y, D)) in enumerate(zip(spec.inputs, domains)):
        steps.append((spec.W, D, -sys.B.matvec(_vector(u, sys.n_u, f"inputs[{j}]"))))
        q_parts += [np.zeros(n_x), -ct_rinv.matvec(y)]
    Z = unroll(spec.prior_set, sys.A, SparseMat.eye(n_x), steps)
    P = blkdiag(spec.prior_info, *[spec.Q_inv, ct_rinv_c] * spec.N)
    return Z, P, np.concatenate(q_parts), _index(n_x, n_x, spec.N), _last_block(Z, n_x)


def reduce_prior(X: ConZono) -> ConZono:
    """Replace a set by a zonotope over-approximating its bounding box.

    Used periodically to stop the recursive window prior from growing.
    The box comes from support evaluations at tolerance 1e-3 and is padded
    by 0.05 on each side so solver tolerance cannot shrink the enclosure.
    """
    box = bounding_box(X, AdmmSettings(eps_primal=1e-3, eps_dual=1e-3, max_iter=50000))
    return interval_to_zono(IntervalBox(box.lo - 0.05, box.hi + 0.05))


@dataclass(frozen=True)
class StepCertificate:
    """Per-step verification outcome."""

    step: int
    certified: bool
    iterations: int


SAFETY_SETTINGS = AdmmSettings(k_inf=1)   # a certificate check at every iteration


def safety_verify(sys: LinearSystem, K, x_refs, W: ConZono, X0: ConZono, O: ConZono,
                  R_map, N, settings: AdmmSettings = SAFETY_SETTINGS):
    """Certify per-step disjointness of the closed-loop reachable tube
    from an unsafe set.

    The loop is closed with u = -K (x - x_ref), giving the recursion
    matrix A - B K and feedforward K x_ref. Each step's check runs the
    feasibility-mode solver on the intersection of the reachable set
    with the unsafe set through R_map; a certificate proves the step
    safe. An iteration-limited check is reported as not certified.

    N >= 0 steps give N + 1 certificates, for X_0..X_N; x_refs needs at
    least N entries. K, of shape (n_u, n_x), and R_map, of shape
    (O.dim, n_x), are read by the matrix rule.
    """
    N = _count(N, "N")
    if len(x_refs) < N:
        raise ValueError(f"need {N} references, got {len(x_refs)}")
    x_refs = [_vector(x_refs[k], sys.n_x, f"x_refs[{k}]") for k in range(N)]
    K = _matrix(K, "K", (sys.n_u, sys.n_x))
    R_map = _matrix(R_map, "R_map", (O.dim, sys.n_x))
    bk = _matmul(sys.B._m, K._m)
    a_closed, noise_map = SparseMat(_add(sys.A._m, bk._replace(data=-bk.data))), SparseMat.eye(sys.n_x)

    results = []
    X = X0
    for k in range(N + 1):
        clash = generalized_intersection(X, O, R_map)
        outcome = check_empty(clash, settings)
        results.append(
            StepCertificate(step=k, certified=outcome.status == "infeasible",
                            iterations=outcome.iterations)
        )
        if k == N:
            break
        u_ff = K.matvec(x_refs[k])
        pinned = unroll(X, a_closed, noise_map, [(W, sys.S, -sys.B.matvec(u_ff))])
        X = _last_block(pinned, sys.n_x)
    return results
