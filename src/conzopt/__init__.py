"""Sparse constrained-zonotope toolbox.

Set calculus for zonotopes and constrained zonotopes, reachability
recursions that keep the defining matrices sparse, an operator-splitting
QP solver over those sets with an emptiness certificate (a Farkas test
rounded outward, so it holds in floating point), and builders for
predictive-control, estimation, and safety-verification problems.
"""

from .admm import (
    AdmmResult,
    AdmmSettings,
    EmptySetError,
    IndeterminateResultError,
    QpProblem,
    ReducedQp,
    admm_solve,
    bounding_box,
    check_empty,
    contains_point,
    infeasibility_check,
    is_empty,
    reduce_feasibility,
    reduce_qp,
    reduce_support,
    support,
    support_batch,
)
from .builders import (
    MheSpec,
    MpcSpec,
    StepCertificate,
    TrajectoryIndex,
    build_mhe,
    build_mpc,
    extract_trajectory,
    reduce_prior,
    safety_verify,
    stack_trajectory,
)
from .intervals import IntervalBox
from .reach import (
    ComplexityPrediction,
    LinearSystem,
    ReachDims,
    predict_complexity,
    reach_graph,
    reach_sparse,
    reach_standard,
    svse_step_sparse,
    svse_step_standard,
    unroll,
)
from .sets import (
    ConZono,
    affine_map,
    cartesian_product,
    generalized_intersection,
    intersection,
    interval_to_zono,
    make_regular_polygon,
    minkowski_sum,
    point_set,
    rotation_matrix,
    rotation_uncertainty_zono,
    zonotope_support,
)
from .sparse import (
    LdltFactor,
    RankDeficiencyError,
    SparseMat,
    blkdiag,
    hcat,
    ldlt_factorize,
    ldlt_solve,
    multiply,
    vcat,
)

__version__ = "0.1.0"
