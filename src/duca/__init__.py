"""Dual-consensus algorithms for distributed optimization with coupled constraints.

A synchronous multi-agent simulator for a family of dual/consensus methods
that minimize a sum of per-agent convex costs subject to globally coupled
inequality and equality constraints, together with an invariant engine that
checks exact per-round algebraic identities and O(1/k) convergence bounds,
plus independent centralized oracles.
"""

from .errors import (
    AssumptionViolatedError,
    CertificateMissingError,
    ConfigError,
    DimMismatchError,
    DisconnectedError,
    DucaError,
    InfeasibleProblemError,
    InsufficientDataError,
    InvalidEdgeError,
    InvalidInitError,
    InvariantBreachError,
    MailboxError,
    MissingTuningError,
    NotConvergedError,
    PatternMismatchError,
    TooLargeError,
)
from .graphs import (
    Graph,
    Mailbox,
    ParamSetting,
    SpectralQuantities,
    Variant,
    build_graph,
    laplacian_from_weights,
    make_setting,
    random_connected_graph,
    spectral_quantities,
)
from .problem import (
    Problem,
    StackedPoint,
    eval_objective,
    generate_example,
    gtilde_rows,
    project_ball,
    slater_check,
    subgradient_f,
)
from .localsolver import (
    LocalSubproblem,
    composite_subgradient,
    dual_value_batch,
    local_objective,
    solve_local_batch,
)
from .oracle import (
    CertificateCore,
    centralized_solve,
    dump_certificate,
    duality_gap_check,
    grid_oracle,
    load_certificate,
)
from .engine import (
    NetworkState,
    cone_split,
    dump_state,
    eps_inner,
    ergodic_point,
    init,
    load_state,
    run,
    step,
)
from .metrics import (
    CSV_COLUMNS,
    Certificate,
    MetricsCollector,
    MetricsRow,
    compute_row,
    constraint_violation_composite,
    csv_to_rows,
    local_ball_violation,
    loglog_slope,
    lyapunov_value,
    make_certificate,
    rows_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DucaError",
    "DisconnectedError",
    "InvalidEdgeError",
    "PatternMismatchError",
    "AssumptionViolatedError",
    "MissingTuningError",
    "DimMismatchError",
    "InvalidInitError",
    "InvariantBreachError",
    "MailboxError",
    "CertificateMissingError",
    "InsufficientDataError",
    "NotConvergedError",
    "TooLargeError",
    "InfeasibleProblemError",
    "ConfigError",
    # graphs
    "Graph",
    "Variant",
    "ParamSetting",
    "Mailbox",
    "SpectralQuantities",
    "build_graph",
    "random_connected_graph",
    "laplacian_from_weights",
    "make_setting",
    "spectral_quantities",
    # problem
    "Problem",
    "StackedPoint",
    "generate_example",
    "eval_objective",
    "gtilde_rows",
    "project_ball",
    "subgradient_f",
    "slater_check",
    # localsolver
    "LocalSubproblem",
    "composite_subgradient",
    "local_objective",
    "solve_local_batch",
    "dual_value_batch",
    # oracle
    "CertificateCore",
    "centralized_solve",
    "grid_oracle",
    "duality_gap_check",
    "dump_certificate",
    "load_certificate",
    # engine
    "NetworkState",
    "eps_inner",
    "init",
    "cone_split",
    "step",
    "run",
    "ergodic_point",
    "dump_state",
    "load_state",
    # metrics
    "CSV_COLUMNS",
    "MetricsRow",
    "Certificate",
    "make_certificate",
    "lyapunov_value",
    "local_ball_violation",
    "constraint_violation_composite",
    "compute_row",
    "MetricsCollector",
    "loglog_slope",
    "rows_to_csv",
    "csv_to_rows",
]
