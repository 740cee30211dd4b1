"""Binless log-density estimation on adaptive neighbourhood graphs.

Estimates F = -log(density) at every sample point by integrating local
mean-shift gradient estimates over a directed neighbourhood graph with a
maximum-likelihood least-squares solve, alongside kNN and Gaussian-KDE
baselines, synthetic benchmark generators and an evaluation harness.
"""

from .baselines import (
    BaselineEstimate,
    abramson_k,
    gkde_density,
    gkde_neg_log_density,
    knn_density,
    silverman_bandwidth,
)
from .datasets import (
    DATASET_DEFAULTS,
    EmbeddingSpec,
    Potential,
    generate_dataset,
    glassy_density,
    make_potential,
    mueller_brown,
    sample_mcmc,
    swiss_roll_embed,
)
from .delta_f import (
    DeltaFEdgeSet,
    PullStats,
    build_delta_f_edges,
    calibration_report,
    pull_statistics,
)
from .evaluation import (
    EvaluationReport,
    align_and_mae,
    parity_export,
    run_benchmark,
    write_report_csv,
    write_report_json,
)
from .exceptions import (
    BmtiError,
    CapabilityError,
    ConvergenceError,
    DataError,
    NumericalError,
    ParameterError,
    StateError,
)
from .geometry import (
    PointCloud,
    knn_query_all,
    unit_ball_volume,
)
from .gradients import (
    GradientField,
    compute_gradient_field,
)
from .intrinsic_dim import IntrinsicDim, estimate_id_twonn
from .neighborhoods import (
    NeighborGraph,
    build_neighbor_graph,
    select_adaptive_k,
)
from .pipeline import BmtiConfig, BmtiResult, run_bmti
from .solver import (
    LogDensityEstimate,
    SolverSystem,
    assemble_system,
    estimate_uncertainties,
    knn_anchor,
    solve_bmti,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineEstimate",
    "BmtiConfig",
    "BmtiError",
    "BmtiResult",
    "CapabilityError",
    "ConvergenceError",
    "DATASET_DEFAULTS",
    "DataError",
    "DeltaFEdgeSet",
    "EmbeddingSpec",
    "EvaluationReport",
    "GradientField",
    "IntrinsicDim",
    "LogDensityEstimate",
    "NeighborGraph",
    "NumericalError",
    "ParameterError",
    "PointCloud",
    "Potential",
    "PullStats",
    "SolverSystem",
    "StateError",
    "abramson_k",
    "align_and_mae",
    "assemble_system",
    "build_delta_f_edges",
    "build_neighbor_graph",
    "calibration_report",
    "compute_gradient_field",
    "estimate_id_twonn",
    "estimate_uncertainties",
    "generate_dataset",
    "gkde_density",
    "gkde_neg_log_density",
    "glassy_density",
    "knn_anchor",
    "knn_density",
    "knn_query_all",
    "make_potential",
    "mueller_brown",
    "parity_export",
    "pull_statistics",
    "run_benchmark",
    "run_bmti",
    "sample_mcmc",
    "select_adaptive_k",
    "silverman_bandwidth",
    "solve_bmti",
    "swiss_roll_embed",
    "unit_ball_volume",
    "write_report_csv",
    "write_report_json",
]
