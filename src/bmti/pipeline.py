"""End-to-end log-density estimation: dimension, graph, gradients, solve.

run_bmti wires the stages together for production use; each stage remains
available separately for inspection and testing. A run queries one kNN table
at a start width of _START_WIDTH columns: TwoNN reads its first two columns,
and adaptive k queries again, into a ragged store, only the rows its test
reads past that width (the ones still growing at the cap, the newest
neighbours at twice the start width first). Adaptive k hands the graph its
rows as one CSR edge list, and the start table is freed before the graph
is built. The edge kernel intersects the graph's rows itself, once per
unordered pair of points, by looking up the points of one row in a bitmap
of the other's. The Laplacian system is assembled once and
solved once, by solve_bmti at any alpha; the pointwise anchor is made only
below alpha = 1, where the solve reads it. BmtiConfig checks every field
when it is made, so a bad setting fails before any stage runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import geometry
from .delta_f import EPS2_MIN, DeltaFEdgeSet, build_delta_f_edges
from .exceptions import ParameterError
from .geometry import PointCloud
from .gradients import GradientField, compute_gradient_field
from .intrinsic_dim import IntrinsicDim, estimate_id_twonn
from .neighborhoods import (
    K_MAX,
    K_MIN,
    LR_THRESHOLD,
    NeighborGraph,
    _check_adaptive_k,
    build_neighbor_graph,
    select_adaptive_k,
)
from .solver import (
    LogDensityEstimate,
    _check_solve,
    assemble_system,
    estimate_uncertainties,
    knn_anchor,
    solve_bmti,
)

# Columns of the kNN table queried for every point; adaptive k queries again
# the rows it reads further. On sixd n=20000 a row needs a median of 52
# columns.
_START_WIDTH = 64


@dataclass(frozen=True)
class BmtiConfig:
    """Pipeline knobs; the defaults are the production settings.

    id_value fixes the intrinsic dimension (None estimates it with TwoNN).
    alpha blends the edge likelihood with the pointwise anchor (1 = pure
    edge integration, gauged per component; < 1 adds the anchor and needs
    no gauge). uncertainties adds dense per-point variances (small problems
    only, alpha = 1 only). Every field is checked when the config is made,
    by the rule of the stage that reads it: a value out of range raises
    ParameterError, and a non-number where a number belongs TypeError.
    eps2_min is the constant delta_f.EPS2_MIN, not a field.
    """

    id_value: float | None = None
    k_min: int = K_MIN
    k_max: int = K_MAX
    lr_threshold: float = LR_THRESHOLD
    alpha: float = 1.0
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    uncertainties: bool = False
    eps2_min: ClassVar[float] = EPS2_MIN

    def __post_init__(self):
        if self.id_value is not None:
            geometry._check_dimension(self.id_value, "id_value")
        _check_adaptive_k(self.k_min, self.k_max, self.lr_threshold)
        _check_solve(self.alpha, self.cg_tol, self.cg_max_iter, prefix="cg_")
        if self.uncertainties and self.alpha != 1.0:
            raise ParameterError("uncertainties require alpha = 1")


@dataclass
class BmtiResult:
    """Everything the pipeline produced, from dimension to estimate."""

    estimate: LogDensityEstimate
    id_est: IntrinsicDim | None
    d_used: float
    graph: NeighborGraph
    gradients: GradientField
    edges: DeltaFEdgeSet

    @property
    def F(self) -> np.ndarray:
        return self.estimate.F


def run_bmti(cloud: PointCloud, config: BmtiConfig | None = None) -> BmtiResult:
    """Estimate per-point negative log-density for a cloud.

    Stages: one kNN table at a start width, TwoNN intrinsic dimension
    (unless fixed), adaptive neighbourhood sizes (querying again the rows of
    the table they read further) and the graph's CSR edge list, directed
    graph, mean-shift gradients with covariances, per-edge difference
    estimates with their error model (once per unordered pair), the
    Laplacian assembly, and one global solve (pure at alpha = 1,
    anchor-blended otherwise).
    """
    cfg = config if config is not None else BmtiConfig()
    cap = min(cfg.k_max, cloud.n_points - 1)
    idx, dist = geometry.knn_query_all(cloud, max(1, min(_START_WIDTH, cap - 1)))
    id_est = None
    if cfg.id_value is None:
        id_est = estimate_id_twonn(dist, cloud.embed_dim)
        d = id_est.d
    else:
        d = float(cfg.id_value)

    k, edge_dst, radii = select_adaptive_k(
        cloud, idx, dist, d,
        lr_threshold=cfg.lr_threshold, k_min=cfg.k_min, k_max=cfg.k_max,
    )
    # The start table is freed before the later stages, whose peaks it
    # would add to.
    del idx, dist
    graph = build_neighbor_graph(cloud, k, edge_dst, radii)
    gradients = compute_gradient_field(graph, cloud, d)
    edges = build_delta_f_edges(graph, gradients, cloud)

    system = assemble_system(edges)
    # The pure solve (alpha = 1) does not read the anchor.
    anchor = knn_anchor(graph, cloud, d) if cfg.alpha < 1.0 else None
    estimate = solve_bmti(
        system, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter,
        alpha=cfg.alpha, anchor=anchor,
    )
    if cfg.uncertainties:
        estimate.var_F = estimate_uncertainties(system)

    return BmtiResult(
        estimate=estimate, id_est=id_est, d_used=d,
        graph=graph, gradients=gradients, edges=edges,
    )
