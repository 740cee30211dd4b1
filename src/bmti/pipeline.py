"""End-to-end log-density estimation: dimension, graph, gradients, solve.

run_bmti wires the stages together for production use; each stage remains
available separately for inspection and testing. A run queries one kNN table
at a start width of _START_WIDTH columns: TwoNN reads its first two columns,
adaptive k widens to the cap only the rows its test reads past that width,
and the graph reads the grown table. The Laplacian system is assembled once:
solve_bmti solves it at alpha = 1, and solve_regularized blends it with the
kNN anchor below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    build_neighbor_graph,
    select_adaptive_k,
)
from .solver import (
    LogDensityEstimate,
    assemble_system,
    estimate_uncertainties,
    knn_anchor,
    solve_bmti,
    solve_regularized,
)

# Columns of the kNN table queried for every point; adaptive k widens the
# rows it reads further. On sixd n=20000 a row needs a median of 52 columns.
_START_WIDTH = 64


@dataclass
class BmtiConfig:
    """Pipeline knobs; the defaults are the production settings.

    id_value fixes the intrinsic dimension (None estimates it with TwoNN).
    alpha blends the edge likelihood with the pointwise anchor (1 = pure
    edge integration, gauged per component; < 1 adds the anchor and needs
    no gauge). uncertainties adds dense per-point variances (small problems
    only, alpha = 1 only).
    """

    id_value: float | None = None
    k_min: int = K_MIN
    k_max: int = K_MAX
    lr_threshold: float = LR_THRESHOLD
    alpha: float = 1.0
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    uncertainties: bool = False
    eps2_min: float = EPS2_MIN


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
    (unless fixed), adaptive neighbourhood sizes (widening the rows of the
    table they read further), directed graph with overlaps, mean-shift
    gradients with covariances, per-edge difference estimates, and the
    global solve (pure at alpha = 1, anchor-blended otherwise).
    """
    cfg = config if config is not None else BmtiConfig()
    if cfg.id_value is not None:
        d = float(cfg.id_value)
        if not np.isfinite(d) or d <= 0.0:
            raise ParameterError(f"id_value must be positive, got {cfg.id_value}")
    if cfg.uncertainties and cfg.alpha != 1.0:
        raise ParameterError("uncertainties require alpha = 1")

    cap = min(cfg.k_max, cloud.n_points - 1)
    idx, dist = geometry.knn_query_all(cloud, max(1, min(_START_WIDTH, cap - 1)))
    id_est = None
    if cfg.id_value is None:
        id_est = estimate_id_twonn(dist, cloud.embed_dim)
        d = id_est.d

    k, idx, dist = select_adaptive_k(
        cloud, idx, dist, d,
        lr_threshold=cfg.lr_threshold, k_min=cfg.k_min, k_max=cfg.k_max,
    )
    # The graph reads max(k) - 1 columns. Copying them lets the grown table be
    # freed before the overlap kernel, and the rest before the gradients.
    width = int(k.max()) - 1
    idx, dist = idx[:, :width].copy(), dist[:, :width].copy()
    graph = build_neighbor_graph(cloud, k, idx, dist)
    del idx, dist
    gradients = compute_gradient_field(graph, cloud, d)
    edges = build_delta_f_edges(graph, gradients, cloud, eps2_min=cfg.eps2_min)

    if cfg.alpha == 1.0:
        system = assemble_system(edges)
        estimate = solve_bmti(system, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
        if cfg.uncertainties:
            estimate.var_F = estimate_uncertainties(system)
    else:
        f0, h = knn_anchor(graph, cloud, d)
        estimate = solve_regularized(
            edges, f0, h, cfg.alpha, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter
        )

    return BmtiResult(
        estimate=estimate, id_est=id_est, d_used=d,
        graph=graph, gradients=gradients, edges=edges,
    )
