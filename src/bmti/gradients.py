"""Pointwise log-density gradient estimates from neighbourhood mean shifts.

For a point with neighbourhood radius r and intrinsic dimension d, the shift
of the neighbour centroid away from the point estimates the local density
gradient: under a linear density model over the ball, the centroid of a ball
sample obeys E[m] = <x x^T>_ball grad(rho)/rho = r^2/(d+2) grad(log rho), so

    g_hat = -(d+2)/r^2 * m_hat

estimates the gradient of F = -log(rho). Gradients live in the embedding
space; no tangent projection is applied.

Errors: the mean shift has the covariance of the shifts over k-1, and the
gradient that covariance times ((d+2)/r^2)^2. Mean shifts of overlapping
neighbourhoods are correlated through their shared points
(shift_cross_covariance), which the edge error model reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .exceptions import DataError, ParameterError
from .geometry import PointCloud
from .neighborhoods import NeighborGraph


@dataclass
class GradientField:
    """Per-point gradient estimates of F = -log(rho).

    g : (n, D) gradient estimates.
    var_g : (n, D, D) per-point gradient covariance estimates.
    mean_shift : (n, D) neighbour-centroid shifts.
    scale : (n,) factor (d+2)/r^2 with g = -scale * mean_shift; the mean
        shift of point i has covariance var_g[i] / scale[i]^2.
    """

    g: np.ndarray
    var_g: np.ndarray
    mean_shift: np.ndarray
    scale: np.ndarray


def _check_point(graph: NeighborGraph, i: int) -> None:
    if not 0 <= i < graph.n_points:
        raise ParameterError(f"point index {i} out of range")


def sample_mean_shift(graph: NeighborGraph, cloud: PointCloud, i: int) -> np.ndarray:
    """Average displacement from point i to its listed neighbours."""
    _check_point(graph, i)
    nb = graph.neighbors[i]
    return (cloud.points[nb] - cloud.points[i]).mean(axis=0)


def estimate_gradient(
    graph: NeighborGraph, cloud: PointCloud, d: float, i: int
) -> np.ndarray:
    """Gradient of F at point i: -(d+2)/r^2 times the mean shift."""
    _check_point(graph, i)
    r = graph.radii[i]
    if r <= 0.0:
        raise DataError(f"point {i} has zero neighbourhood radius")
    return -(d + 2.0) / (r * r) * sample_mean_shift(graph, cloud, i)


def gradient_autocovariance(
    graph: NeighborGraph, cloud: PointCloud, d: float, i: int
) -> np.ndarray:
    """Covariance estimate of the gradient at point i.

    With m = k_i - 1 neighbour shifts y_j and their mean m_hat,

        var[g_i] = ((d+2)/r^2)^2 * 1/(k_i-2) * [sum y y^T / m - m_hat m_hat^T],

    the bracket being the (biased) sample covariance of the shifts and the
    1/(k_i-2) Bessel-style factor accounting for the estimated mean. Needs
    k_i >= 4. The result is symmetric positive semidefinite.
    """
    _check_point(graph, i)
    k = int(graph.k[i])
    if k < 4:
        raise ParameterError(f"autocovariance needs k >= 4, point {i} has k = {k}")
    r = graph.radii[i]
    if r <= 0.0:
        raise DataError(f"point {i} has zero neighbourhood radius")
    y = cloud.points[graph.neighbors[i]] - cloud.points[i]
    m_hat = y.mean(axis=0)
    yc = y - m_hat
    bracket = yc.T @ yc / (k - 1)
    pref = ((d + 2.0) / (r * r)) ** 2 / (k - 2)
    cov = pref * bracket
    return 0.5 * (cov + cov.T)


def shift_cross_covariance(
    graph: NeighborGraph, cloud: PointCloud, i: int, j: int
) -> np.ndarray:
    """Covariance between the mean shifts at points i and j.

    Points common to Omega_i and Omega_j correlate the two means. Treating
    the sample as a Poisson process and linearizing each mean in its terms,
    every shared point contributes the product of its two centred shifts:
    with S the shared points (the two centres excluded) and m_hat the two
    mean shifts,

        cov[m_i, m_j] = 1/((k_i-1)(k_j-1))
                        * sum_S (x - x_i - m_hat_i)(x - x_j - m_hat_j)^T.

    A point in the lens between i and j pulls m_i toward j and m_j toward
    i, so the projection on the edge turns negative when the lens is thin.
    Returns the zero matrix when the neighbourhoods share no points. For
    i = j this is the shift autocovariance without its Bessel factor.
    """
    _check_point(graph, i)
    _check_point(graph, j)
    dim = cloud.embed_dim
    omega_i = set(graph.neighbors[i].tolist()) | {i}
    omega_j = set(graph.neighbors[j].tolist()) | {j}
    shared = np.array(sorted((omega_i & omega_j) - {i, j}), dtype=np.int64)
    if shared.size == 0:
        return np.zeros((dim, dim))
    yi = cloud.points[shared] - cloud.points[i] - sample_mean_shift(graph, cloud, i)
    yj = cloud.points[shared] - cloud.points[j] - sample_mean_shift(graph, cloud, j)
    return yi.T @ yj / float((graph.k[i] - 1) * (graph.k[j] - 1))


def gradient_cross_covariance(
    graph: NeighborGraph, cloud: PointCloud, d: float, i: int, j: int
) -> np.ndarray:
    """Covariance between the gradient estimates at points i and j.

    The gradients scale the mean shifts by -(d+2)/r^2, so

        cov[g_i, g_j] = (d+2)^2/(r_i^2 r_j^2) * cov[m_i, m_j]

    with the shift covariance of shift_cross_covariance. Returns the zero
    matrix when the neighbourhoods share no points. For i = j this reduces
    to the autocovariance without its Bessel factor.
    """
    ri, rj = graph.radii[i], graph.radii[j]
    if ri <= 0.0 or rj <= 0.0:
        raise DataError("zero neighbourhood radius")
    cov_m = shift_cross_covariance(graph, cloud, i, j)
    return (d + 2.0) ** 2 / (ri * ri * rj * rj) * cov_m


def compute_gradient_field(
    graph: NeighborGraph, cloud: PointCloud, d: float
) -> GradientField:
    """Gradient, covariance and mean shift for every point.

    Same formulas as the per-point operations, summed over the graph's flat
    edge list (edges are grouped by source point); values agree to roundoff.
    """
    if not np.isfinite(d) or d <= 0:
        raise ParameterError(f"intrinsic dimension must be positive, got {d}")
    if np.any(graph.k < 4):
        raise ParameterError("gradient field needs k >= 4 everywhere")
    n = graph.n_points
    dim = cloud.embed_dim
    pts = cloud.points
    radii = graph.radii
    if np.any(radii <= 0.0):
        raise DataError("zero neighbourhood radius in graph")
    m = (graph.k - 1).astype(np.float64)
    starts = np.concatenate([[0], np.cumsum(graph.k - 1)])
    shift = np.empty((n, dim))
    scatter = np.empty((n, dim, dim))
    # Points in batches, so the per-edge outer products stay small.
    chunk = max(1, geometry._BATCH_ENTRIES // (dim * dim * int(graph.k.max())))

    def point_batch(a: int) -> None:
        b = min(a + chunk, n)
        lo, hi = starts[a], starts[b]
        src = graph.edge_src[lo:hi]
        y = pts[graph.edge_dst[lo:hi]] - pts[src]
        heads = starts[a:b] - lo
        shift[a:b] = np.add.reduceat(y, heads, axis=0) / m[a:b, None]
        yc = y - shift[src]
        scatter[a:b] = np.add.reduceat(yc[:, :, None] * yc[:, None, :], heads, axis=0)

    geometry._run_batches(point_batch, n, chunk)
    scale = (d + 2.0) / (radii * radii)
    g = -scale[:, None] * shift
    var_g = (scale * scale / ((m - 1.0) * m))[:, None, None] * scatter
    var_g = 0.5 * (var_g + np.swapaxes(var_g, 1, 2))
    return GradientField(g=g, var_g=var_g, mean_shift=shift, scale=scale)
