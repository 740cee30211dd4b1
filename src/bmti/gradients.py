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
neighbourhoods are correlated through their shared points; the edge error
model (delta_f.build_delta_f_edges) takes that correlation from the points
the graph's rows share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .exceptions import DataError, ParameterError
from .geometry import PointCloud
from .neighborhoods import NeighborGraph

# The smallest normal float: a squared gradient scale below it has lost bits
# or underflowed to 0, which would floor every edge variance.
_NORMAL_MIN = np.finfo(np.float64).tiny


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


def compute_gradient_field(
    graph: NeighborGraph, cloud: PointCloud, d: float
) -> GradientField:
    """Gradient, covariance and mean shift for every point.

    With the k_i - 1 neighbour shifts y of point i, their mean m_hat and
    their scatter S = sum (y - m_hat)(y - m_hat)^T,

        var[g_i] = ((d+2)/r_i^2)^2 S / ((k_i-1)(k_i-2)),

    the sample covariance of the shifts over k_i - 1 with a Bessel-style
    factor for the estimated mean; it needs k_i >= 4. The sums run over the
    rows of the graph's CSR edge list. Radii at which ((d+2)/r^2)^2 is not a
    finite normal float raise DataError: the variances would underflow to 0
    or overflow (at coordinates near 2^300 or 2^-300 in size).
    """
    geometry._check_dimension(d, "intrinsic dimension")
    if np.any(graph.k < 4):
        raise ParameterError("gradient field needs k >= 4 everywhere")
    n = graph.n_points
    dim = cloud.embed_dim
    pts = cloud.points
    radii = graph.radii
    if np.any(radii <= 0.0):
        raise DataError("zero neighbourhood radius in graph")
    # Out of range, the products go to inf or 0 and raise below.
    with np.errstate(over="ignore", divide="ignore"):
        scale = (d + 2.0) / (radii * radii)
        scale2 = scale * scale
    if not (_NORMAL_MIN <= scale2.min() and scale2.max() < np.inf):
        raise DataError(
            f"neighbourhood radii from {radii.min():.3g} to {radii.max():.3g} put "
            "((d+2)/r^2)^2 outside the normal floats; rescale the coordinates"
        )
    m = (graph.k - 1).astype(np.float64)
    starts = graph.indptr
    shift = np.empty((n, dim))
    scatter = np.empty((n, dim, dim))
    # Points in batches, so the per-edge outer products stay small.
    chunk = max(1, geometry._BATCH_ENTRIES // (dim * dim * int(graph.k.max())))

    def point_batch(a: int) -> None:
        b = min(a + chunk, n)
        lo, hi = starts[a], starts[b]
        src = np.repeat(np.arange(a, b), np.diff(starts[a : b + 1]))
        y = pts[graph.edge_dst[lo:hi]] - pts[src]
        heads = starts[a:b] - lo
        shift[a:b] = np.add.reduceat(y, heads, axis=0) / m[a:b, None]
        yc = y - shift[src]
        scatter[a:b] = np.add.reduceat(yc[:, :, None] * yc[:, None, :], heads, axis=0)

    geometry._run_batches(point_batch, n, chunk)
    g = -scale[:, None] * shift
    var_g = (scale2 / ((m - 1.0) * m))[:, None, None] * scatter
    return GradientField(g=g, var_g=var_g, mean_shift=shift, scale=scale)
