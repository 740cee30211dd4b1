"""Reference density estimators: fixed-k nearest neighbour and Gaussian KDE."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .exceptions import DataError, ParameterError
from .geometry import PointCloud, knn_query_all, unit_ball_volume
from .intrinsic_dim import estimate_id_twonn


@dataclass
class BaselineEstimate:
    F: np.ndarray
    method: str
    params: dict = field(default_factory=dict)


def abramson_k(n: int, embed_dim: int, k_min: int = 4) -> int:
    """Rule-of-thumb neighbour count round(n^(D/(D+4))), clamped to [k_min, n-1]."""
    if n < 2:
        raise ParameterError("need at least 2 points")
    if embed_dim < 1:
        raise ParameterError("embedding dimension must be >= 1")
    k = int(round(n ** (embed_dim / (embed_dim + 4.0))))
    return int(np.clip(k, k_min, n - 1))


def knn_density(
    cloud: PointCloud, d: float, k: int, dist: np.ndarray | None = None
) -> BaselineEstimate:
    """kNN estimate of F = -log(rho): F_i = -log(k / (n omega_d r_k^d)).

    d sets the dimension of the ball volumes (pass the intrinsic dimension
    for manifold data, or the embedding dimension for the naive variant);
    r_k is the distance to the k-th nearest neighbour. dist is the cloud's
    kNN distance table (knn_query_all) with at least k columns, of which
    column k-1 is read; without it the table is queried at k.
    """
    n = cloud.n_points
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must be in [1, {n - 1}], got {k}")
    if not np.isfinite(d) or d <= 0:
        raise ParameterError(f"dimension must be positive, got {d}")
    if dist is None:
        _, dist = knn_query_all(cloud, k)
    elif dist.ndim != 2 or dist.shape[0] != n or dist.shape[1] < k:
        raise ParameterError(
            f"kNN table of shape {dist.shape} does not cover {n} points "
            f"with {k} neighbours each"
        )
    r = dist[:, k - 1]
    if np.any(r == 0.0):
        raise DataError("zero k-th neighbour distance: duplicate points")
    F = np.log(float(n)) + np.log(unit_ball_volume(d)) + d * np.log(r) - np.log(float(k))
    return BaselineEstimate(F=F, method="knn", params={"k": k, "d": float(d)})


def knn_baseline(
    cloud: PointCloud,
    k: int | None = None,
    volume_dim: str = "embed",
    d: float | None = None,
) -> BaselineEstimate:
    """knn_density as `bmti estimate --method knn` and the benchmark run it.

    k defaults to abramson_k. The ball dimension is d when given, else the
    embedding dimension (volume_dim "embed") or the TwoNN intrinsic
    dimension (volume_dim "id"); the latter queries one table at max(k, 2)
    for TwoNN (two columns) and the baseline (k). The dimension used is
    params["d"] of the result.
    """
    k = abramson_k(cloud.n_points, cloud.embed_dim) if k is None else int(k)
    dist = None
    if d is None:
        if volume_dim == "embed":
            d = float(cloud.embed_dim)
        elif volume_dim == "id":
            _, dist = knn_query_all(cloud, max(k, 2))
            d = estimate_id_twonn(dist, cloud.embed_dim).d
        else:
            raise ParameterError(
                f"volume_dim must be 'id' or 'embed', got {volume_dim!r}"
            )
    return knn_density(cloud, d, k, dist)


def silverman_bandwidth(cloud: PointCloud) -> float:
    """Multivariate rule of thumb: mean per-axis std times (4/((D+2)n))^(1/(D+4))."""
    n, dim = cloud.n_points, cloud.embed_dim
    if n < 2:
        raise DataError("bandwidth rule needs at least 2 points")
    sigma = float(cloud.points.std(axis=0, ddof=1).mean())
    if sigma <= 0.0:
        raise DataError("zero spread: cannot derive a bandwidth")
    return sigma * (4.0 / ((dim + 2.0) * n)) ** (1.0 / (dim + 4.0))


def gkde_neg_log_density(
    points: np.ndarray, queries: np.ndarray, bandwidth: float
) -> np.ndarray:
    """F = -log of an isotropic Gaussian KDE at the query locations.

    Works for a single kernel centre; self-terms are whatever the arrays
    imply (queries drawn from points keep them).
    """
    pts = np.asarray(points, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    if pts.ndim != 2 or q.ndim != 2 or pts.shape[1] != q.shape[1]:
        raise ParameterError("points and queries must be 2-d with matching width")
    h = float(bandwidth)
    if not np.isfinite(h) or h <= 0.0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    n, dim = pts.shape
    log_norm = np.log(float(n)) + 0.5 * dim * np.log(2.0 * np.pi * h * h)
    inv = 1.0 / (2.0 * h * h)
    F = np.empty(q.shape[0])
    chunk = max(1, int(2e7) // max(n * dim, 1))
    for lo in range(0, q.shape[0], chunk):
        hi = min(lo + chunk, q.shape[0])
        d2 = ((q[lo:hi, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        F[lo:hi] = log_norm - logsumexp(-inv * d2, axis=1)
    return F


def gkde_density(cloud: PointCloud, bandwidth: float | None = None) -> BaselineEstimate:
    """Isotropic Gaussian KDE estimate of F = -log(rho), self-term included.

    F_i = -log( (1/n) sum_j exp(-|x_i-x_j|^2 / (2 h^2)) / (2 pi h^2)^(D/2) ).
    bandwidth defaults to the Silverman rule.
    """
    h = silverman_bandwidth(cloud) if bandwidth is None else float(bandwidth)
    F = gkde_neg_log_density(cloud.points, cloud.points, h)
    return BaselineEstimate(F=F, method="gkde", params={"bandwidth": h})
