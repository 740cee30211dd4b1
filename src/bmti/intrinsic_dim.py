"""TwoNN intrinsic-dimension estimation from first/second neighbour ratios."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, ParameterError


@dataclass(frozen=True)
class IntrinsicDim:
    """Result of an intrinsic-dimension estimate.

    d is real-valued (never rounded); n_used counts the ratios kept after
    discarding the largest ones.
    """

    d: float
    n_used: int
    method: str = "twonn"


def estimate_id_twonn(
    dist: np.ndarray, embed_dim: int, discard_fraction: float = 0.1
) -> IntrinsicDim:
    """Estimate the intrinsic dimension from two-neighbour distance ratios.

    dist is the cloud's kNN distance table (knn_query_all), one row per
    point; only its first two columns are read. For each point the ratio
    mu = r2/r1 of second to first neighbour distance follows a Pareto law
    with shape d under locally constant density. The largest
    discard_fraction of the ratios (density-variation tail) are censored
    rather than merely dropped, giving the maximum-likelihood estimate

        d = n_kept / (sum(log mu_kept) + n_censored * log mu_max_kept).

    The censoring term keeps the estimate unbiased; a plain truncated mean
    would inflate d by ~1.34 at the default fraction. The estimate is
    clamped to (0, embed_dim]. Points with a coincident nearest neighbour
    (r1 = 0) are skipped with a warning.
    """
    if not 0.0 <= discard_fraction < 1.0:
        raise ParameterError(
            f"discard_fraction must be in [0, 1), got {discard_fraction}"
        )
    n = dist.shape[0]
    if n < 10:
        raise ParameterError(f"TwoNN needs at least 10 points, got {n}")
    if dist.ndim != 2 or dist.shape[1] < 2:
        raise ParameterError(
            f"TwoNN needs two neighbour distances per point, got shape {dist.shape}"
        )

    r1, r2 = dist[:, 0], dist[:, 1]
    valid = r1 > 0.0
    n_skipped = int(n - valid.sum())
    if n_skipped:
        warnings.warn(
            f"skipping {n_skipped} points with coincident nearest neighbour",
            stacklevel=2,
        )
    if not valid.any():
        raise DataError("all points have a coincident nearest neighbour")

    mu = r2[valid] / r1[valid]
    mu = np.sort(mu)
    n_valid = mu.shape[0]
    n_keep = max(1, n_valid - int(np.floor(discard_fraction * n_valid)))
    logs = np.log(mu[:n_keep])
    log_sum = float(logs.sum() + (n_valid - n_keep) * logs[-1])
    if log_sum <= 0.0:
        # Every kept ratio is exactly 1: degenerate, clamp to the embedding.
        d = float(embed_dim)
    else:
        d = n_keep / log_sum
        d = min(d, float(embed_dim))
    return IntrinsicDim(d=float(d), n_used=n_keep)
