"""Pairwise log-density differences along graph edges, with uncertainties.

Every directed edge (i, j) gets a midpoint-rule estimate of F_j - F_i from the
two endpoint gradients, plus an error bar that accounts for the correlation
between the two endpoint estimates. That correlation comes from the points
the two neighbourhoods share: it is the correlation of the two mean shifts
(gradients.shift_cross_covariance) projected on the edge. It is positive for
nearly coincident neighbourhoods and turns negative when the shared lens is
thin, since a point in the lens pulls each mean toward the other end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.stats import kstest

from . import geometry
from .exceptions import CapabilityError, DataError, ParameterError
from .geometry import PointCloud
from .gradients import GradientField, shift_cross_covariance
from .neighborhoods import NeighborGraph

EPS2_MIN = 1e-12

# Negative quadratic forms beyond this (relative) tolerance indicate a broken
# covariance input rather than roundoff.
_QFORM_RTOL = 1e-8


@dataclass
class DeltaFEdgeSet:
    """Per-edge difference estimates, aligned with the graph's edge arrays.

    src, dst : (E,) edge endpoints (directed, dst in Omega_src).
    delta_f : (E,) midpoint estimates of F_dst - F_src.
    eps2 : (E,) error-bar variances, floored at eps2_min.
    dir_src, dir_dst : (E,) one-endpoint (directional) difference estimates.
    eps_src, eps_dst : (E,) their standard deviations.
    pearson : (E,) model correlation between the errors of the two, the
        correlation of the endpoint mean shifts projected on the edge.
    """

    src: np.ndarray
    dst: np.ndarray
    delta_f: np.ndarray
    eps2: np.ndarray
    dir_src: np.ndarray
    dir_dst: np.ndarray
    eps_src: np.ndarray
    eps_dst: np.ndarray
    pearson: np.ndarray
    n_points: int
    eps2_min: float = EPS2_MIN

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]


@dataclass(frozen=True)
class PullStats:
    """Standardized-residual summary: mean, spread, KS distance to N(0,1)."""

    mean: float
    std: float
    ks_distance: float
    n: int


def estimate_delta_f(
    gradients: GradientField, cloud: PointCloud, i: int, j: int
) -> float:
    """Midpoint estimate of F_j - F_i: average endpoint gradient dotted with
    the displacement x_j - x_i. Antisymmetric in (i, j) by construction."""
    r = cloud.points[j] - cloud.points[i]
    return float(0.5 * (gradients.g[i] + gradients.g[j]) @ r)


def directional_delta_f(
    gradients: GradientField, cloud: PointCloud, i: int, j: int, which: int
) -> tuple[float, float]:
    """One-endpoint estimate of F_j - F_i using only the gradient at `which`.

    Returns (value, std) where value = g_w . (x_j - x_i) and
    std = sqrt((x_j - x_i)^T var[g_w] (x_j - x_i)).
    """
    if which not in (i, j):
        raise ParameterError(f"which = {which} must be one of the endpoints {i}, {j}")
    r = cloud.points[j] - cloud.points[i]
    value = float(gradients.g[which] @ r)
    q = float(r @ gradients.var_g[which] @ r)
    scale = float(np.trace(gradients.var_g[which])) * float(r @ r)
    if q < -_QFORM_RTOL * max(scale, 1.0):
        raise DataError(f"covariance of point {which} is not PSD along the edge")
    return value, float(np.sqrt(max(q, 0.0)))


def _pair_correlation(
    graph: NeighborGraph,
    gradients: GradientField,
    cloud: PointCloud,
    w: int,
    r_a: np.ndarray,
    v: int,
    r_b: np.ndarray,
) -> float:
    """Correlation of the mean shifts at w and v projected on r_a and r_b.

    The same point (w = v) uses its own shift covariance, so a directional
    estimate is fully correlated with itself. Zero when either projected
    variance vanishes; clipped to [-1, 1] against roundoff.
    """
    var_w = gradients.var_g[w] / gradients.scale[w] ** 2
    var_v = gradients.var_g[v] / gradients.scale[v] ** 2
    if w == v:
        cov = float(r_a @ var_w @ r_b)
    else:
        cov = float(r_a @ shift_cross_covariance(graph, cloud, w, v) @ r_b)
    den = float(r_a @ var_w @ r_a) * float(r_b @ var_v @ r_b)
    if den <= 0.0:
        return 0.0
    return float(np.clip(cov / np.sqrt(den), -1.0, 1.0))


def edge_correlation(
    graph: NeighborGraph,
    gradients: GradientField,
    cloud: PointCloud,
    i: int,
    j: int,
) -> float:
    """Model correlation between the two directional estimates of edge (i, j).

    p = r^T cov[m_i, m_j] r / sqrt(r^T var[m_i] r * r^T var[m_j] r), with
    r = x_j - x_i and the mean-shift covariances of the gradients module.
    Neighbourhoods that share no points give 0.
    """
    r = cloud.points[j] - cloud.points[i]
    return _pair_correlation(graph, gradients, cloud, i, r, j, r)


def delta_f_variance(
    eps_i: float,
    eps_j: float,
    pearson: float,
    eps2_min: float = EPS2_MIN,
) -> float:
    """Variance of the midpoint estimate from its two directional halves.

    With directional standard deviations eps_i, eps_j and error correlation
    p (edge_correlation), eps2 = (eps_i^2 + eps_j^2 + 2 p eps_i eps_j) / 4,
    floored at eps2_min.
    """
    if not -1.0 <= pearson <= 1.0:
        raise ParameterError(f"pearson must be in [-1, 1], got {pearson}")
    if eps_i < 0.0 or eps_j < 0.0:
        raise ParameterError("directional standard deviations must be >= 0")
    eps2 = 0.25 * (eps_i * eps_i + eps_j * eps_j + 2.0 * pearson * eps_i * eps_j)
    return max(eps2, eps2_min)


def build_delta_f_edges(
    graph: NeighborGraph,
    gradients: GradientField,
    cloud: PointCloud,
    eps2_min: float = EPS2_MIN,
) -> DeltaFEdgeSet:
    """Difference estimates and error bars for every directed edge at once.

    Vectorized form of the per-edge operations; values agree to roundoff.
    The correlation of an edge reads the shared-point moments stored on the
    graph: with a = (x - x_i) . r over the shared points S, mu = m_hat . r
    and s2 = |r|^2,

        sum_S (a - mu_i)(a - s2 - mu_j)
            = sum a^2 - (s2 + mu_i + mu_j) sum a + |S| mu_i (s2 + mu_j),

    which over (k_i-1)(k_j-1) is r^T cov[m_i, m_j] r. The gradient scales
    turn it into the covariance of the two directional estimates.
    """
    if eps2_min <= 0.0:
        raise ParameterError("eps2_min must be positive")
    src, dst = graph.edge_src, graph.edge_dst
    n_e = src.shape[0]
    pts = cloud.points
    g, var_g, shift = gradients.g, gradients.var_g, gradients.mean_shift
    k = graph.k

    delta_f = np.empty(n_e)
    dir_src = np.empty(n_e)
    dir_dst = np.empty(n_e)
    q_src = np.empty(n_e)
    q_dst = np.empty(n_e)
    r2 = np.empty(n_e)
    mu_src = np.empty(n_e)
    mu_dst = np.empty(n_e)

    dim = cloud.embed_dim
    batch = max(1, geometry._BATCH_ENTRIES // (dim * dim))

    def edge_batch(s: int) -> None:
        e = min(s + batch, n_e)
        i_b, j_b = src[s:e], dst[s:e]
        r = pts[j_b] - pts[i_b]
        ds = np.einsum("ed,ed->e", g[i_b], r)
        dd = np.einsum("ed,ed->e", g[j_b], r)
        dir_src[s:e] = ds
        dir_dst[s:e] = dd
        delta_f[s:e] = 0.5 * (ds + dd)
        q_src[s:e] = np.einsum("ec,ecd,ed->e", r, var_g[i_b], r)
        q_dst[s:e] = np.einsum("ec,ecd,ed->e", r, var_g[j_b], r)
        r2[s:e] = np.einsum("ed,ed->e", r, r)
        mu_src[s:e] = np.einsum("ed,ed->e", shift[i_b], r)
        mu_dst[s:e] = np.einsum("ed,ed->e", shift[j_b], r)

    geometry._run_batches(edge_batch, n_e, batch)

    for q in (q_src, q_dst):
        neg = q < 0.0
        if np.any(neg):
            worst = float(q.min())
            if worst < -_QFORM_RTOL * max(float(np.abs(q).max()), 1.0):
                raise DataError("non-PSD gradient covariance along an edge")
            q[neg] = 0.0
    eps_src = np.sqrt(q_src)
    eps_dst = np.sqrt(q_dst)

    m1 = graph.edge_shared_moments[:, 0]
    m2 = graph.edge_shared_moments[:, 1]
    lens = m2 - (r2 + mu_src + mu_dst) * m1 + graph.edge_shared * mu_src * (r2 + mu_dst)
    scale = gradients.scale
    cov = scale[src] * scale[dst] * lens / ((k[src] - 1) * (k[dst] - 1))
    p = np.zeros(n_e)
    spread = (eps_src > 0.0) & (eps_dst > 0.0)
    p[spread] = np.clip(cov[spread] / (eps_src[spread] * eps_dst[spread]), -1.0, 1.0)
    eps2 = 0.25 * (q_src + q_dst + 2.0 * p * eps_src * eps_dst)
    np.maximum(eps2, eps2_min, out=eps2)

    return DeltaFEdgeSet(
        src=src.copy(),
        dst=dst.copy(),
        delta_f=delta_f,
        eps2=eps2,
        dir_src=dir_src,
        dir_dst=dir_dst,
        eps_src=eps_src,
        eps_dst=eps_dst,
        pearson=p,
        n_points=graph.n_points,
        eps2_min=eps2_min,
    )


def covariance_entry(
    graph: NeighborGraph,
    gradients: GradientField,
    cloud: PointCloud,
    edge_ij: tuple[int, int],
    edge_lm: tuple[int, int],
) -> float:
    """Covariance between the midpoint estimates of two edges.

    Each estimate is the average of its two directional halves, so the
    covariance sums over the four endpoint pairings (w, v), w on edge (i, j)
    and v on edge (l, m):

        C = 1/4 sum_wv p_wv eps_w eps_v,

    with p_wv the correlation of the mean shifts at w and v projected on the
    two edges (1 for the same point along the same edge). The diagonal entry
    (same edge twice) reproduces the unfloored eps2.
    """
    i, j = edge_ij
    l, m = edge_lm
    pts = cloud.points
    r_a = pts[j] - pts[i]
    r_b = pts[m] - pts[l]
    total = 0.0
    for w in (i, j):
        _, ew = directional_delta_f(gradients, cloud, i, j, w)
        for v in (l, m):
            _, ev = directional_delta_f(gradients, cloud, l, m, v)
            p = _pair_correlation(graph, gradients, cloud, w, r_a, v, r_b)
            total += p * ew * ev
    return 0.25 * total


def build_covariance(
    graph: NeighborGraph,
    gradients: GradientField,
    cloud: PointCloud,
    edges: DeltaFEdgeSet,
    max_entries: int = 20_000_000,
) -> sp.csr_matrix:
    """Sparse covariance matrix over all edge pairs with overlapping ends.

    Entry (a, b) follows covariance_entry; pairs whose four endpoint
    neighbourhoods are disjoint are exact zeros and never stored. Intended
    for small problems (the production solver uses the diagonal); raises
    CapabilityError when the candidate pair count exceeds max_entries.
    """
    n = graph.n_points
    n_e = edges.n_edges
    # All pairs of intersecting neighbourhoods (centres included), whether or
    # not they are edges.
    col = np.concatenate([graph.edge_dst, np.arange(n)])
    row = np.concatenate([graph.edge_src, np.arange(n)])
    member = sp.csr_matrix(
        (np.ones(col.shape[0], dtype=np.int64), (row, col)), shape=(n, n)
    )
    touching = sp.coo_matrix((member @ member.T).astype(bool))

    # Edge-to-endpoint incidence, then candidate edge pairs.
    einc = sp.csr_matrix(
        (
            np.ones(2 * n_e, dtype=np.int8),
            (np.concatenate([np.arange(n_e)] * 2), np.concatenate([edges.src, edges.dst])),
        ),
        shape=(n_e, n),
    )
    cand = sp.coo_matrix(
        (einc @ touching.tocsr().astype(np.int8) @ einc.T).astype(bool)
    )
    if cand.nnz > max_entries:
        raise CapabilityError(
            f"{cand.nnz} candidate edge pairs exceed the limit {max_entries}; "
            "use the diagonal precision mode at this size"
        )

    # Mean-shift covariance of every touching point pair; a point with itself
    # uses its own shift covariance.
    var_shift = gradients.var_g / (gradients.scale**2)[:, None, None]
    pair_codes = touching.row.astype(np.int64) * n + touching.col
    order = np.argsort(pair_codes)
    pair_codes = pair_codes[order]
    pair_cov = np.stack(
        [
            var_shift[w]
            if w == v
            else shift_cross_covariance(graph, cloud, int(w), int(v))
            for w, v in zip(touching.row[order], touching.col[order])
        ]
    )

    a_idx, b_idx = cand.row, cand.col
    pts = cloud.points
    r = pts[edges.dst] - pts[edges.src]
    epss = np.stack([edges.eps_src, edges.eps_dst], axis=1)
    ends = np.stack([edges.src, edges.dst], axis=1)
    r_a, r_b = r[a_idx], r[b_idx]
    values = np.zeros(a_idx.shape[0])
    for wa in range(2):
        w_pts = ends[a_idx, wa]
        var_w = np.einsum("ec,ecd,ed->e", r_a, var_shift[w_pts], r_a)
        for vb in range(2):
            v_pts = ends[b_idx, vb]
            var_v = np.einsum("ec,ecd,ed->e", r_b, var_shift[v_pts], r_b)
            codes = w_pts.astype(np.int64) * n + v_pts
            slot = np.minimum(np.searchsorted(pair_codes, codes), pair_codes.size - 1)
            cov = np.einsum("ec,ecd,ed->e", r_a, pair_cov[slot], r_b)
            den = var_w * var_v
            p = np.zeros_like(cov)
            # Pairings whose neighbourhoods do not touch stay uncorrelated.
            ok = (den > 0.0) & (pair_codes[slot] == codes)
            p[ok] = np.clip(cov[ok] / np.sqrt(den[ok]), -1.0, 1.0)
            values += p * epss[a_idx, wa] * epss[b_idx, vb]
    values *= 0.25
    out = sp.csr_matrix((values, (a_idx, b_idx)), shape=(n_e, n_e))
    out.eliminate_zeros()
    return out


def calibration_report(edges: DeltaFEdgeSet, cloud: PointCloud) -> PullStats:
    """Pull statistics of the edge estimates against per-point ground truth.

    The pull of an edge is (delta_f - (F_true_dst - F_true_src)) / sqrt(eps2);
    a calibrated estimator gives mean 0, spread 1 and a small KS distance to
    the standard normal.
    """
    if cloud.truth_F is None:
        raise ParameterError("cloud carries no ground truth")
    if edges.n_edges == 0:
        raise DataError("empty edge set")
    truth = cloud.truth_F[edges.dst] - cloud.truth_F[edges.src]
    z = (edges.delta_f - truth) / np.sqrt(edges.eps2)
    ks = kstest(z, "norm").statistic
    return PullStats(
        mean=float(z.mean()), std=float(z.std(ddof=1)), ks_distance=float(ks), n=z.shape[0]
    )
