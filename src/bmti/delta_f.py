"""Pairwise log-density differences along graph edges, with uncertainties.

Every directed edge (i, j) gets a midpoint-rule estimate of F_j - F_i from the
two endpoint gradients, plus an error bar that accounts for the correlation
between the two endpoint estimates. That correlation comes from the points
the two neighbourhoods share: it is the correlation of the two mean shifts
projected on the edge, from the moments of the shared points (the
intersection of the graph's rows i and j). It is positive for nearly
coincident neighbourhoods and turns negative when the shared lens is thin,
since a point in the lens pulls each mean toward the other end. One kernel
intersects the rows and evaluates the error model once per unordered pair
of points; the edge in the other direction takes the same error model and
the opposite difference. The pairs go in edge order, so that the sources of
a batch are a run of points: row i is marked in a bitmap that each worker
thread reuses, and every point of row j is looked up in it. Besides the
graph's own CSR edge list, only the difference, its variance and the
correlation span every edge; the edge sources and the two directional
spreads are computed again when read (DeltaFEdgeSet.src, eps_src,
eps_dst). pull_statistics summarizes standardized residuals against a
truth; calibration_report applies it to the edges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import geometry
from .exceptions import DataError, ParameterError
from .geometry import PointCloud
from .gradients import GradientField
from .neighborhoods import NeighborGraph

# Floor of the edge variances.
EPS2_MIN = 1e-12

# Negative quadratic forms beyond this (relative) tolerance indicate a broken
# covariance input rather than roundoff.
_QFORM_RTOL = 1e-8


@dataclass
class DeltaFEdgeSet:
    """Per-edge difference estimates on the rows of a CSR edge list.

    indptr, dst : (n + 1,) and (E,) the graph's CSR edge list itself: the
        edges from src = i end at dst[indptr[i]:indptr[i + 1]], in Omega_i.
    src : (E,) edge sources, made from indptr on every read, not kept.
    delta_f : (E,) midpoint estimates of F_dst - F_src.
    eps2 : (E,) error-bar variances, floored at EPS2_MIN.
    pearson : (E,) model correlation between the errors of the two
        directional estimates, the correlation of the endpoint mean shifts
        projected on the edge.
    var_g : (n, D, D) gradient covariances the edges were built from, the
        gradient field's own array.
    points : (n, D) the cloud's own points.
    eps_src, eps_dst : (E,) standard deviations of the two one-endpoint
        (directional) estimates g_src . r and g_dst . r; computed from
        var_g and points on first read, as the kernel computes them
        (roundoff-negative forms clamped to 0), and kept.
    """

    indptr: np.ndarray
    dst: np.ndarray
    delta_f: np.ndarray
    eps2: np.ndarray
    pearson: np.ndarray
    var_g: np.ndarray
    points: np.ndarray

    @property
    def n_points(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_edges(self) -> int:
        return self.dst.shape[0]

    @property
    def src(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_points), np.diff(self.indptr))

    @cached_property
    def eps_src(self) -> np.ndarray:
        src = self.src
        return self._spread(src, src)

    @cached_property
    def eps_dst(self) -> np.ndarray:
        return self._spread(self.src, self.dst)

    def _spread(self, src: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """sqrt(r^T var_g[w] r) per edge, w = ends, in batches of edges."""
        n_e, pts = self.n_edges, self.points
        out = np.empty(n_e)
        # A batch gathers a D x D covariance per edge and holds about ten
        # arrays of one entry per edge, which bound its size where D is small.
        batch = max(1, geometry._BATCH_ENTRIES // max(pts.shape[1] ** 2, 32))

        def spread_batch(s: int) -> None:
            e = min(s + batch, n_e)
            r = pts[self.dst[s:e]] - pts[src[s:e]]
            q = _qform(r, self.var_g, ends[s:e])
            q[q < 0.0] = 0.0
            np.sqrt(q, out=out[s:e])

        geometry._run_batches(spread_batch, n_e, batch)
        return out


@dataclass(frozen=True)
class PullStats:
    """Standardized-residual summary: mean, spread, KS distance to N(0,1)."""

    mean: float
    std: float
    ks_distance: float
    n: int


def _qform(r: np.ndarray, var_g: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """r^T var_g[w] r for each edge vector r and endpoint w in ends.

    Two two-operand contractions, whose results do not depend on how many
    edges one call holds (the three-operand einsum takes another path for a
    single edge).
    """
    return np.einsum("ec,ec->e", np.einsum("ecd,ed->ec", var_g[ends], r), r)


def _shared_points(
    member: sp.csr_matrix,
    i_b: np.ndarray,
    j_b: np.ndarray,
    window: int,
    bitmap: np.ndarray,
) -> sp.csr_matrix:
    """Rows i_b[p] and j_b[p] of member intersected, row p of a CSR matrix.

    i_b is non-decreasing, so the sources are a run of points, taken window
    points at a time: the rows of a window's sources are marked in bitmap,
    slot (i - i_b[0]) % window of n entries for source i; every candidate of
    the rows j_b of that window's pairs is looked up there with one take;
    and the marks are cleared again, so bitmap (window * n entries, all
    False) is reusable. No order within a row is needed: the hits follow
    the order of row j_b[p], with int8 ones as data.
    """
    n = member.shape[1]
    first, last = int(i_b[0]), int(i_b[-1]) + 1

    def positions(sources, counts, cols):
        """Bitmap positions of the entries cols of rows of the sources, the
        given counts of entries each."""
        at = np.repeat(((sources - first) % window * n).astype(cols.dtype), counts)
        at += cols
        return at

    cand = member[j_b]
    key = positions(i_b, np.diff(cand.indptr), cand.indices)
    own = member.indptr[first : last + 1]
    mark = positions(
        np.arange(first, last), np.diff(own), member.indices[own[0] : own[-1]]
    )
    bounds = np.append(np.arange(first, last, window), last)
    at_key = cand.indptr[np.searchsorted(i_b, bounds)]
    at_mark = member.indptr[bounds] - own[0]
    hit = np.empty(key.shape[0], dtype=bool)
    for w in range(bounds.shape[0] - 1):
        marks = mark[at_mark[w] : at_mark[w + 1]]
        bitmap[marks] = True
        lo, hi = at_key[w], at_key[w + 1]
        # Every key is in range; "clip" spares take a buffered copy.
        np.take(bitmap, key[lo:hi], out=hit[lo:hi], mode="clip")
        bitmap[marks] = False
    del key, mark
    found = np.flatnonzero(hit)
    indices = cand.indices[found]
    return sp.csr_matrix(
        (
            np.ones(indices.shape[0], dtype=np.int8),
            indices,
            np.searchsorted(found, cand.indptr).astype(cand.indices.dtype),
        ),
        shape=(i_b.shape[0], n),
    )


def build_delta_f_edges(
    graph: NeighborGraph, gradients: GradientField, cloud: PointCloud
) -> DeltaFEdgeSet:
    """Difference estimates and error bars for every directed edge at once.

    The estimate of edge (i, j) is the midpoint rule (g_i + g_j) . r / 2 with
    r = x_j - x_i; each directional half g_w . r has the variance
    r^T var[g_w] r, and with p the correlation of the two halves' errors

        eps2 = (eps_i^2 + eps_j^2 + 2 p eps_i eps_j) / 4,

    floored at EPS2_MIN. The correlation comes from the points S that Omega_i
    and Omega_j share besides i and j: the intersection of the graph's rows
    i and j. With a = (x - x_i) . r over S, mu = m_hat . r and s2 = |r|^2,

        sum_S (a - mu_i)(a - s2 - mu_j)
            = sum a^2 - (s2 + mu_i + mu_j) sum a + |S| mu_i (s2 + mu_j),

    which over (k_i-1)(k_j-1) is r^T cov[m_i, m_j] r. The gradient scales
    turn it into the covariance of the two directional estimates.

    One kernel computes all of it once per unordered pair of points, batch
    by batch, so only delta_f, eps2 and pearson span every edge; the
    directional spreads eps_i and eps_j stay in the batch, and the edge set
    computes them again when they are read. A pair is computed for its
    representative edge, the edge from the lower index when both directions
    are edges, else the pair's one edge, each in its own frame; the edge in
    the other direction, r' = -r with the ends swapped, gets -delta_f and
    the same eps2 and pearson. Batches take the representatives in edge
    order, so the sources of a batch are a run of points. S is found by
    marking rows i, a window of max(1, _BATCH_ENTRIES // n) sources at a
    time, in a bitmap of n entries per source that each worker thread
    reuses and clears, and looking up every point of rows j there with one
    take (_shared_points). The rows are the graph's own, in the order they
    list their neighbours, so nothing sorts the edge list; the shared points
    are summed in the order of row j. A graph whose row lists one neighbour
    twice raises ParameterError. Quadratic forms negative by roundoff are
    clamped to 0; a form below -_QFORM_RTOL times the largest |form| (at
    least 1) raises DataError once every batch has run.
    """
    indptr, dst = graph.indptr, graph.edge_dst
    n, n_e = graph.n_points, dst.shape[0]
    pts = cloud.points
    g, var_g, shift = gradients.g, gradients.var_g, gradients.mean_shift
    k, scale = graph.k, gradients.scale
    dim = pts.shape[1]
    # Edge and point indices that live through the batches are int32 where
    # n and E allow.
    itype = np.int32 if max(n, n_e) <= np.iinfo(np.int32).max else np.int64

    # Pair codes lo n + hi with the direction as a last bit, 0 for the edge
    # from lo: unique unless a row lists a neighbour twice, so that sorting
    # them puts the edge from lo of a mutual pair first (its representative)
    # and the edge from hi second (its twin); a one-way pair's one edge is
    # its representative. The representatives are then taken in edge order,
    # so that the sources of a batch are a run of points; a batch finds them
    # in indptr.
    src = np.repeat(np.arange(n), np.diff(indptr))
    codes = 2 * (np.minimum(src, dst) * n + np.maximum(src, dst)) + (src > dst)
    del src
    order = np.argsort(codes)
    codes = codes[order]
    if np.any(codes[1:] == codes[:-1]):
        raise ParameterError("a row of the graph lists one neighbour twice")
    codes >>= 1
    mutual = np.flatnonzero(codes[1:] == codes[:-1])
    del codes
    # Per edge: its twin for a representative of a mutual pair, -1 for one
    # of a one-way pair, -2 for a twin.
    twin = np.full(n_e, -1, dtype=itype)
    twin[order[mutual]] = order[mutual + 1]
    twin[order[mutual + 1]] = -2
    del order, mutual
    rep = np.flatnonzero(twin != -2).astype(itype)
    twin = twin[rep]

    # The graph's rows as an int8 matrix, each in neighbour order: row i is
    # Omega_i without i, so rows i and j intersect in exactly the points
    # shared besides i and j. Its rows are not sorted; the batches, on
    # several threads, only read it.
    member = sp.csr_matrix((np.ones(n_e, dtype=np.int8), dst, indptr), shape=(n, n))

    # Coordinates centred on the cloud mean and their pairwise products:
    # summed over S and projected on r, they give the moments of a.
    centred = pts - pts.mean(axis=0)
    tri_a, tri_b = np.triu_indices(dim)
    # Off-diagonal products stand for two terms of the quadratic form.
    tri_weight = np.where(tri_a == tri_b, 1.0, 2.0)[:, None]
    features = np.concatenate(
        [centred, centred[:, tri_a] * centred[:, tri_b]], axis=1
    )

    delta_f = np.empty(n_e)
    eps2 = np.empty(n_e)
    pearson = np.empty(n_e)

    n_pairs = rep.shape[0]
    # A batch gathers a row of the membership matrix, a row of features and
    # a D x D covariance per pair, and holds about thirty arrays of one
    # entry per pair, which bound its size where k and D are small.
    per_pair = max(int(k.max()), features.shape[1], dim * dim, 32)
    batch = max(1, geometry._BATCH_ENTRIES // per_pair)
    # Per batch, the least quadratic form and the largest |form|.
    qform_range = np.empty((len(range(0, n_pairs, batch)), 2))
    # The sources of a window of this many points have their rows marked in
    # one bitmap of about _BATCH_ENTRIES bytes, a slot of n per source; each
    # worker thread keeps its own and clears what it marked.
    window = max(1, geometry._BATCH_ENTRIES // n)
    bitmaps = threading.local()

    def pair_batch(s: int) -> None:
        e = min(s + batch, n_pairs)
        edge = rep[s:e]
        i_b, j_b = np.searchsorted(indptr, edge, side="right") - 1, dst[edge]
        r = pts[j_b] - pts[i_b]
        ds = np.einsum("ed,ed->e", g[i_b], r)
        dd = np.einsum("ed,ed->e", g[j_b], r)
        diff = 0.5 * (ds + dd)
        q_src = _qform(r, var_g, i_b)
        q_dst = _qform(r, var_g, j_b)
        qform_range[s // batch] = (
            min(q_src.min(), q_dst.min()),
            max(np.abs(q_src).max(), np.abs(q_dst).max()),
        )
        # Roundoff negatives; larger ones raise after the batches.
        q_src[q_src < 0.0] = 0.0
        q_dst[q_dst < 0.0] = 0.0
        e_src = np.sqrt(q_src)
        e_dst = np.sqrt(q_dst)

        if not hasattr(bitmaps, "own"):
            bitmaps.own = np.zeros(window * n, dtype=bool)
        shared = _shared_points(member, i_b, j_b, window, bitmaps.own)
        count = np.diff(shared.indptr)
        sums = shared @ features
        p_r = np.einsum("ed,ed->e", sums[:, :dim], r)
        # One term per product, summed in term order from 0.
        terms = np.empty((tri_a.shape[0], e - s))
        np.multiply(tri_weight, sums[:, dim:].T, out=terms)
        terms *= r[:, tri_a].T
        terms *= r[:, tri_b].T
        q_rr = np.add.reduce(terms, axis=0, initial=0.0)
        del terms
        b_r = np.einsum("ed,ed->e", centred[i_b], r)
        m1 = p_r - count * b_r
        m2 = q_rr - 2.0 * b_r * p_r + count * b_r * b_r

        r2 = np.einsum("ed,ed->e", r, r)
        mu_src = np.einsum("ed,ed->e", shift[i_b], r)
        mu_dst = np.einsum("ed,ed->e", shift[j_b], r)
        lens = m2 - (r2 + mu_src + mu_dst) * m1 + count * mu_src * (r2 + mu_dst)
        cov = scale[i_b] * scale[j_b] * lens / ((k[i_b] - 1) * (k[j_b] - 1))
        p = np.zeros(e - s)
        spread = (e_src > 0.0) & (e_dst > 0.0)
        p[spread] = np.clip(cov[spread] / (e_src[spread] * e_dst[spread]), -1.0, 1.0)
        var = 0.25 * (q_src + q_dst + 2.0 * p * e_src * e_dst)
        np.maximum(var, EPS2_MIN, out=var)

        # Each edge is one pair's representative or twin, so the batches
        # write disjoint entries.
        delta_f[edge], eps2[edge], pearson[edge] = diff, var, p
        mirrored = twin[s:e] >= 0
        back = twin[s:e][mirrored]
        delta_f[back] = -diff[mirrored]
        eps2[back], pearson[back] = var[mirrored], p[mirrored]

    geometry._run_batches(pair_batch, n_pairs, batch)

    worst = qform_range[:, 0].min(initial=0.0)
    if worst < -_QFORM_RTOL * qform_range[:, 1].max(initial=1.0):
        raise DataError("non-PSD gradient covariance along an edge")

    return DeltaFEdgeSet(
        indptr=indptr,
        dst=dst,
        delta_f=delta_f,
        eps2=eps2,
        pearson=pearson,
        var_g=var_g,
        points=pts,
    )


def pull_statistics(values, errors, truth) -> tuple[float, float, float]:
    """Moments and KS distance of the standardized residuals.

    z = (values - truth) / errors; returns (mean, std with ddof 1, KS
    distance to the standard normal), the std of a single residual being 0.
    Calibrated estimates give mean 0, std 1, small KS.
    """
    v, e, t = (np.asarray(a, dtype=np.float64).ravel() for a in (values, errors, truth))
    for name, arr in (("values", v), ("errors", e), ("truth", t)):
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{name} contains NaN or Inf")
    if not (v.shape == e.shape == t.shape):
        raise ParameterError("values, errors and truth must have equal lengths")
    if v.size == 0:
        raise DataError("cannot compute pull statistics of empty arrays")
    if np.any(e <= 0.0):
        raise ParameterError("errors must be strictly positive")
    # scipy.stats takes longer to import than the rest of bmti, and only this
    # diagnostic needs it.
    from scipy.stats import kstest

    z = (v - t) / e
    std = float(z.std(ddof=1)) if z.size > 1 else 0.0
    ks = float(kstest(z, "norm").statistic)
    return float(z.mean()), std, ks


def calibration_report(edges: DeltaFEdgeSet, cloud: PointCloud) -> PullStats:
    """Pull statistics of the edge estimates against per-point ground truth.

    The pull of an edge is (delta_f - (F_true_dst - F_true_src)) / sqrt(eps2);
    a calibrated estimator gives mean 0, spread 1 and a small KS distance to
    the standard normal.
    """
    if cloud.truth_F is None:
        raise ParameterError("cloud carries no ground truth")
    truth = cloud.truth_F[edges.dst] - cloud.truth_F[edges.src]
    mean, std, ks = pull_statistics(edges.delta_f, np.sqrt(edges.eps2), truth)
    return PullStats(mean=mean, std=std, ks_distance=ks, n=edges.n_edges)
