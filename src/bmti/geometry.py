"""Point-cloud container, exact nearest-neighbour queries and ball volumes.

All distances are Euclidean. Queries are exact and go through one k-d tree
at every embedding dimension (a tree slows with the intrinsic dimension, not
the ambient one). Distances of the tree's candidates are recomputed with one
numpy expression, summed one coordinate at a time, and ordered by
(distance, index), so ties are deterministic.

`knn_query_all` builds the one kNN table of a run, for every point or for
a subset of rows: `run_bmti` queries every point at a start width, and
adaptive k queries again, at twice the start width or at the cap, only the
rows its test is about to read past, keeping their new columns in a ragged
store (see `neighborhoods.select_adaptive_k`). A row with ties or duplicate
points is answered by the per-point path, `_query_one`.

The k-d tree query runs on every CPU. The per-batch kernels of the gradient
and edge stages do too, through `_run_batches`: one thread per CPU in the
process's affinity mask, each batch writing its own entries of output
arrays allocated beforehand, so results do not depend on the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gammaln

from .exceptions import DataError, ParameterError

# Extra candidates fetched from the tree so that equal-distance points
# straddling the cut are ordered by index, not by tree internals.
_TIE_PAD = 8

# Relative slack between the tree's distances and the recomputed ones. A row
# whose k-th distance comes this close to its last candidate's may have
# equal-distance points the tree left out, and is widened to a ball.
_TIE_SLACK = 1e-9

# Rows x candidates of one chunk of rows; bounds the workspace of a query,
# which holds a few arrays of that many entries at any embedding dimension
# (the distances are summed one coordinate at a time).
_CHUNK_ENTRIES = 1 << 18

# Array entries one batch of a stage kernel (gradient, edge pair, spread) may
# span; small enough that a batch's temporaries stay in cache.
_BATCH_ENTRIES = 1 << 19

# Threads of the stage kernels: the CPUs this process may run on, read once
# at import (start the process under taskset to limit them).
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without affinity masks
    _WORKERS = os.cpu_count() or 1


@dataclass(frozen=True)
class PointCloud:
    """Immutable set of points with optional per-point ground truth.

    Parameters
    ----------
    points : ndarray, shape (n, D)
        Sample coordinates, float64, finite.
    truth_F : ndarray, shape (n,), optional
        Known negative log-density per point (any additive constant), used
        only for evaluation.
    """

    points: np.ndarray
    truth_F: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ParameterError(f"points must be 2-d, got shape {pts.shape}")
        n, dim = pts.shape
        if n < 2:
            raise DataError(f"need at least 2 points, got {n}")
        if dim < 1:
            raise ParameterError("embedding dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise DataError("points contain NaN or Inf")
        object.__setattr__(self, "points", pts)
        if self.truth_F is not None:
            t = np.asarray(self.truth_F, dtype=np.float64).ravel()
            if t.shape[0] != n:
                raise ParameterError(
                    f"truth_F has {t.shape[0]} entries for {n} points"
                )
            if not np.all(np.isfinite(t)):
                raise DataError("truth_F contains NaN or Inf")
            object.__setattr__(self, "truth_F", t)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.points)

    @cached_property
    def _columns(self) -> np.ndarray:
        """Coordinates as a (D, n) C-ordered array: the distance kernel
        gathers one coordinate of many points at a time."""
        return np.ascontiguousarray(self.points.T)


def unit_ball_volume(d: float) -> float:
    """Volume of the unit ball in d dimensions, (2/d) pi^(d/2) / Gamma(d/2).

    Accepts non-integer d (intrinsic dimensions are real-valued).
    """
    d = float(d)
    if not np.isfinite(d) or d <= 0:
        raise ParameterError(f"dimension must be positive and finite, got {d}")
    return float(np.exp(np.log(2.0 / d) + 0.5 * d * np.log(np.pi) - gammaln(0.5 * d)))


def _squared_distances(
    cloud: PointCloud, centres: int | np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Squared distances from the points centres to the points cand.

    centres broadcasts against cand: one index for a 1-d cand, a column of
    indices for one row of candidates each. Summed one coordinate at a time,
    in coordinate order, so a distance has the same bits whichever shape of
    query it is part of.
    """
    sq = np.zeros(cand.shape)
    diff = np.empty(cand.shape)
    for col in cloud._columns:
        # mode="wrap" writes straight into diff (the default buffers); cand
        # holds valid indices.
        np.take(col, cand, out=diff, mode="wrap")
        diff -= col[centres]
        diff *= diff
        sq += diff
    return sq


def _canonical_order(diffs_sq: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort candidates by (distance, index); distances via one canonical path."""
    dist = np.sqrt(diffs_sq)
    order = np.lexsort((cand, dist))
    return cand[order], dist[order]


def _canonical_candidates(
    cloud: PointCloud, i: int, cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates of point i other than itself, in (distance, index) order."""
    cand = cand[cand != i]
    return _canonical_order(_squared_distances(cloud, i, cand), cand)


def _query_one(cloud: PointCloud, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i of knn_query_all(cloud, k), found for point i alone."""
    pts = cloud.points
    n = cloud.n_points
    tree = cloud._tree
    m = min(k + 1 + _TIE_PAD, n)
    _, idx = tree.query(pts[i], k=m)
    cand, dist = _canonical_candidates(cloud, i, np.atleast_1d(idx))
    if m < n and dist[k - 1] * (1.0 + _TIE_SLACK) >= dist[-1]:
        # Equal distances may run past the candidates: take every point
        # the tree finds within the k-th distance.
        ball = tree.query_ball_point(pts[i], dist[k - 1] * (1.0 + _TIE_SLACK))
        cand, dist = _canonical_candidates(
            cloud, i, np.asarray(ball, dtype=np.int64)
        )
    return cand[:k], dist[:k]


def knn_query_all(
    cloud: PointCloud, k: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbours of every point, or of the points in rows.

    Returns (indices, distances), each of shape (len(rows), k) (n rows when
    rows is None), rows sorted nearest first with ties broken by index. Same
    results as the per-point _query_one, so a row does not depend on which
    other rows are queried with it. Rows are processed in chunks that bound
    the workspace. A row whose tree order is already canonical (self first, then
    strictly increasing distance or equal distance with increasing index) is
    copied as is; only rows with ties or duplicate points go through
    _query_one.
    """
    n = cloud.n_points
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must be in [1, {n - 1}], got {k}")
    if rows is None:
        rows = np.arange(n)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or np.any((rows < 0) | (rows >= n)):
            raise ParameterError(f"rows must be a 1-d array of indices in [0, {n})")
    pts = cloud.points
    tree = cloud._tree
    n_rows = rows.shape[0]
    out_idx = np.empty((n_rows, k), dtype=np.int64)
    out_dist = np.empty((n_rows, k), dtype=np.float64)
    m = min(k + 1 + _TIE_PAD, n)
    chunk = _chunk_rows(k, n)
    for lo in range(0, n_rows, chunk):
        hi = min(lo + chunk, n_rows)
        sel = rows[lo:hi]
        cand = tree.query(pts[sel], k=m, workers=-1)[1]
        dist = _squared_distances(cloud, sel[:, None], cand)
        np.sqrt(dist, out=dist)
        c, d = cand[:, 1:], dist[:, 1:]
        # Rows whose tree order is canonical and whose k-th distance is
        # clear of the last candidate's are final; the rest (ties,
        # duplicate points) are queried again one by one.
        final = (cand[:, 0] == sel) & np.all(
            (d[:, 1:] > d[:, :-1])
            | ((d[:, 1:] == d[:, :-1]) & (c[:, 1:] > c[:, :-1])),
            axis=1,
        )
        if m < n:
            final &= d[:, k - 1] * (1.0 + _TIE_SLACK) < d[:, -1]
        out_idx[lo:hi] = c[:, :k]
        out_dist[lo:hi] = d[:, :k]
        for row in np.flatnonzero(~final):
            out_idx[lo + row], out_dist[lo + row] = _query_one(
                cloud, int(sel[row]), k
            )
        # Freed before the next chunk's query, whose workspace they would
        # add to.
        del cand, dist, c, d
    return out_idx, out_dist


def _chunk_rows(k: int, n: int) -> int:
    """Rows of one chunk of a knn_query_all call at k columns on n points:
    _CHUNK_ENTRIES over the candidates the tree fetches per row."""
    return max(1, _CHUNK_ENTRIES // min(k + 1 + _TIE_PAD, n))


def _run_batches(fn, total: int, batch: int) -> None:
    """Call fn(start) for start in range(0, total, batch) on _WORKERS threads.

    Each call must write only its own entries of preallocated outputs and
    read shared inputs without mutating them. Runs inline when there is one CPU or
    one batch. An exception raised by a batch is re-raised here.
    """
    starts = range(0, total, batch)
    workers = min(_WORKERS, len(starts))
    if workers <= 1:
        for start in starts:
            fn(start)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Reading every result re-raises the first failed batch's exception.
        for _ in pool.map(fn, starts):
            pass
