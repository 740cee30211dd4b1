"""Adaptive neighbourhood selection and the directed neighbourhood graph.

Each point i gets a neighbourhood Omega_i consisting of the point itself plus
its k[i]-1 nearest neighbours; k[i] grows from k_min until a likelihood-ratio
test says the local density stops being constant. The graph is one CSR
edge list, the row starts indptr that k fixes and edge_dst, with no source
array per edge; row i lists Omega_i without i. The edge kernel
(delta_f.build_delta_f_edges) intersects these rows for the points two
neighbourhoods share. select_adaptive_k reads the run's kNN table (geometry.knn_query_all), which may start
narrower than the adaptive-k cap and is ragged past the start: a row is
queried again, its new columns appended to one flat store, only when the
test is about to read past the row's width. A row still growing at the
start width goes to the cap; the row of a newest neighbour that stopped
growing goes to twice the start width, and to the cap only if read past
that. No dense (n, cap - 1) table is made: the graph gets its rows as one
CSR edge list with their radii, written a column at a time (column m by
the rows at least m + 1 long), so that no index array as long as the edge
list is made either. The graph's component labels come with the assembled
system (solver.assemble_system).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .exceptions import DataError, ParameterError, _integer
from .geometry import PointCloud

# Likelihood-ratio stop threshold: chi-squared, 1 dof, p about 1e-6.
LR_THRESHOLD = 23.928
K_MIN = 4
K_MAX = 256


@dataclass
class NeighborGraph:
    """Directed adaptive-neighbourhood graph.

    Attributes
    ----------
    k : ndarray, shape (n,)
        Neighbourhood sizes counting the centre, so k[i]-1 neighbours listed.
    radii : ndarray, shape (n,)
        Distance from i to its outermost listed neighbour.
    indptr, edge_dst : ndarray, shapes (n + 1,) and (E,)
        All directed edges (i -> j for the k[i]-1 nearest neighbours j of
        i) as a CSR edge list: row i, edge_dst[indptr[i]:indptr[i + 1]],
        lists them nearest first, and indptr is [0, cumsum(k - 1)].
    """

    k: np.ndarray
    radii: np.ndarray
    indptr: np.ndarray
    edge_dst: np.ndarray

    @property
    def n_points(self) -> int:
        return self.k.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_dst.shape[0]


def _row_starts(k: np.ndarray) -> np.ndarray:
    """indptr of rows of k - 1 entries each: [0, cumsum(k - 1)]."""
    indptr = np.zeros(k.shape[0] + 1, dtype=np.int64)
    np.cumsum(k - 1, out=indptr[1:])
    return indptr


def _resized(a: np.ndarray, used: int, size: int) -> np.ndarray:
    """An array of size entries that starts with the first used ones of a."""
    out = np.empty(size, dtype=a.dtype)
    out[:used] = a[:used]
    return out


def select_adaptive_k(
    cloud: PointCloud,
    idx: np.ndarray,
    dist: np.ndarray,
    d: float,
    lr_threshold: float = LR_THRESHOLD,
    k_min: int = K_MIN,
    k_max: int = K_MAX,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choose per-point neighbourhood sizes by a constant-density test.

    Growth to size k admits the (k-1)-th nearest neighbour j. Both points'
    neighbour-shell volumes are i.i.d. exponential under constant density, so
    with m = k-1 shells each and ball volumes V ~ r^d the statistic

        D = -2 [log L0 - log L1] = 2 m log((V_i + V_j)^2 / (4 V_i V_j))

    compares a shared density against separate ones. k[i] is the largest size
    <= min(k_max, n-1) reached before D crosses lr_threshold.

    (idx, dist) is the start of the cloud's kNN table (knn_query_all), one
    row per point, of any width. The test reads up to cap - 1 columns, with
    cap = min(k_max, n-1); a start table at least that wide is read as is.
    Past a narrower start, the table is ragged: a row is queried again only
    when the test is about to read past its width, and the columns past the
    start go to one flat, append-only store. A row still growing when the
    test reaches the start width is queried at the cap. The row of a newest
    neighbour j that has stopped growing is queried at twice the start width
    (at most the cap), or at the cap when the test reads it past that or
    reads it again past its doubled width. So no row is queried more than
    three times, the start included.

    Returns (k, edge_dst, radii): the integer array k, with
    k_min <= k[i] <= cap; the graph's rows as one CSR edge list, row i the
    k[i] - 1 nearest neighbours of i, nearest first, starting at
    sum(k[:i] - 1); and radii[i], the distance from i to the last of them.
    """
    n = cloud.n_points
    if not (_integer(k_min) and k_min >= 4):
        raise ParameterError(f"k_min must be an integer >= 4, got {k_min!r}")
    if not (_integer(k_max) and k_max >= k_min):
        raise ParameterError(f"k_max must be an integer >= k_min, got {k_max!r}")
    if not np.isfinite(d) or d <= 0:
        raise ParameterError(f"intrinsic dimension must be positive, got {d}")
    if not lr_threshold > 0:
        raise ParameterError(f"lr_threshold must be positive, got {lr_threshold}")
    cap = min(k_max, n - 1)
    if cap < k_min:
        raise DataError(
            f"n = {n} is too small for k_min = {k_min} with cap n-1 = {n - 1}"
        )
    if idx.ndim != 2 or idx.shape[0] != n or idx.shape[1] == 0 or (
        dist.shape != idx.shape
    ):
        raise ParameterError(
            f"kNN table of shape {idx.shape} / {dist.shape} does not cover "
            f"{n} points"
        )

    cols = cap - 1
    start = min(idx.shape[1], cols)
    if start < k_min - 1:
        # Too narrow for the first test: every row is queried at the cap.
        idx, dist = geometry.knn_query_all(cloud, cols)
        start = cols
    if np.any(dist[:, k_min - 2] == 0.0):
        raise DataError("duplicate points inside the minimum neighbourhood")

    # Columns start .. width[i] - 1 of a widened row i sit in the store from
    # offset[i] on; a row widened twice leaves its first copy unread.
    width = np.full(n, start, dtype=np.int64)
    offset = np.zeros(n, dtype=np.int64)
    store_idx = np.empty(0, dtype=np.int64)
    store_dist = np.empty(0)
    used = 0

    def widen(rows: np.ndarray, w: int) -> None:
        """Query rows at w columns and append their columns past the start,
        half a query chunk of rows (about _CHUNK_ENTRIES // 2w) at a time,
        so that no query's whole output is held next to its copy in the
        store, and a slice's output and workspace stay below the store's
        size."""
        nonlocal store_idx, store_dist, used
        if rows.size == 0:
            return
        size = rows.size * (w - start)
        if used + size > store_idx.size:
            # Grown by a quarter at least, so that appending stays linear in
            # the entries stored, while the old and the new store, both alive
            # for the copy, stay close to the size of the new one.
            grown = max(store_idx.size + store_idx.size // 4, used + size)
            store_idx = _resized(store_idx, used, grown)
            store_dist = _resized(store_dist, used, grown)
        shape = (rows.size, w - start)
        to_idx = store_idx[used : used + size].reshape(shape)
        to_dist = store_dist[used : used + size].reshape(shape)
        step = max(1, geometry._chunk_rows(w, n) // 2)
        for lo in range(0, rows.size, step):
            new_idx, new_dist = geometry.knn_query_all(cloud, w, rows[lo : lo + step])
            to_idx[lo : lo + step] = new_idx[:, start:]
            to_dist[lo : lo + step] = new_dist[:, start:]
            # Freed before the next slice's query.
            del new_idx, new_dist
        offset[rows] = used + np.arange(rows.size) * (w - start)
        width[rows] = w
        used += size

    def column(head: np.ndarray, store: np.ndarray, rows, m: int) -> np.ndarray:
        """Column m of rows at least m + 1 wide, from the start table (head)
        or from the store."""
        if m < start:
            return head[rows, m]
        return store[offset[rows] + (m - start)]

    k_arr = np.full(n, k_min, dtype=np.int64)
    active = np.arange(n)
    for k in range(k_min + 1, cap + 1):
        m = k - 2  # column of the newest member, the (k-1)-th neighbour
        if m == start:
            # Active rows only shrink, so this widens every row still growing.
            widen(active, cols)
        j = column(idx, store_idx, active, m)
        if m >= start:
            short = np.unique(j[width[j] <= m])
            once = (width[short] == start) & (2 * start > m)
            widen(short[once], min(2 * start, cols))
            widen(short[~once], cols)
        # log(V) up to the omega_d constant, which cancels in the statistic;
        # every distance read here is positive (duplicates checked above).
        li = d * np.log(column(dist, store_dist, active, m))
        lj = d * np.log(column(dist, store_dist, j, m))
        # 2 (k-1) log((Vi+Vj)^2/(4 Vi Vj)), computed via log-volumes.
        s = np.logaddexp(li, lj)
        stat = 2.0 * (k - 1) * (2.0 * s - np.log(4.0) - li - lj)
        ok = stat < lr_threshold
        active = active[ok]
        if active.size == 0:
            break
        k_arr[active] = k

    # The rows as one CSR edge list, written a column at a time, so that no
    # index array spans the edges. Rows go longest first: with reach[c] rows
    # at least c long, the first reach[m + 1] have a column m, and it is the
    # last column of those past the first reach[m + 2].
    counts = k_arr - 1
    by_len = np.argsort(-counts, kind="stable")
    starts = _row_starts(k_arr)[by_len]
    reach = np.cumsum(np.bincount(counts, minlength=cap + 1)[::-1])[::-1]
    edge_dst = np.empty(int(counts.sum()), dtype=np.int64)
    radii = np.empty(n)
    for m in range(int(counts.max())):
        rows = by_len[: reach[m + 1]]
        edge_dst[starts[: rows.size] + m] = column(idx, store_idx, rows, m)
        last = by_len[reach[m + 2] : reach[m + 1]]
        radii[last] = column(dist, store_dist, last, m)
    return k_arr, edge_dst, radii


def build_neighbor_graph(
    cloud: PointCloud, k: np.ndarray, edge_dst: np.ndarray, radii: np.ndarray
) -> NeighborGraph:
    """The graph of given neighbour lists.

    edge_dst is the CSR edge list of select_adaptive_k: row i, starting at
    sum(k[:i] - 1), lists the k[i] - 1 nearest neighbours of i, nearest
    first, and not i itself. radii[i] is the distance from i to the last of
    them. The graph holds edge_dst and radii themselves.
    """
    n = cloud.n_points
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (n,):
        raise ParameterError(f"k must have shape ({n},), got {k.shape}")
    if np.any(k < 2) or np.any(k > n - 1):
        raise ParameterError("every k[i] must lie in [2, n-1]")

    indptr = _row_starts(k)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    radii = np.asarray(radii, dtype=np.float64)
    if edge_dst.shape != (int(indptr[-1]),) or radii.shape != (n,):
        raise ParameterError(
            f"edge list of shape {edge_dst.shape} and radii of shape "
            f"{radii.shape} do not cover {n} points with k - 1 neighbours each"
        )
    if edge_dst.min() < 0 or edge_dst.max() >= n:
        raise ParameterError(f"edge_dst must hold point indices in [0, {n})")
    if np.any(radii == 0.0):
        raise DataError("zero neighbourhood radius: duplicate points")
    if np.any(np.repeat(np.arange(n), k - 1) == edge_dst):
        raise ParameterError("a row of edge_dst lists its own point")
    return NeighborGraph(k=k.copy(), radii=radii, indptr=indptr, edge_dst=edge_dst)
