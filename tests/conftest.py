"""Shared fixtures and the acceptance-line reporter."""

from __future__ import annotations

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from bmti import geometry
from bmti.delta_f import DeltaFEdgeSet
from bmti.geometry import PointCloud, knn_query_all
from bmti.intrinsic_dim import estimate_id_twonn
from bmti.neighborhoods import K_MAX, build_neighbor_graph, select_adaptive_k
from bmti.pipeline import _START_WIDTH

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    """Queue one acceptance verdict line for the terminal summary."""
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_cloud(rng, n: int, dim: int, truth: bool = False) -> PointCloud:
    pts = rng.standard_normal((n, dim))
    t = rng.standard_normal(n) if truth else None
    return PointCloud(points=pts, truth_F=t)


# The kNN-reading stages, each fed from a table queried at the width it
# reads; adaptive k, as in run_bmti, from a start table that it widens, and
# the graph from a dense table's rows (table_rows).
# run_bmti queries one table for all three; a test of one stage queries its
# own.


def twonn(cloud: PointCloud, **kwargs):
    _, dist = knn_query_all(cloud, 2)
    return estimate_id_twonn(dist, cloud.embed_dim, **kwargs)


def adaptive_k(cloud: PointCloud, d: float, k_max: int = K_MAX, **kwargs):
    cap = min(k_max, cloud.n_points - 1)
    idx, dist = knn_query_all(cloud, max(1, min(_START_WIDTH, cap - 1)))
    k, _, _ = select_adaptive_k(cloud, idx, dist, d, k_max=k_max, **kwargs)
    return k


def table_rows(k, idx, dist):
    """The graph's input read off a dense kNN table: row i's first k[i] - 1
    neighbours as one CSR edge list, and the distance to the last of them."""
    counts = np.asarray(k) - 1
    width = int(counts.max())
    edge_dst = idx[:, :width][np.arange(width) < counts[:, None]]
    return edge_dst, dist[np.arange(counts.shape[0]), counts - 1]


def neighbor_graph(cloud: PointCloud, k):
    """build_neighbor_graph's graph for sizes k."""
    table = knn_query_all(cloud, int(np.max(k)) - 1)
    return build_neighbor_graph(cloud, k, *table_rows(k, *table))


def edge_set(src, dst, delta_f, eps2, n: int) -> DeltaFEdgeSet:
    """A hand-made edge set for the solver over n points: the edges sorted
    stably into rows (each row keeps its edges' order), zero gradient
    covariances, so no directional spread, and no correlation."""
    src = np.asarray(src, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return DeltaFEdgeSet(
        indptr=indptr,
        dst=np.asarray(dst, dtype=np.int64)[order],
        delta_f=np.asarray(delta_f, dtype=np.float64)[order],
        eps2=np.asarray(eps2, dtype=np.float64)[order],
        pearson=np.zeros(src.shape[0]),
        var_g=np.zeros((n, 1, 1)),
        points=np.zeros((n, 1)),
    )


def count_knn_queries(monkeypatch) -> list:
    """Patch knn_query_all in every loaded bmti module that holds it; the
    returned list records the width k of each call."""
    widths = []
    query = geometry.knn_query_all

    def counted(cloud, k, rows=None):
        widths.append(k)
        return query(cloud, k, rows)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bmti" and "knn_query_all" in vars(module):
            monkeypatch.setattr(module, "knn_query_all", counted)
    return widths


def traced(fn):
    """fn() under tracemalloc: its result, the peak bytes allocated during
    the call, and the part of that peak freed before it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, peak - held
