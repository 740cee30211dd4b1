"""Adaptive neighbourhood sizes, the directed graph, overlaps, components."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import adaptive_k, neighbor_graph, table_rows, traced
from oracles import (
    component_labels,
    edge_src,
    jaccard_overlap,
    neighbors,
    overlap_count,
)

from bmti import geometry
from bmti.exceptions import DataError, ParameterError
from bmti.geometry import PointCloud, knn_query_all
from bmti.neighborhoods import build_neighbor_graph, select_adaptive_k


def sorted_neighbors(points: np.ndarray):
    """All-pairs neighbour lists sorted by (distance, index)."""
    n = len(points)
    idx = []
    dist = []
    for i in range(n):
        d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        order = sorted((float(d[j]), j) for j in range(n) if j != i)
        idx.append([j for _, j in order])
        dist.append([dj for dj, _ in order])
    return idx, dist


def adaptive_k_oracle(points, d, lr_threshold, k_min, k_max):
    """Per-point reference loop for the constant-density growth test."""
    n = len(points)
    cap = min(k_max, n - 1)
    idx, dist = sorted_neighbors(points)
    k_out = []
    for i in range(n):
        k_i = k_min
        for k in range(k_min + 1, cap + 1):
            m = k - 2
            j = idx[i][m]
            vi = dist[i][m] ** d
            vj = dist[j][m] ** d
            stat = 2.0 * (k - 1) * np.log((vi + vj) ** 2 / (4.0 * vi * vj))
            if not stat < lr_threshold:
                break
            k_i = k
        k_out.append(k_i)
    return np.array(k_out)


def test_selection_matches_reference_loop():
    rng = np.random.default_rng(21)
    for _ in range(4):
        pts = rng.standard_normal((120, 2)) * np.array([1.0, 0.3])
        cloud = PointCloud(points=pts)
        got = adaptive_k(cloud, 2.0, lr_threshold=10.0, k_min=4, k_max=40)
        want = adaptive_k_oracle(pts, 2.0, 10.0, 4, 40)
        np.testing.assert_array_equal(got, want)


def test_uniform_density_saturates():
    hits = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(points=rng.uniform(size=(10_000, 2)))
        k = adaptive_k(cloud, 2.0, k_max=128)
        hits.append(np.mean(k == 128))
    assert min(hits) > 0.8


def test_small_sample_cap():
    rng = np.random.default_rng(3)
    cloud = PointCloud(points=rng.standard_normal((12, 2)))
    k = adaptive_k(cloud, 2.0, k_max=256)
    assert np.all(k <= 11) and np.all(k >= 4)


def test_tail_neighbourhoods_shrink():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((5000, 2))
    cloud = PointCloud(points=pts)
    k = adaptive_k(cloud, 2.0)
    r = np.linalg.norm(pts, axis=1)
    tail = np.median(k[r > 2.0])
    core = np.median(k[r < 0.5])
    assert tail < core


def test_selection_guards(rng):
    cloud = PointCloud(points=rng.standard_normal((50, 2)))
    table = knn_query_all(cloud, 49)
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, *table, 2.0, k_min=3)
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, *table, 2.0, k_min=8, k_max=7)
    # The config's integer rule: floats are refused, integral or not.
    for sizes in ({"k_max": 20.0}, {"k_min": 5.0}, {"k_min": 4.5}):
        with pytest.raises(ParameterError):
            select_adaptive_k(cloud, *table, 2.0, **sizes)
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, *table, -1.0)
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, *table, 2.0, lr_threshold=0.0)
    # NaN fails every `stat < threshold` and would stop all points at k_min.
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, *table, 2.0, lr_threshold=float("nan"))
    # A table that does not cover the cloud, or whose halves disagree.
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, table[0][:40], table[1][:40], 2.0)
    with pytest.raises(ParameterError):
        select_adaptive_k(cloud, table[0], table[1][:, :10], 2.0)
    # A narrow table is a start that is widened where the test reads past it.
    narrow = knn_query_all(cloud, 10)
    k, edge_dst, radii = select_adaptive_k(cloud, *narrow, 2.0, k_max=13)
    k_full, dst_full, radii_full = select_adaptive_k(cloud, *table, 2.0, k_max=13)
    np.testing.assert_array_equal(k, k_full)
    assert np.array_equal(edge_dst, dst_full) and np.array_equal(radii, radii_full)
    assert edge_dst.shape == (int((k - 1).sum()),) and radii.shape == (50,)
    assert np.any(k == 13)
    rows = np.split(edge_dst, np.cumsum(k - 1)[:-1])
    for i in range(50):
        assert np.array_equal(rows[i], table[0][i, : k[i] - 1])
        assert radii[i] == table[1][i, k[i] - 2]
    tiny = PointCloud(points=rng.standard_normal((4, 2)))
    with pytest.raises(DataError):
        select_adaptive_k(tiny, *knn_query_all(tiny, 3), 2.0)


def test_ragged_table_matches_full_width_table(monkeypatch):
    # Start widths below k_min - 1 and ones whose double is below the cap, so
    # that rows are widened twice; the full-width start makes no query.
    cloud = PointCloud(points=np.random.default_rng(22).standard_normal((300, 2)))
    full = knn_query_all(cloud, 99)
    want = select_adaptive_k(cloud, *full, 2.0, lr_threshold=4.0, k_max=100)
    query = geometry.knn_query_all
    widened_twice = 0
    for start in (2, 5, 8, 16, 30, 60, 99):
        calls = []

        def counted(c, k, rows=None):
            calls.append((k, np.arange(c.n_points) if rows is None else rows))
            return query(c, k, rows)

        table = full[0][:, :start].copy(), full[1][:, :start].copy()
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "knn_query_all", counted)
            got = select_adaptive_k(cloud, *table, 2.0, lr_threshold=4.0, k_max=100)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        if start == 99:
            assert calls == []
            continue
        if start == 2:
            # Too narrow for the first test: one query of every row at the cap.
            assert len(calls) == 1 and calls[0][0] == 99 and calls[0][1].size == 300
            continue
        # At most twice past the start table, and fewer entries than the
        # dense (n, cap - 1) table.
        assert calls and all(k in (2 * start, 99) for k, _ in calls)
        per_row = np.bincount(np.concatenate([r for _, r in calls]), minlength=300)
        assert per_row.max() <= 2
        assert sum(k * len(r) for k, r in calls) < 300 * 99
        widened_twice += int((per_row == 2).sum())
    # Doubled rows read past their width were queried again, at the cap.
    assert widened_twice > 0


def test_adaptive_k_workspace_does_not_grow_with_dimension():
    # The same cloud in 2-d and zero-padded to 20-d: equal outputs, and the
    # workspace adaptive k frees (its ragged store and widening queries) is
    # bounded per edge at either dimension: no index array spans the edges.
    pts = np.random.default_rng(7).standard_normal((2000, 2))
    outputs = []
    for dim in (2, 20):
        cloud = PointCloud(points=np.hstack([pts, np.zeros((2000, dim - 2))]))
        table = knn_query_all(cloud, 63)
        out, _, transient = traced(lambda: select_adaptive_k(cloud, *table, 2.0))
        assert transient <= 45 * out[1].size, (dim, transient / out[1].size)
        outputs.append(out)
    for low, high in zip(*outputs):
        np.testing.assert_array_equal(low, high)


def test_graph_structure_line_points():
    pts = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.array([3, 4, 3, 3, 3, 3]))
    assert neighbors(graph, 0).tolist() == [1, 2]
    assert neighbors(graph, 1).tolist() == [0, 2, 3]
    assert np.shares_memory(neighbors(graph, 1), graph.edge_dst)
    assert graph.radii[0] == 2.0
    assert graph.radii[1] == 9.0
    assert graph.n_edges == 13  # sum(k - 1)
    assert overlap_count(graph, 0, 1) == 3
    assert overlap_count(graph, 0, 3) == 0
    assert jaccard_overlap(graph, 0, 1) == pytest.approx(3.0 / 4.0)
    assert jaccard_overlap(graph, 0, 0) == 1.0
    assert jaccard_overlap(graph, 0, 3) == 0.0


def test_overlap_table_matches_set_intersection(rng):
    pts = rng.standard_normal((80, 2))
    cloud = PointCloud(points=pts)
    k = adaptive_k(cloud, 2.0, lr_threshold=8.0, k_max=20)
    graph = neighbor_graph(cloud, k)
    sets = [set(neighbors(graph, i).tolist()) | {i} for i in range(80)]
    for i in range(0, 80, 7):
        for j in range(0, 80, 11):
            want = len(sets[i] & sets[j])
            assert overlap_count(graph, i, j) == want
            expected = want / (graph.k[i] + graph.k[j] - want)
            assert jaccard_overlap(graph, i, j) == pytest.approx(expected)


def test_jaccard_bounds_and_symmetry(rng):
    pts = rng.standard_normal((60, 3))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(60, 8))
    for i in range(0, 60, 5):
        for j in range(0, 60, 5):
            chi = jaccard_overlap(graph, i, j)
            assert 0.0 <= chi <= 1.0
            assert chi == jaccard_overlap(graph, j, i)


def test_radii_match_listed_neighbours(rng):
    pts = rng.standard_normal((70, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(70, 6))
    for i in range(70):
        last = neighbors(graph, i)[-1]
        d = float(np.linalg.norm(pts[last] - pts[i]))
        assert graph.radii[i] == pytest.approx(d, abs=1e-12)
        gaps = np.linalg.norm(pts[neighbors(graph, i)] - pts[i], axis=1)
        assert np.all(np.diff(gaps) >= 0)


def test_components_single_blob(rng):
    cloud = PointCloud(points=rng.standard_normal((100, 2)))
    graph = neighbor_graph(cloud, np.full(100, 6))
    labels = component_labels(100, edge_src(graph), graph.edge_dst)
    assert np.all(labels == 0)


def test_components_two_far_clusters(rng):
    a = rng.standard_normal((50, 2))
    b = rng.standard_normal((50, 2)) + 1000.0
    cloud = PointCloud(points=np.vstack([a, b]))
    graph = neighbor_graph(cloud, np.full(100, 6))
    labels = component_labels(100, edge_src(graph), graph.edge_dst)
    assert len(np.unique(labels)) == 2
    assert len(np.unique(labels[:50])) == 1
    assert len(np.unique(labels[50:])) == 1


def test_graph_guards(rng):
    cloud = PointCloud(points=rng.standard_normal((20, 2)))
    table = knn_query_all(cloud, 19)
    rows = table_rows(np.full(20, 5), *table)
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(19, 5), *rows)
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(20, 1), *rows)
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(20, 20), *rows)
    # Rows of 4 neighbours each do not cover sizes of 6, nor radii of 19.
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(20, 6), *rows)
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(20, 5), rows[0], rows[1][:19])
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(20, 5), rows[0] + 20, rows[1])
    # A row that lists its own point.
    own = rows[0].copy()
    own[4] = 1
    with pytest.raises(ParameterError):
        build_neighbor_graph(cloud, np.full(20, 5), own, rows[1])
    dup = np.zeros((6, 2))
    dup[3:] += 1.0
    dup_cloud = PointCloud(points=dup)
    dup_rows = table_rows(np.full(6, 3), *knn_query_all(dup_cloud, 5))
    with pytest.raises(DataError):
        build_neighbor_graph(dup_cloud, np.full(6, 3), *dup_rows)
