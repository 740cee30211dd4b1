"""Exact nearest-neighbour queries and ball volumes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import traced
from oracles import knn_query

from bmti import geometry
from bmti.exceptions import DataError, ParameterError
from bmti.geometry import (
    PointCloud,
    _canonical_order,
    knn_query_all,
    unit_ball_volume,
)


def brute_neighbors(points: np.ndarray, i: int, k: int):
    """Linear-scan oracle: k nearest of i, ties broken by index."""
    d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
    order = sorted((float(d[j]), j) for j in range(len(points)) if j != i)
    sel = order[:k]
    return np.array([j for _, j in sel]), np.array([dj for dj, _ in sel])


def test_collinear_query():
    cloud = PointCloud(points=np.array([[0.0], [1.0], [3.0]]))
    res = knn_query(cloud, 0, 2)
    assert res.indices.tolist() == [1, 2]
    assert res.distances.tolist() == [1.0, 3.0]


def test_full_query_returns_all_sorted(rng):
    pts = rng.standard_normal((40, 3))
    cloud = PointCloud(points=pts)
    res = knn_query(cloud, 7, 39)
    assert sorted(res.indices.tolist()) == [i for i in range(40) if i != 7]
    assert np.all(np.diff(res.distances) >= 0)


def test_matches_linear_scan_uniform_square():
    rng = np.random.default_rng(11)
    pts = rng.uniform(size=(10_000, 2))
    cloud = PointCloud(points=pts)
    for i in rng.integers(0, 10_000, size=12):
        res = knn_query(cloud, int(i), 32)
        idx, dist = brute_neighbors(pts, int(i), 32)
        assert res.indices.tolist() == idx.tolist()
        np.testing.assert_allclose(res.distances, dist, rtol=0, atol=1e-12)


def test_query_all_matches_per_point(rng):
    pts = rng.standard_normal((300, 4))
    cloud = PointCloud(points=pts)
    idx, dist = knn_query_all(cloud, 9)
    for i in range(300):
        res = knn_query(cloud, i, 9)
        assert idx[i].tolist() == res.indices.tolist()
        np.testing.assert_array_equal(dist[i], res.distances)


# Embedding dimension of the zero-padded twins of the test clouds: high, so
# that the tree is checked where it prunes least. Zero padding keeps every
# distance bit-identical, so a padded table must equal the unpadded one.
_PAD_TO = 18


def _padded(pts: np.ndarray) -> np.ndarray:
    return np.hstack([pts, np.zeros((pts.shape[0], _PAD_TO - pts.shape[1]))])


def test_zero_padded_high_dim_table_matches_low_dim(rng):
    pts = rng.standard_normal((500, 3))
    low = PointCloud(points=pts)
    high = PointCloud(points=_padded(pts))
    assert high.embed_dim == _PAD_TO
    il, dl = knn_query_all(low, 12)
    ih, dh = knn_query_all(high, 12)
    np.testing.assert_array_equal(il, ih)
    np.testing.assert_array_equal(dl, dh)
    for i in rng.integers(0, 500, size=20):
        want_idx, want_dist = brute_neighbors(high.points, int(i), 12)
        assert ih[i].tolist() == want_idx.tolist()
        np.testing.assert_array_equal(dh[i], want_dist)


# 17 copies of -2 among 60 points on a line: the tree's candidates for one of
# them (point 7) are self and 9 of its twins in increasing index, skipping
# the lowest twin (point 1), so the row looks canonical but is not.
_TWINS_PAST_CUT = (
    "0 -2 0 -2 2 2 0 -2 0 1 2 2 -1 2 -1 0 1 -2 -1 -2 -2 1 -2 -2 1 -1 0 0 -2 1 "
    "-2 2 -1 1 -1 1 -2 -1 0 -1 -2 -2 -2 2 2 -2 1 -2 2 0 -2 1 -1 1 -1 2 0 -1 -1 2"
)


def _tie_cases(rng):
    """Clouds whose ties the tree does not order: a 2-d integer lattice
    (ties at every shell, so also at the tree's cut), a Gaussian cloud with
    repeated points (self not always first among its zero-distance twins)
    and a line with more twins than the tree's candidates."""
    grid = np.stack(np.meshgrid(np.arange(13.0), np.arange(11.0)), -1).reshape(-1, 2)
    dup = rng.standard_normal((200, 3))
    dup[100:130] = dup[:30]
    dup[130:140] = dup[0]
    line = np.array(_TWINS_PAST_CUT.split(), dtype=np.float64)[:, None]
    return {"lattice": (grid, 12), "duplicates": (dup, 15), "twins": (line, 1)}


@pytest.mark.parametrize("case", ["lattice", "duplicates", "twins"])
def test_query_all_matches_per_point_with_ties(rng, monkeypatch, case):
    pts, k = _tie_cases(rng)[case]
    n = pts.shape[0]
    reordered = []
    monkeypatch.setattr(
        geometry, "_canonical_order",
        lambda d2, cand: reordered.append(1) or _canonical_order(d2, cand),
    )
    # The same geometry, also zero-padded to a high embedding dimension.
    for cloud in (PointCloud(points=pts), PointCloud(points=_padded(pts))):
        reordered.clear()
        idx, dist = knn_query_all(cloud, k)
        # Some rows leave the tree out of canonical order; they are
        # reordered one by one.
        assert reordered
        for i in range(n):
            res = knn_query(cloud, i, k)
            assert idx[i].tolist() == res.indices.tolist()
            np.testing.assert_array_equal(dist[i], res.distances)
            want_idx, want_dist = brute_neighbors(cloud.points, i, k)
            assert idx[i].tolist() == want_idx.tolist()
            np.testing.assert_array_equal(dist[i], want_dist)


@pytest.mark.parametrize("case", ["lattice", "duplicates", "twins"])
def test_query_of_rows_matches_full_table(rng, case):
    pts, k = _tie_cases(rng)[case]
    n = pts.shape[0]
    # Unsorted, repeated and single rows, of the cloud and of the cloud
    # zero-padded to a high embedding dimension.
    rows = np.concatenate([rng.permutation(n)[: n // 3], [5, 5, n - 1]])
    for cloud in (PointCloud(points=pts), PointCloud(points=_padded(pts))):
        idx, dist = knn_query_all(cloud, k)
        for sel in (rows, rows[-1:]):
            got_idx, got_dist = knn_query_all(cloud, k, sel)
            assert got_idx.shape == got_dist.shape == (sel.size, k)
            np.testing.assert_array_equal(got_idx, idx[sel])
            np.testing.assert_array_equal(got_dist, dist[sel])
    cloud = PointCloud(points=pts)
    for bad in ([0, n], [-1], [[0, 1]]):
        with pytest.raises(ParameterError):
            knn_query_all(cloud, k, np.array(bad))


@pytest.mark.parametrize("case", ["lattice", "duplicates", "twins"])
def test_chunks_do_not_change_a_row(rng, case):
    pts, k = _tie_cases(rng)[case]
    m = min(k + 1 + geometry._TIE_PAD, pts.shape[0])
    for cloud in (PointCloud(points=pts), PointCloud(points=_padded(pts))):
        # One chunk at the default size.
        idx, dist = knn_query_all(cloud, k)
        # One row per chunk, then three rows and a shorter last chunk.
        for entries in (1, 3 * m):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "_CHUNK_ENTRIES", entries)
                got_idx, got_dist = knn_query_all(cloud, k)
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(got_dist, dist)


def test_query_workspace_does_not_grow_with_dimension(monkeypatch):
    # The same cloud in 2-d and zero-padded to 20-d: equal tables, and the
    # workspace a query frees is bounded per entry of its chunks (rows x
    # candidates) at either dimension. 2000 rows span nine chunks.
    pts = np.random.default_rng(7).standard_normal((2000, 2))
    monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", 1 << 14)
    tables = []
    for dim in (2, 20):
        cloud = PointCloud(points=np.hstack([pts, np.zeros((2000, dim - 2))]))
        # The tree and the coordinate columns are the cloud's, built once.
        cloud._tree, cloud._columns
        table, _, transient = traced(lambda: knn_query_all(cloud, 63))
        assert transient <= 34 * geometry._CHUNK_ENTRIES, (dim, transient)
        tables.append(table)
    for low, high in zip(*tables):
        np.testing.assert_array_equal(low, high)


def test_exact_ties_break_by_index():
    # 4 corners equidistant from the centre point.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = knn_query(PointCloud(points=pts), 0, 4)
    assert res.indices.tolist() == [1, 2, 3, 4]
    np.testing.assert_array_equal(res.distances, np.ones(4))


def test_query_guards(rng):
    cloud = PointCloud(points=rng.standard_normal((10, 2)))
    with pytest.raises(ParameterError):
        knn_query(cloud, 0, 0)
    with pytest.raises(ParameterError):
        knn_query(cloud, 0, 10)
    with pytest.raises(ParameterError):
        knn_query(cloud, 11, 3)


def test_unit_ball_volume_known_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_unit_ball_volume_real_dimension():
    # Log-convex interpolation between the integer values.
    v = unit_ball_volume(2.5)
    assert unit_ball_volume(2) < v < unit_ball_volume(3)
    with pytest.raises(ParameterError):
        unit_ball_volume(0.0)
    with pytest.raises(ParameterError):
        unit_ball_volume(float("nan"))


def test_point_cloud_validation():
    with pytest.raises(DataError):
        PointCloud(points=np.zeros((1, 2)))
    with pytest.raises(ParameterError):
        PointCloud(points=np.zeros(5))
    bad = np.zeros((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(DataError):
        PointCloud(points=bad)
    with pytest.raises(ParameterError):
        PointCloud(points=np.zeros((3, 2)), truth_F=np.zeros(2))
    with pytest.raises(DataError):
        PointCloud(points=np.zeros((3, 2)), truth_F=np.array([0.0, np.inf, 0.0]))


def test_point_cloud_casts_to_float64():
    cloud = PointCloud(points=[[0, 0], [1, 1], [2, 0]])
    assert cloud.points.dtype == np.float64
    assert cloud.n_points == 3 and cloud.embed_dim == 2


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was created")


def test_run_batches_covers_every_start_and_reraises(monkeypatch):
    monkeypatch.setattr(geometry, "_WORKERS", 3)
    seen = []
    geometry._run_batches(seen.append, 10, 3)
    assert sorted(seen) == [0, 3, 6, 9]

    class BatchFailed(Exception):
        pass

    def fail_at_six(start):
        if start == 6:
            raise BatchFailed(start)

    with pytest.raises(BatchFailed):
        geometry._run_batches(fail_at_six, 10, 3)


def test_run_batches_inline_with_one_cpu_or_one_batch(monkeypatch):
    monkeypatch.setattr(geometry, "ThreadPoolExecutor", _NoPool)
    seen = []
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    geometry._run_batches(seen.append, 10, 3)
    assert seen == [0, 3, 6, 9]
    monkeypatch.setattr(geometry, "_WORKERS", 4)
    seen.clear()
    geometry._run_batches(seen.append, 10, 10)
    assert seen == [0]
    with pytest.raises(AssertionError, match="thread pool"):
        geometry._run_batches(seen.append, 10, 3)
