"""Mean-shift gradients and their covariance estimates."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import adaptive_k, neighbor_graph
from oracles import (
    estimate_gradient,
    gradient_autocovariance,
    gradient_cross_covariance,
    neighbors,
    sample_mean_shift,
)

from bmti.exceptions import ParameterError
from bmti.geometry import PointCloud
from bmti.gradients import compute_gradient_field
from bmti.neighborhoods import NeighborGraph


def manual_graph(k, rows, radii):
    """Graph stub for per-point unit cases: the edge list of the given
    neighbour lists."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(nb) for nb in rows], out=indptr[1:])
    return NeighborGraph(
        k=np.asarray(k, dtype=np.int64),
        radii=np.asarray(radii, dtype=np.float64),
        indptr=indptr,
        edge_dst=np.concatenate(rows).astype(np.int64),
    )


@pytest.fixture(scope="module")
def gauss_field():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((10_000, 2))
    cloud = PointCloud(points=pts)
    k = adaptive_k(cloud, 2.0)
    graph = neighbor_graph(cloud, k)
    field = compute_gradient_field(graph, cloud, 2.0)
    return pts, field


def test_mean_shift_symmetric_cancellation():
    pts = np.array(
        [[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]
    )
    graph = manual_graph(
        [5, 2, 2, 2, 2],
        [np.array([1, 2, 3, 4]), [0], [0], [0], [0]],
        [0.5, 0.5, 0.5, 0.5, 0.5],
    )
    np.testing.assert_allclose(
        sample_mean_shift(graph, PointCloud(points=pts), 0), [0.0, 0.0], atol=1e-15
    )


def test_gradient_hand_line_case():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [100.0, 100.0], [101.0, 100.0]])
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(5, 3))
    assert neighbors(graph, 0).tolist() == [1, 2]
    assert graph.radii[0] == 3.0
    np.testing.assert_allclose(sample_mean_shift(graph, cloud, 0), [2.0, 0.0])
    np.testing.assert_allclose(
        estimate_gradient(graph, cloud, 2.0, 0), [-8.0 / 9.0, 0.0], rtol=1e-14
    )


def test_gradient_field_hand_values():
    pts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [10.0, 10.0]]
    )
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(5, 4))
    assert neighbors(graph, 0).tolist() == [3, 1, 2]
    assert graph.radii[0] == 1.0
    field = compute_gradient_field(graph, cloud, 2.0)
    np.testing.assert_allclose(field.mean_shift[0], [0.0, 1.0 / 6.0], rtol=1e-14)
    np.testing.assert_allclose(field.g[0], [0.0, -2.0 / 3.0], rtol=1e-14)
    np.testing.assert_allclose(
        field.var_g[0], [[16.0 / 3.0, 0.0], [0.0, 4.0 / 9.0]], rtol=1e-13, atol=1e-15
    )
    # Field entries and the per-point operations are the same computation.
    for i in range(5):
        np.testing.assert_allclose(
            field.g[i], estimate_gradient(graph, cloud, 2.0, i), rtol=1e-14
        )
        np.testing.assert_allclose(
            field.var_g[i],
            gradient_autocovariance(graph, cloud, 2.0, i),
            rtol=1e-12,
            atol=1e-15,
        )


def test_tail_shift_points_inward():
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pts = np.vstack([[2.0, 0.0], rng.standard_normal((2000, 2))])
        cloud = PointCloud(points=pts)
        graph = neighbor_graph(cloud, np.full(2001, 32))
        if sample_mean_shift(graph, cloud, 0)[0] < 0.0:
            hits += 1
    assert hits >= 38


def test_uniform_gradients_average_to_zero():
    rng = np.random.default_rng(12)
    cloud = PointCloud(points=rng.uniform(size=(4000, 2)))
    graph = neighbor_graph(cloud, np.full(4000, 32))
    field = compute_gradient_field(graph, cloud, 2.0)
    for a in range(2):
        se = field.g[:, a].std(ddof=1) / np.sqrt(4000)
        assert abs(field.g[:, a].mean()) < 3.0 * se


def test_gaussian_parity_slope(gauss_field):
    pts, field = gauss_field
    x = pts.ravel()
    g = field.g.ravel()
    slope = float(np.dot(x, g) / np.dot(x, x))
    assert 0.9 <= slope <= 1.1


def test_gaussian_pull_calibration(gauss_field):
    pts, field = gauss_field
    for a in range(2):
        sigma = np.sqrt(field.var_g[:, a, a])
        pull = (field.g[:, a] - pts[:, a]) / sigma
        assert abs(pull.mean()) < 0.05
        assert 0.85 <= pull.std(ddof=1) <= 1.15


def test_autocovariance_zero_spread():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    graph = manual_graph(
        [4, 4, 4, 4, 4],
        [np.array([1, 2, 3])] * 5,
        [1.0, 1.0, 1.0, 1.0, 1.0],
    )
    cov = gradient_autocovariance(graph, PointCloud(points=pts), 2.0, 0)
    np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-15)


def test_autocovariance_symmetric_psd(rng):
    pts = rng.standard_normal((200, 3))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(200, 12))
    field = compute_gradient_field(graph, cloud, 3.0)
    for i in range(0, 200, 17):
        cov = field.var_g[i]
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12


def test_cross_covariance_disjoint_zero(rng):
    a = rng.standard_normal((30, 2))
    b = rng.standard_normal((30, 2)) + 500.0
    cloud = PointCloud(points=np.vstack([a, b]))
    graph = neighbor_graph(cloud, np.full(60, 6))
    cov = gradient_cross_covariance(graph, cloud, 2.0, 0, 45)
    np.testing.assert_array_equal(cov, np.zeros((2, 2)))


def test_cross_covariance_self_identity(rng):
    pts = rng.standard_normal((120, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(120, 10))
    for i in (0, 31, 77):
        auto = gradient_autocovariance(graph, cloud, 2.0, i)
        cross = gradient_cross_covariance(graph, cloud, 2.0, i, i)
        k = int(graph.k[i])
        np.testing.assert_allclose(cross, auto * (k - 2) / (k - 1), rtol=1e-12)


def test_cross_covariance_against_bootstrap():
    # Joint bootstrap of two heavily overlapping neighbourhoods: shared
    # displacement pairs are resampled together, own points separately.
    rng = np.random.default_rng(77)
    pts = rng.standard_normal((1200, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(1200, 64))
    checked = 0
    for i in (3, 101, 555):
        j = int(neighbors(graph, i)[0])
        om_i = set(neighbors(graph, i).tolist()) | {i}
        om_j = set(neighbors(graph, j).tolist()) | {j}
        shared = sorted((om_i & om_j) - {i, j})
        if len(shared) < 20:
            continue
        own_i = sorted(om_i - om_j - {i})
        own_j = sorted(om_j - om_i - {j})
        yi_sh = pts[shared] - pts[i]
        yj_sh = pts[shared] - pts[j]
        yi_own = pts[own_i] - pts[i]
        yj_own = pts[own_j] - pts[j]
        ci = -4.0 / graph.radii[i] ** 2
        cj = -4.0 / graph.radii[j] ** 2
        ki, kj = int(graph.k[i]) - 1, int(graph.k[j]) - 1
        reps = 4000
        gi = np.empty((reps, 2))
        gj = np.empty((reps, 2))
        for t in range(reps):
            sel = rng.integers(0, len(shared), size=len(shared))
            si = rng.integers(0, len(own_i), size=len(own_i))
            sj = rng.integers(0, len(own_j), size=len(own_j))
            gi[t] = ci * (yi_sh[sel].sum(0) + yi_own[si].sum(0)) / ki
            gj[t] = cj * (yj_sh[sel].sum(0) + yj_own[sj].sum(0)) / kj
        gi -= gi.mean(axis=0)
        gj -= gj.mean(axis=0)
        boot = gi.T @ gj / (reps - 1)
        formula = gradient_cross_covariance(graph, cloud, 2.0, i, j)
        err = np.linalg.norm(boot - formula) / np.linalg.norm(formula)
        assert err < 0.25
        checked += 1
    assert checked >= 2


def test_field_guards(rng):
    cloud = PointCloud(points=rng.standard_normal((30, 2)))
    graph = neighbor_graph(cloud, np.full(30, 3))
    with pytest.raises(ParameterError):
        compute_gradient_field(graph, cloud, 2.0)
    graph4 = neighbor_graph(cloud, np.full(30, 4))
    with pytest.raises(ParameterError):
        compute_gradient_field(graph4, cloud, -2.0)
    with pytest.raises(ParameterError):
        gradient_autocovariance(graph, cloud, 2.0, 0)
    with pytest.raises(ParameterError):
        estimate_gradient(graph, cloud, 2.0, 99)


def test_isometry_equivariance(rng):
    pts = rng.standard_normal((150, 2))
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ q.T + np.array([3.0, -1.5])
    k = adaptive_k(PointCloud(points=pts), 2.0, k_max=24)
    k2 = adaptive_k(PointCloud(points=moved), 2.0, k_max=24)
    np.testing.assert_array_equal(k, k2)
    f1 = compute_gradient_field(
        neighbor_graph(PointCloud(points=pts), k), PointCloud(points=pts), 2.0
    )
    f2 = compute_gradient_field(
        neighbor_graph(PointCloud(points=moved), k2),
        PointCloud(points=moved),
        2.0,
    )
    np.testing.assert_allclose(f2.g, f1.g @ q.T, atol=1e-9)
