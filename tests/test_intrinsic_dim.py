"""Two-neighbour-ratio intrinsic dimension estimates."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import twonn

from bmti.datasets import generate_dataset
from bmti.exceptions import ParameterError
from bmti.geometry import PointCloud, knn_query_all
from bmti.intrinsic_dim import DISCARD_FRACTION, estimate_id_twonn


def pareto_tail_fit(cloud: PointCloud) -> float:
    """Regression oracle: slope of log survival vs log ratio is -d."""
    _, dist = knn_query_all(cloud, 2)
    mu = np.sort(dist[:, 1] / dist[:, 0])
    n = mu.shape[0]
    keep = n - int(np.floor(DISCARD_FRACTION * n))
    mu = mu[:keep]
    emp = 1.0 - (np.arange(1, keep + 1) - 0.5) / n
    x = np.log(mu)
    y = np.log(emp)
    slope = float(np.polyfit(x, y, 1)[0])
    return -slope


def test_uniform_square_dimension():
    rng = np.random.default_rng(5)
    cloud = PointCloud(points=rng.uniform(size=(10_000, 2)))
    est = twonn(cloud)
    assert 1.9 <= est.d <= 2.1
    assert est.d == pytest.approx(pareto_tail_fit(cloud), rel=0.05)


def test_segment_in_three_dims():
    rng = np.random.default_rng(6)
    t = rng.uniform(size=1000)
    direction = np.array([1.0, 2.0, -0.5])
    cloud = PointCloud(points=np.outer(t, direction))
    est = twonn(cloud)
    assert 0.95 <= est.d <= 1.05


def test_rolled_two_dim_manifold_in_twenty():
    cloud = generate_dataset("mb2d-20d", n=2000, seed=0)
    assert cloud.embed_dim == 20
    est = twonn(cloud)
    assert 1.8 <= est.d <= 2.3


def test_power_of_two_scaling_is_bitwise():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((400, 3))
    base = twonn(PointCloud(points=pts)).d
    for exp in (-12, -3, 1, 9):
        scaled = twonn(PointCloud(points=pts * 2.0**exp)).d
        assert scaled == base


def test_generic_scaling_close():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((400, 3))
    base = twonn(PointCloud(points=pts)).d
    for c in (0.137, 3.9, 271.5):
        scaled = twonn(PointCloud(points=pts * c)).d
        assert scaled == pytest.approx(base, rel=1e-9)


def test_clamped_to_embedding_dimension():
    rng = np.random.default_rng(9)
    cloud = PointCloud(points=rng.uniform(size=(2000, 1)))
    est = twonn(cloud)
    assert 0.0 < est.d <= 1.0


def test_coincident_neighbours_skipped():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((50, 2))
    pts[1] = pts[0]
    with pytest.warns(UserWarning, match="coincident"):
        est = twonn(PointCloud(points=pts))
    assert np.isfinite(est.d)


def test_parameter_guards(rng):
    _, dist = knn_query_all(PointCloud(points=rng.standard_normal((50, 2))), 2)
    with pytest.raises(ParameterError):
        estimate_id_twonn(dist[:, :1], 2)
    _, small = knn_query_all(PointCloud(points=rng.standard_normal((9, 2))), 2)
    with pytest.raises(ParameterError):
        estimate_id_twonn(small, 2)
