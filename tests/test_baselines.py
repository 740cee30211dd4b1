"""Reference density estimators: kNN and Gaussian KDE."""

from __future__ import annotations

import numpy as np
import pytest

from bmti.baselines import (
    abramson_k,
    gkde_density,
    gkde_neg_log_density,
    knn_baseline,
    knn_density,
    silverman_bandwidth,
)
from bmti.datasets import generate_dataset
from bmti.evaluation import align_and_mae
from bmti.exceptions import DataError, ParameterError
from bmti.geometry import PointCloud, knn_query_all


def test_abramson_rule():
    assert abramson_k(2000, 2) == 13
    assert abramson_k(10_000, 2) == round(10_000 ** (1.0 / 3.0))
    assert abramson_k(5, 2) == 4  # floor kicks in
    with pytest.raises(ParameterError):
        abramson_k(0, 2)
    # A real dimension, such as a TwoNN estimate, is read as it is.
    assert abramson_k(2000, 2.5) == round(2000 ** (2.5 / 6.5))
    for dim in (0, -1.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            abramson_k(100, dim)


def test_knn_baseline_takes_k_from_its_volume_dimension():
    # mb2d embedded in D = 20: the ball volumes are 2-d, and so is the k
    # rule. At D = 20 the rule would give k = 563 and oversmooth.
    cloud = generate_dataset("mb2d-20d", n=2000, seed=0)
    est = knn_baseline(cloud, volume_dim="id")
    d = est.params["d"]
    assert 1.8 < d < 2.2
    assert est.params["k"] == abramson_k(2000, d) == 13
    assert np.array_equal(est.F, knn_density(cloud, d, 13).F)
    assert align_and_mae(est.F, cloud.truth_F)[1] < 0.3
    # A given d sets the rule's dimension too; embedding volumes keep D.
    assert knn_baseline(cloud, d=2.0).params["k"] == abramson_k(2000, 2) == 13
    assert knn_baseline(cloud).params["k"] == abramson_k(2000, 20) == 563


def test_knn_single_pair_closed_form():
    cloud = PointCloud(points=np.array([[0.0], [1.0]]))
    est = knn_density(cloud, d=1.0, k=1)
    np.testing.assert_allclose(est.F, np.log(4.0) * np.ones(2), rtol=1e-14)


def test_knn_uniform_interior():
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(10_000, 2))
    cloud = PointCloud(points=pts)
    est = knn_density(cloud, d=2.0, k=32)
    center = int(np.argmin(((pts - 0.5) ** 2).sum(axis=1)))
    assert abs(est.F[center]) < 0.5
    interior = np.all((pts > 0.15) & (pts < 0.85), axis=1)
    assert abs(np.median(est.F[interior])) < 0.2


def test_knn_guards(rng):
    cloud = PointCloud(points=rng.standard_normal((20, 2)))
    with pytest.raises(ParameterError):
        knn_density(cloud, d=2.0, k=0)
    with pytest.raises(ParameterError):
        knn_density(cloud, d=2.0, k=20)
    with pytest.raises(ParameterError):
        knn_density(cloud, d=0.0, k=3)
    _, dist = knn_query_all(cloud, 4)
    with pytest.raises(ParameterError):
        knn_density(cloud, d=2.0, k=5, dist=dist)  # table narrower than k
    with pytest.raises(ParameterError):
        knn_density(cloud, d=2.0, k=3, dist=dist[:10])  # rows missing
    _, dist = knn_query_all(cloud, 8)
    # k follows the package's one integer rule, with or without a table.
    for k in (7.9, 8.0, True):
        with pytest.raises(ParameterError, match="k must be an integer"):
            knn_density(cloud, d=2.0, k=k)
        with pytest.raises(ParameterError, match="k must be an integer"):
            knn_density(cloud, d=2.0, k=k, dist=dist)
        for volume_dim in ("embed", "id"):
            with pytest.raises(ParameterError, match="k must be an integer"):
                knn_baseline(cloud, k, volume_dim)
    dup = np.zeros((5, 2))
    dup[2:] = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    with pytest.raises(DataError):
        knn_density(PointCloud(points=dup), d=2.0, k=1)


def test_silverman_closed_form():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((1000, 2))
    pts = (pts - pts.mean(axis=0)) / pts.std(axis=0, ddof=1)
    cloud = PointCloud(points=pts)
    h = silverman_bandwidth(cloud)
    assert h == pytest.approx(0.001 ** (1.0 / 6.0), rel=1e-12)
    assert h == pytest.approx(0.31623, abs=5e-6)


def test_silverman_guards():
    with pytest.raises(DataError):
        silverman_bandwidth(PointCloud(points=np.zeros((5, 2))))


def test_gkde_single_kernel_closed_form():
    pts = np.array([[0.25, -1.0, 3.0]])
    h = 0.7
    F = gkde_neg_log_density(pts, pts, h)
    want = 0.5 * 3 * np.log(2.0 * np.pi * h * h)
    assert F[0] == pytest.approx(want, rel=1e-13)
    away = gkde_neg_log_density(pts, pts + [[1.0, 0.0, 0.0]], h)
    assert away[0] == pytest.approx(want + 0.5 / (h * h), rel=1e-12)


def test_gkde_matches_direct_sum(rng):
    pts = rng.standard_normal((50, 2))
    cloud = PointCloud(points=pts)
    est = gkde_density(cloud, bandwidth=0.4)
    i = 7
    d2 = ((pts - pts[i]) ** 2).sum(axis=1)
    rho = np.exp(-d2 / (2 * 0.4**2)).sum() / (50 * 2 * np.pi * 0.4**2)
    assert est.F[i] == pytest.approx(-np.log(rho), rel=1e-12)
    assert est.params["bandwidth"] == 0.4


def test_gkde_default_bandwidth_is_silverman(rng):
    cloud = PointCloud(points=rng.standard_normal((200, 2)))
    est = gkde_density(cloud)
    assert est.params["bandwidth"] == pytest.approx(
        silverman_bandwidth(cloud), rel=1e-12
    )


def test_gkde_guards(rng):
    pts = rng.standard_normal((10, 2))
    with pytest.raises(ParameterError):
        gkde_neg_log_density(pts, pts, 0.0)
    with pytest.raises(ParameterError):
        gkde_neg_log_density(pts, pts[:, :1], 1.0)
