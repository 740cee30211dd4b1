"""Per-edge difference estimates and their error bars."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import adaptive_k, neighbor_graph, traced
from oracles import (
    delta_f_variance,
    directional_delta_f,
    edge_correlation,
    edge_src,
    estimate_delta_f,
)

from bmti import geometry
from bmti.delta_f import EPS2_MIN, build_delta_f_edges, calibration_report
from bmti.exceptions import DataError, ParameterError
from bmti.geometry import PointCloud
from bmti.gradients import GradientField, compute_gradient_field
from bmti.neighborhoods import build_neighbor_graph


def constant_field(n: int, g: np.ndarray, var: np.ndarray) -> GradientField:
    g = np.tile(np.asarray(g, dtype=np.float64), (n, 1))
    var = np.tile(np.asarray(var, dtype=np.float64), (n, 1, 1))
    return GradientField(g=g, var_g=var, mean_shift=np.zeros_like(g), scale=np.ones(n))


def pipeline_stages(rng, n=150, dim=2, k=10):
    pts = rng.standard_normal((n, dim))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(n, k))
    field = compute_gradient_field(graph, cloud, float(dim))
    return cloud, graph, field


def test_constant_gradient_linear_landscape(rng):
    pts = rng.standard_normal((20, 3))
    cloud = PointCloud(points=pts)
    a = np.array([0.5, -2.0, 1.25])
    field = constant_field(20, a, np.zeros((3, 3)))
    for i, j in [(0, 1), (5, 17), (3, 3)]:
        want = float(a @ (pts[j] - pts[i]))
        assert estimate_delta_f(field, cloud, i, j) == pytest.approx(want, abs=1e-14)
    assert estimate_delta_f(field, cloud, 4, 4) == 0.0


def test_antisymmetry_exact(rng):
    cloud, _, field = pipeline_stages(rng)
    for i, j in [(0, 1), (10, 99), (42, 7)]:
        assert estimate_delta_f(field, cloud, i, j) == -estimate_delta_f(
            field, cloud, j, i
        )


def test_directional_isotropic_and_null_cases():
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    cloud = PointCloud(points=pts)
    sigma2 = 0.49
    field = constant_field(2, [1.0, 0.0, 0.0], sigma2 * np.eye(3))
    value, eps = directional_delta_f(field, cloud, 0, 1, 0)
    assert value == pytest.approx(2.0)
    assert eps == pytest.approx(np.sqrt(sigma2) * 2.0, rel=1e-14)

    # Covariance with a single off-edge eigendirection contributes nothing.
    var = np.zeros((3, 3))
    var[1, 1] = 5.0
    field2 = constant_field(2, [1.0, 0.0, 0.0], var)
    _, eps2 = directional_delta_f(field2, cloud, 0, 1, 1)
    assert eps2 == 0.0


def test_directional_matches_dense_arithmetic(rng):
    pts = rng.standard_normal((6, 3))
    cloud = PointCloud(points=pts)
    g = rng.standard_normal((6, 3))
    var = np.empty((6, 3, 3))
    for i in range(6):
        m = rng.standard_normal((3, 3))
        var[i] = m @ m.T
    field = GradientField(g=g, var_g=var, mean_shift=np.zeros((6, 3)), scale=np.ones(6))
    for i, j, w in [(0, 1, 0), (0, 1, 1), (4, 2, 4)]:
        r = pts[j] - pts[i]
        value, eps = directional_delta_f(field, cloud, i, j, w)
        assert value == pytest.approx(float(g[w] @ r), rel=1e-12)
        assert eps == pytest.approx(float(np.sqrt(r @ var[w] @ r)), rel=1e-12)


def test_directional_guards(rng):
    pts = rng.standard_normal((4, 2))
    cloud = PointCloud(points=pts)
    field = constant_field(4, [1.0, 0.0], np.eye(2))
    with pytest.raises(ParameterError):
        directional_delta_f(field, cloud, 0, 1, 2)
    bad = constant_field(4, [1.0, 0.0], -np.eye(2))
    with pytest.raises(DataError):
        directional_delta_f(bad, cloud, 0, 1, 0)


def test_variance_correlation_limits():
    eps = 0.8
    assert delta_f_variance(eps, eps, 1.0) == pytest.approx(eps * eps)
    assert delta_f_variance(eps, eps, 0.0) == pytest.approx(eps * eps / 2.0)
    # Equal halves with fully anticorrelated errors cancel to the floor.
    assert delta_f_variance(eps, eps, -1.0) == EPS2_MIN


def test_variance_ignores_estimate_signs(rng):
    # The error correlation comes from the shared points, not from the signs
    # of the two directional estimates: flipping every estimate leaves the
    # error bars alone.
    cloud, graph, field = pipeline_stages(rng, n=80, k=8)
    flipped = GradientField(
        g=-field.g, var_g=field.var_g, mean_shift=field.mean_shift, scale=field.scale
    )
    a = build_delta_f_edges(graph, field, cloud)
    b = build_delta_f_edges(graph, flipped, cloud)
    np.testing.assert_array_equal(b.delta_f, -a.delta_f)
    np.testing.assert_array_equal(b.pearson, a.pearson)
    np.testing.assert_array_equal(b.eps2, a.eps2)
    r = cloud.points[a.dst] - cloud.points[a.src]
    dir_src = np.einsum("ed,ed->e", field.g[a.src], r)
    dir_dst = np.einsum("ed,ed->e", field.g[a.dst], r)
    assert (dir_src * dir_dst < 0.0).any() and (a.pearson > 0.0).any()


def test_variance_guards():
    with pytest.raises(ParameterError):
        delta_f_variance(0.5, 0.5, 1.5)
    with pytest.raises(ParameterError):
        delta_f_variance(-0.5, 0.5, 0.5)


def edges_in_default_and_tiny_batches(graph, field, cloud, monkeypatch):
    """The edge set at the default batch budget, then at two small budgets
    on 1, 4 and 8 threads, so that batch boundaries fall inside the graph;
    the directional spreads of each are read at the budget it was built at.

    The kernel's bitmap window holds max(1, budget // n) sources. At 64
    entries (below n) a window holds a single source point; at 3 n entries
    it holds three, and some batch (of budget // per_pair pairs, taken in
    edge order) spans several windows.
    """
    n, dim = graph.n_points, cloud.embed_dim
    per_pair = max(int(graph.k.max()), dim * (dim + 3) // 2, dim * dim, 32)
    # The sources of the pairs in edge order: every edge but the one from
    # the higher index of a mutual pair.
    src, dst = edge_src(graph).tolist(), graph.edge_dst.tolist()
    listed = set(zip(src, dst))
    pair_src = np.array([i for i, j in zip(src, dst) if i < j or (j, i) not in listed])
    batch = 3 * n // per_pair
    assert 64 < n and any(
        np.ptp(pair_src[s : s + batch]) >= 3 for s in range(0, pair_src.size, batch)
    )

    def built():
        edges = build_delta_f_edges(graph, field, cloud)
        edges.eps_src, edges.eps_dst  # computed on first read
        return edges

    sets = [built()]
    for budget in (64, 3 * n):
        for workers in (1, 4, 8):
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_BATCH_ENTRIES", budget)
                patch.setattr(geometry, "_WORKERS", workers)
                sets.append(built())
    return sets


def test_edge_set_matches_scalar_operations(rng, monkeypatch):
    cloud, graph, field = pipeline_stages(rng, n=120, k=9)
    default, *others = edges_in_default_and_tiny_batches(
        graph, field, cloud, monkeypatch
    )
    for edges in others:
        for name in ("delta_f", "eps2", "eps_src", "eps_dst", "pearson"):
            assert np.array_equal(getattr(edges, name), getattr(default, name))
    assert edges.n_edges == graph.n_edges
    # The spreads are read off the gradient field and the cloud, not copies.
    assert edges.var_g is field.var_g and edges.points is cloud.points
    sel = rng.integers(0, edges.n_edges, size=200)
    src = edges.src
    for e in sel:
        i, j = int(src[e]), int(edges.dst[e])
        assert edges.delta_f[e] == pytest.approx(
            estimate_delta_f(field, cloud, i, j), rel=1e-12, abs=1e-14
        )
        _, ei = directional_delta_f(field, cloud, i, j, i)
        _, ej = directional_delta_f(field, cloud, i, j, j)
        assert edges.eps_src[e] == pytest.approx(ei, rel=1e-12)
        assert edges.eps_dst[e] == pytest.approx(ej, rel=1e-12)
        p = edge_correlation(graph, field, cloud, i, j)
        assert edges.pearson[e] == pytest.approx(p, rel=1e-9, abs=1e-12)
        eps2 = delta_f_variance(ei, ej, p)
        assert edges.eps2[e] == pytest.approx(eps2, rel=1e-9)


def test_edges_independent_of_row_order(rng, monkeypatch):
    # The kernel intersects the graph's rows in the order they list their
    # neighbours, so a graph listing them in another order gives the same
    # edges, up to the order in which the shared points are summed; and no
    # build, at any batch budget or thread count, writes to edge_dst.
    cloud, graph, field = pipeline_stages(rng, n=120, k=9)
    n = graph.n_points
    rows = graph.edge_dst.reshape(n, -1)
    shuffled = build_neighbor_graph(
        cloud, graph.k, rng.permuted(rows, axis=1).ravel(), graph.radii
    )
    assert not np.array_equal(shuffled.edge_dst, graph.edge_dst)
    want = None
    for g in (graph, shuffled):
        listed = g.edge_dst.copy()
        sets = edges_in_default_and_tiny_batches(g, field, cloud, monkeypatch)
        assert g.edge_dst.tobytes() == listed.tobytes()
        # Edges by (src, dst).
        order = np.argsort(edge_src(g) * n + g.edge_dst)
        for edges in sets:
            got = [getattr(edges, name)[order] for name in ("delta_f", "eps2", "pearson")]
            if want is None:
                want = got
            assert np.array_equal(got[0], want[0])
            np.testing.assert_allclose(got[1], want[1], rtol=1e-11, atol=0)
            np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-11)


def test_edge_antisymmetry_over_mutual_pairs(rng):
    cloud, graph, field = pipeline_stages(rng, n=100, k=12)
    edges = build_delta_f_edges(graph, field, cloud)
    table = {}
    src = edges.src
    for e in range(edges.n_edges):
        table[(int(src[e]), int(edges.dst[e]))] = edges.delta_f[e]
    mutual = 0
    for (i, j), v in table.items():
        if (j, i) in table:
            assert table[(j, i)] == -v
            mutual += 1
    assert mutual > 100


@pytest.mark.parametrize("dim", [2, 6])
def test_edge_model_matches_shared_set_oracle(rng, monkeypatch, dim):
    # Every edge's error model against the oracle's explicit shared sets, at
    # every batch budget. Far from the origin, so the moments are not
    # computed in coordinates that happen to be centred already.
    pts = rng.standard_normal((120, dim)) + np.resize([40.0, -25.0], dim)
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(
        cloud, adaptive_k(cloud, float(dim), lr_threshold=8.0, k_max=20)
    )
    field = compute_gradient_field(graph, cloud, float(dim))
    src, dst = edge_src(graph).tolist(), graph.edge_dst.tolist()
    # A pair is computed in the frame of its first edge: twins, and one-way
    # edges from the lower and from the higher index, all occur.
    listed = set(zip(src, dst))
    mutual = np.array([(j, i) in listed for i, j in zip(src, dst)])
    high = edge_src(graph) > graph.edge_dst
    assert np.any(mutual) and np.any(~mutual & ~high) and np.any(~mutual & high)
    want_p = np.array(
        [edge_correlation(graph, field, cloud, i, j) for i, j in zip(src, dst)]
    )
    want_eps2 = np.array(
        [
            delta_f_variance(
                directional_delta_f(field, cloud, i, j, i)[1],
                directional_delta_f(field, cloud, i, j, j)[1],
                p,
            )
            for i, j, p in zip(src, dst, want_p)
        ]
    )
    for edges in edges_in_default_and_tiny_batches(graph, field, cloud, monkeypatch):
        np.testing.assert_allclose(edges.pearson, want_p, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(edges.eps2, want_eps2, rtol=1e-9, atol=0)


def test_edge_builder_rejects_a_row_listing_a_neighbour_twice(rng):
    # Row i lists j again in place of its last neighbour: two edges i -> j,
    # and with j -> i a third edge of the pair.
    cloud = PointCloud(points=rng.standard_normal((20, 2)))
    k = np.full(20, 5)
    base = neighbor_graph(cloud, k)
    rows = base.edge_dst.reshape(20, 4)
    listed = {(i, j) for i, row in enumerate(rows.tolist()) for j in row}
    cases = {}
    for i, row in enumerate(rows.tolist()):
        for j in row[:-1]:
            cases.setdefault((j, i) in listed, (i, j))
    assert set(cases) == {False, True}
    for i, j in cases.values():
        edge_dst = rows.copy()
        edge_dst[i, -1] = j
        graph = build_neighbor_graph(cloud, k, edge_dst.ravel(), base.radii)
        field = compute_gradient_field(graph, cloud, 2.0)
        with pytest.raises(ParameterError):
            build_delta_f_edges(graph, field, cloud)


@pytest.mark.parametrize("dim", [2, 6])
def test_edge_model_symmetric_over_mutual_pairs(rng, dim):
    # The two directions of a mutual pair share one error model, computed
    # in the frame of one of them. Far from the origin, so that a frame
    # change would show its cancellation.
    pts = rng.standard_normal((300, dim)) + np.resize([40.0, -25.0], dim)
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(
        cloud, adaptive_k(cloud, float(dim), lr_threshold=8.0, k_max=30)
    )
    field = compute_gradient_field(graph, cloud, float(dim))
    edges = build_delta_f_edges(graph, field, cloud)
    index = {ij: e for e, ij in enumerate(zip(edges.src.tolist(), edges.dst.tolist()))}
    pairs = [(e, index[j, i]) for (i, j), e in index.items() if (j, i) in index]
    assert 100 < len(pairs) < edges.n_edges
    e, r = np.array(pairs).T
    np.testing.assert_allclose(edges.eps2[r], edges.eps2[e], rtol=1e-12, atol=0)
    # A correlation, of scale 1: relative to that where it is near 0.
    np.testing.assert_allclose(
        edges.pearson[r], edges.pearson[e], rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(edges.eps_dst[r], edges.eps_src[e], rtol=1e-12, atol=0)
    assert np.array_equal(edges.delta_f[r], -edges.delta_f[e])


def test_twin_square_edge_correlation_from_shared_points():
    # All four square points share one neighbourhood. Along the edge 0 -> 1
    # the directional estimates have opposite signs, but both mean shifts
    # move together with the shared points 2 and 3: each contributes a
    # product of centred shifts of 2/9 along the edge, so the shift
    # covariance is (4/9) / 3^2 against shift variances of 1/9 each, a
    # correlation of +4/9, and eps2 = (4/9 + 4/9 + 2 (4/9)(2/3)^2) / 4.
    pts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [50.0, 50.0]]
    )
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(5, 4))
    field = compute_gradient_field(graph, cloud, 2.0)
    np.testing.assert_allclose(field.g[0], [-4.0 / 3.0, -4.0 / 3.0], rtol=1e-14)
    np.testing.assert_allclose(field.g[1], [4.0 / 3.0, -4.0 / 3.0], rtol=1e-14)
    edges = build_delta_f_edges(graph, field, cloud)
    e = 0  # first listed edge is 0 -> 1
    assert (int(edges.src[e]), int(edges.dst[e])) == (0, 1)
    assert directional_delta_f(field, cloud, 0, 1, 0)[0] == pytest.approx(
        -4.0 / 3.0, rel=1e-14
    )
    assert directional_delta_f(field, cloud, 0, 1, 1)[0] == pytest.approx(
        4.0 / 3.0, rel=1e-14
    )
    assert edges.eps_src[e] == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert edges.eps_dst[e] == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert edges.pearson[e] == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert edges.eps2[e] == pytest.approx(26.0 / 81.0, rel=1e-12)
    assert edges.delta_f[e] == pytest.approx(0.0, abs=1e-15)


def test_calibration_exact_estimates_give_zero_pulls(rng):
    pts = rng.standard_normal((50, 2))
    truth = rng.standard_normal(50)
    cloud = PointCloud(points=pts, truth_F=truth)
    graph = neighbor_graph(cloud, np.full(50, 6))
    field = compute_gradient_field(graph, cloud, 2.0)
    edges = build_delta_f_edges(graph, field, cloud)
    edges.delta_f = truth[edges.dst] - truth[edges.src]
    stats = calibration_report(edges, cloud)
    assert stats.mean == pytest.approx(0.0, abs=1e-9)
    assert stats.std == pytest.approx(0.0, abs=1e-9)
    assert stats.n == edges.n_edges


def test_calibration_normal_pulls_pass_ks(rng):
    pts = rng.standard_normal((200, 2))
    truth = rng.standard_normal(200)
    cloud = PointCloud(points=pts, truth_F=truth)
    graph = neighbor_graph(cloud, np.full(200, 8))
    field = compute_gradient_field(graph, cloud, 2.0)
    edges = build_delta_f_edges(graph, field, cloud)
    z = rng.standard_normal(edges.n_edges)
    edges.delta_f = truth[edges.dst] - truth[edges.src] + np.sqrt(edges.eps2) * z
    stats = calibration_report(edges, cloud)
    assert kstest(z, "norm").statistic == pytest.approx(stats.ks_distance, abs=1e-12)
    assert abs(stats.mean) < 0.05
    assert 0.9 <= stats.std <= 1.1


def test_calibration_requires_truth(rng):
    cloud, graph, field = pipeline_stages(rng, n=40, k=5)
    edges = build_delta_f_edges(graph, field, cloud)
    with pytest.raises(ParameterError):
        calibration_report(edges, cloud)


def test_edge_builder_rejects_bad_floor(rng):
    cloud, graph, field = pipeline_stages(rng, n=40, k=5)
    for eps2_min in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="eps2_min"):
            build_delta_f_edges(graph, field, cloud, eps2_min=eps2_min)


def test_edge_kernel_allocates_under_81_bytes_per_edge(rng, monkeypatch):
    # On one thread, so that one batch is alive at a time, and on a cloud
    # whose n is large next to its k: a bitmap that grew with n (a slot of
    # n per source of a whole batch, say) would not fit the bound, nor would
    # batches sized by k alone (k = 6 would make them 87381 pairs, at 162
    # bytes per edge). Measured at 70.5 bytes per edge, with batches of
    # 16384 pairs.
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    cloud, graph, field = pipeline_stages(rng, n=40000, k=6)
    edges, peak, _ = traced(lambda: build_delta_f_edges(graph, field, cloud))
    assert edges.n_edges == graph.n_edges
    assert peak <= 81 * edges.n_edges, f"{peak / edges.n_edges:.1f} bytes per edge"


def test_spreads_allocate_under_24_bytes_per_edge(rng, monkeypatch):
    # The setting of the edge kernel's test. A batch holds about ten floats
    # an edge, so batches sized by D^2 alone (131072 edges at D = 2) would
    # allocate 58 bytes per edge. Measured at 21.3 bytes per edge, with
    # batches of 16384 edges.
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    cloud, graph, field = pipeline_stages(rng, n=40000, k=6)
    edges = build_delta_f_edges(graph, field, cloud)
    for read in (lambda: edges.eps_src, lambda: edges.eps_dst):
        spread, peak, _ = traced(read)
        assert spread.shape == (edges.n_edges,)
        assert peak <= 24 * edges.n_edges, f"{peak / edges.n_edges:.1f} bytes per edge"


def test_edge_builder_clamps_roundoff_and_rejects_non_psd(rng, monkeypatch):
    cloud, graph, field = pipeline_stages(rng, n=80, k=6)
    # Forms negative by roundoff only are clamped to 0: no spread, no
    # correlation, eps2 at the floor.
    tiny = constant_field(80, [1.0, 0.0], -1e-12 * np.eye(2))
    for edges in edges_in_default_and_tiny_batches(
        graph, tiny, cloud, monkeypatch
    ):
        assert np.all(edges.eps_src == 0.0) and np.all(edges.eps_dst == 0.0)
        assert np.all(edges.pearson == 0.0) and np.all(edges.eps2 == EPS2_MIN)
    # One point far from PSD raises, in whichever batch its edges fall.
    for point in (0, 57):
        var = field.var_g.copy()
        var[point] = -np.eye(2)
        bad = GradientField(
            g=field.g, var_g=var, mean_shift=field.mean_shift, scale=field.scale
        )
        with pytest.raises(DataError):
            build_delta_f_edges(graph, bad, cloud)
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_BATCH_ENTRIES", 64)
            patch.setattr(geometry, "_WORKERS", 4)
            with pytest.raises(DataError):
                build_delta_f_edges(graph, bad, cloud)
