"""Laplacian assembly, the gauged solve, variances, anchored blending."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import edge_set, neighbor_graph, random_cloud, traced
from oracles import component_labels, laplacian_system

from bmti import solver
from bmti.delta_f import build_delta_f_edges
from bmti.exceptions import CapabilityError, ParameterError, StateError
from bmti.geometry import PointCloud, knn_query_all, unit_ball_volume
from bmti.gradients import compute_gradient_field
from bmti.solver import (
    UNCERTAINTY_CAP,
    assemble_system,
    estimate_uncertainties,
    knn_anchor,
    solve_bmti,
)


def mutual(edges):
    """Add the reversed copy of every directed edge."""
    src, dst, df, e2 = edges
    return (
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        np.concatenate([df, -np.asarray(df)]),
        np.concatenate([e2, e2]),
    )


def random_instance(rng, n, extra=2.0):
    """Connected random graph: a spanning chain plus random chords."""
    perm = rng.permutation(n)
    src = [perm[t] for t in range(n - 1)]
    dst = [perm[t + 1] for t in range(n - 1)]
    n_extra = int(extra * n)
    src += [int(a) for a in rng.integers(0, n, size=n_extra)]
    dst += [int(b) for b in rng.integers(0, n, size=n_extra)]
    keep = [(a, b) for a, b in zip(src, dst) if a != b]
    src = np.array([a for a, _ in keep])
    dst = np.array([b for _, b in keep])
    df = rng.standard_normal(src.shape[0])
    e2 = rng.uniform(0.2, 3.0, size=src.shape[0])
    return edge_set(*mutual((src, dst, df, e2)), n)


def centered_per_component(x, labels):
    out = np.array(x, dtype=np.float64)
    for c in np.unique(labels):
        out[labels == c] -= out[labels == c].mean()
    return out


def test_two_node_assembly():
    eps2 = 0.5
    edges = edge_set([0, 1], [1, 0], [3.0, -3.0], [eps2, eps2], 2)
    system = assemble_system(edges)
    w = 1.0 / eps2
    np.testing.assert_allclose(
        system.A.toarray(), 2.0 * w * np.array([[1.0, -1.0], [-1.0, 1.0]])
    )
    np.testing.assert_allclose(system.b, [-2.0 * w * 3.0, 2.0 * w * 3.0])
    assert system.component_labels.tolist() == [0, 0]


def test_row_sums_vanish(rng):
    edges = random_instance(rng, 40)
    A = assemble_system(edges).A.toarray()
    scale = np.abs(A).max()
    assert np.abs(A.sum(axis=1)).max() < 1e-9 * scale


def subset(edges, sel, n=None):
    """The edges at positions sel on n points, sorted into rows, each row
    keeping their order in sel."""
    return edge_set(
        edges.src[sel], edges.dst[sel], edges.delta_f[sel], edges.eps2[sel],
        edges.n_points if n is None else n,
    )


def assembly_case(rng, case):
    """Edge sets whose rows list their edges in no particular order: shuffled
    within each row; every edge twice in its row, the two copies separate
    entries; two components and a point without edges."""
    base = random_instance(rng, 30)
    perm = rng.permutation(base.n_edges)
    if case == "shuffled":
        return subset(base, perm)
    if case == "duplicated":
        return subset(base, np.concatenate([perm, perm[::-1]]))
    other = random_instance(rng, 20)
    joined = subset(base, perm, n=51)
    return edge_set(
        np.concatenate([joined.src, other.src + 30]),
        np.concatenate([joined.dst, other.dst + 30]),
        np.concatenate([joined.delta_f, other.delta_f]),
        np.concatenate([joined.eps2, other.eps2]),
        51,
    )


@pytest.mark.parametrize("case", ["shuffled", "duplicated", "disconnected"])
def test_assembly_matches_edge_by_edge_oracle(rng, monkeypatch, case):
    edges = assembly_case(rng, case)
    system = assemble_system(edges)
    A = system.A.toarray()
    # Blocks of a few rows sum to the same matrix as one block.
    monkeypatch.setattr(solver, "_SUM_ENTRIES", 7)
    np.testing.assert_array_equal(assemble_system(edges).A.toarray(), A)
    want_A, want_b = laplacian_system(edges)
    scale = np.abs(want_A).max()
    assert np.abs(A - want_A).max() <= 1e-12 * scale
    assert np.abs(system.b - want_b).max() <= 1e-12 * np.abs(want_b).max()
    np.testing.assert_array_equal(A, A.T)
    assert np.abs(A.sum(axis=1)).max() <= 1e-12 * scale
    labels = component_labels(edges.n_points, edges.src, edges.dst)
    np.testing.assert_array_equal(system.component_labels, labels)
    assert labels.max() + 1 == (3 if case == "disconnected" else 1)


def test_assembly_allocates_under_60_bytes_per_edge(rng):
    # A CSR edge list like the pipeline's: rows in point order, 40 edges
    # each, to random other points (so hardly any edge is mutual, and A
    # holds about two entries an edge).
    n, per_row = 5000, 40
    src = np.repeat(np.arange(n), per_row)
    dst = (src + rng.integers(1, n, size=src.shape[0])) % n
    e = src.shape[0]
    edges = edge_set(src, dst, rng.standard_normal(e), rng.uniform(0.2, 3.0, e), n)
    system, peak, _ = traced(lambda: assemble_system(edges))
    assert system.A.shape == (n, n)
    assert peak <= 60 * e, f"{peak / e:.1f} bytes per edge"


def test_system_holds_exactly_its_entries(rng):
    # A neighbour graph, most of its edges mutual: A has fewer entries than
    # the two halves summed into it, so a sum buffer sized for both would
    # be larger than A.
    cloud = random_cloud(rng, 300, 2)
    idx, _ = knn_query_all(cloud, 8)
    src = np.repeat(np.arange(300), 8)
    e = src.size
    edges = edge_set(
        src, idx.ravel(), rng.standard_normal(e), rng.uniform(0.2, 3.0, e), 300
    )
    A = assemble_system(edges).A
    assert A.nnz < 2 * (e + 300)
    for arr in (A.data, A.indices):
        assert arr.size == A.nnz
        assert arr.base is None or arr.base.nbytes == arr.nbytes


def test_consistent_chain_rhs_in_column_space():
    f_true = np.array([0.0, 1.3, -0.4])
    src = np.array([0, 1])
    dst = np.array([1, 2])
    df = f_true[dst] - f_true[src]
    edges = edge_set(*mutual((src, dst, df, np.ones(2))), 3)
    system = assemble_system(edges)
    A = system.A.toarray()
    coef, *_ = np.linalg.lstsq(A, system.b, rcond=None)
    assert np.linalg.norm(A @ coef - system.b) < 1e-12


def test_single_edge_solution():
    c = 1.7
    edges = edge_set([0, 1], [1, 0], [c, -c], [0.3, 0.3], 2)
    est = solve_bmti(assemble_system(edges))
    np.testing.assert_allclose(est.F, [-c / 2.0, c / 2.0], atol=1e-12)
    assert est.residual < 1e-8


def test_consistent_path_recovers_truth(rng):
    n = 30
    f_true = rng.standard_normal(n)
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    df = f_true[dst] - f_true[src]
    edges = edge_set(*mutual((src, dst, df, np.full(n - 1, 0.7))), n)
    est = solve_bmti(assemble_system(edges), tol=1e-12)
    want = f_true - f_true.mean()
    assert np.abs(est.F - want).max() < 1e-10


def test_zero_differences_solve_to_zero_in_no_iterations():
    edges = edge_set(*mutual(([0, 1, 2], [1, 2, 3], np.zeros(3), np.ones(3))), 4)
    est = solve_bmti(assemble_system(edges))
    assert np.array_equal(est.F, np.zeros(4))
    assert est.cg_iterations == 0 and est.residual == 0.0


def test_gauge_fixed_once_before_and_once_after_the_loop(rng, monkeypatch):
    # b is centred per component before the solve and F after it; no pass
    # is made inside the loop, however many iterations it takes.
    calls = []
    center = solver._center_per_component

    def counted(x, labels):
        calls.append(x.shape)
        center(x, labels)

    monkeypatch.setattr(solver, "_center_per_component", counted)
    two = edge_set(
        *mutual((
            np.array([0, 1, 2, 3, 4, 5, 6]), np.array([1, 2, 0, 4, 5, 6, 3]),
            rng.standard_normal(7), rng.uniform(0.5, 2.0, 7),
        )),
        7,
    )
    for edges in (random_instance(rng, 40), two):
        calls.clear()
        system = assemble_system(edges)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = solve_bmti(system, tol=1e-12)
        assert est.cg_iterations > 2
        assert calls == [(system.n_points,)] * 2
        labels = system.component_labels
        for c in np.unique(labels):
            assert abs(est.F[labels == c].mean()) <= 1e-12


def test_inconsistent_triangle_matches_pseudo_inverse():
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    df = np.array([1.0, 1.0, 1.0])  # loop sum 3, maximally inconsistent
    edges = edge_set(*mutual((src, dst, df, np.array([0.5, 1.0, 2.0]))), 3)
    system = assemble_system(edges)
    est = solve_bmti(system, tol=1e-12)
    dense = np.linalg.pinv(system.A.toarray(), hermitian=True) @ system.b
    dense -= dense.mean()
    assert np.abs(est.F - dense).max() < 1e-8


def test_solve_matches_pseudo_inverse_random(rng):
    for _ in range(5):
        edges = random_instance(rng, 25)
        system = assemble_system(edges)
        est = solve_bmti(system, tol=1e-12)
        dense = np.linalg.pinv(system.A.toarray(), hermitian=True) @ system.b
        dense = centered_per_component(dense, system.component_labels)
        assert np.abs(est.F - dense).max() < 1e-8


def dense_oracle(system, alpha=1.0, anchor=None):
    """The solution by the dense pseudo-inverse (alpha = 1, centred per
    component) or the dense solve of the anchored system (alpha < 1)."""
    if alpha == 1.0:
        F = np.linalg.pinv(system.A.toarray(), hermitian=True) @ system.b
        return centered_per_component(F, system.component_labels)
    f0, h = anchor
    M = alpha * system.A.toarray() + np.diag((1.0 - alpha) * h)
    return np.linalg.solve(M, alpha * system.b + (1.0 - alpha) * h * f0)


def on_blocks(rng, n, blocks):
    """A connected random instance on each block of points; points in no
    block have no edges."""
    parts = []
    for pts in blocks:
        part = random_instance(rng, len(pts))
        pts = np.asarray(pts)
        parts.append((pts[part.src], pts[part.dst], part.delta_f, part.eps2))
    return edge_set(*(np.concatenate(col) for col in zip(*parts)), n)


def preconditioner_case(rng, case):
    """Systems on which the coarse space meets an edge case: three
    components; a point without edges (a zero diagonal entry); a component
    of points 1-5, between the strided seeds 0 and 8 of n = 50."""
    if case == "components":
        return on_blocks(rng, 60, np.array_split(rng.permutation(60), 3))
    if case == "isolated_point":
        return on_blocks(rng, 30, [np.delete(np.arange(30), 17)])
    return on_blocks(rng, 50, [np.arange(1, 6), np.delete(np.arange(50), np.arange(1, 6))])


@pytest.mark.parametrize("alpha", [1.0, 0.3, 0.9])
@pytest.mark.parametrize("case", ["components", "isolated_point", "seedless_component"])
def test_solve_matches_dense_oracle_in_preconditioner_edge_cases(rng, case, alpha):
    system = assemble_system(preconditioner_case(rng, case))
    n = system.n_points
    anchor = (rng.standard_normal(n), rng.uniform(1.0, 40.0, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # several components
        est = solve_bmti(system, tol=1e-12, alpha=alpha, anchor=anchor)
    assert np.abs(est.F - dense_oracle(system, alpha, anchor)).max() < 1e-8
    # Every point has a cell, which lies in one component; the component
    # without a strided seed is seeded at its lowest point.
    labels = system.component_labels
    pre = solver._TwoLevel(system.A, labels)
    cells = np.unique(pre.cell)
    assert np.array_equal(cells, np.arange(pre.coarse.shape[0]))
    for c in cells:
        assert np.unique(labels[pre.cell == c]).size == 1
    if case == "seedless_component":
        assert cells.size == 8
        assert np.array_equal(np.flatnonzero(pre.cell == pre.cell[1]), np.arange(1, 6))


@pytest.mark.parametrize("n", [2, 3, 5, 10, 37, 120, 200])
def test_solve_matches_pseudo_inverse_from_2_to_200_points(rng, n):
    system = assemble_system(random_instance(rng, n))
    est = solve_bmti(system, tol=1e-12)
    assert np.abs(est.F - dense_oracle(system)).max() < 1e-8
    anchor = (rng.standard_normal(n), rng.uniform(1.0, 40.0, n))
    est = solve_bmti(system, tol=1e-12, alpha=0.5, anchor=anchor)
    assert np.abs(est.F - dense_oracle(system, 0.5, anchor)).max() < 1e-8


def test_two_node_variance_closed_form():
    eps2 = 0.9
    edges = edge_set([0, 1], [1, 0], [1.0, -1.0], [eps2, eps2], 2)
    var = estimate_uncertainties(assemble_system(edges))
    np.testing.assert_allclose(var, [eps2 / 8.0, eps2 / 8.0], rtol=1e-12)


def test_duplicated_edges_halve_variance(rng):
    edges = random_instance(rng, 12)
    var1 = estimate_uncertainties(assemble_system(edges))
    doubled = edge_set(
        np.concatenate([edges.src, edges.src]),
        np.concatenate([edges.dst, edges.dst]),
        np.concatenate([edges.delta_f, edges.delta_f]),
        np.concatenate([edges.eps2, edges.eps2]),
        12,
    )
    var2 = estimate_uncertainties(assemble_system(doubled))
    np.testing.assert_allclose(var2, var1 / 2.0, rtol=1e-10)


def test_variance_matches_dense_oracle(rng):
    edges = random_instance(rng, 50)
    system = assemble_system(edges)
    var = estimate_uncertainties(system)
    lam, vec = np.linalg.eigh(system.A.toarray())
    inv = np.where(lam > 1e-10 * lam.max(), 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    diag = (vec * vec * inv).sum(axis=1)
    np.testing.assert_allclose(var, diag, atol=1e-8)


def test_uncertainty_cap():
    rng = np.random.default_rng(0)
    edges = random_instance(rng, UNCERTAINTY_CAP + 1)
    with pytest.raises(CapabilityError):
        estimate_uncertainties(assemble_system(edges))


def test_empty_edge_set_rejected():
    edges = edge_set([], [], [], [], 5)
    with pytest.raises(StateError):
        assemble_system(edges)


def test_anchor_hand_value(rng):
    pts = rng.standard_normal((10, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(10, 4))
    f0, h = knn_anchor(graph, cloud, 2.0)
    i = 3
    r = graph.radii[i]
    want = -np.log(3.0 / (10.0 * unit_ball_volume(2.0) * r * r))
    assert f0[i] == pytest.approx(want, rel=1e-12)
    assert h[i] == 4.0
    with pytest.raises(ParameterError):
        knn_anchor(graph, cloud, 0.0)


def test_regularized_limits(rng):
    pts = rng.standard_normal((60, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(60, 6))
    field = compute_gradient_field(graph, cloud, 2.0)
    system = assemble_system(build_delta_f_edges(graph, field, cloud))
    f0, h = knn_anchor(graph, cloud, 2.0)

    anchor_only = solve_bmti(system, alpha=0.0, anchor=(f0, h))
    np.testing.assert_array_equal(anchor_only.F, f0)
    assert anchor_only.alpha == 0.0
    assert anchor_only.cg_iterations == 0

    # At alpha = 1 the anchor is not read.
    pure = solve_bmti(system, tol=1e-12, alpha=1.0, anchor=(f0, h))
    direct = solve_bmti(system, tol=1e-12)
    np.testing.assert_array_equal(pure.F, direct.F)
    assert pure.alpha == 1.0


def test_regularized_blend_matches_dense(rng):
    pts = rng.standard_normal((40, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(40, 5))
    field = compute_gradient_field(graph, cloud, 2.0)
    system = assemble_system(build_delta_f_edges(graph, field, cloud))
    f0, h = knn_anchor(graph, cloud, 2.0)
    alpha = 0.7
    est = solve_bmti(system, tol=1e-12, alpha=alpha, anchor=(f0, h))
    assert est.alpha == alpha
    M = alpha * system.A.toarray() + np.diag((1.0 - alpha) * h)
    rhs = alpha * system.b + (1.0 - alpha) * h * f0
    np.testing.assert_allclose(est.F, np.linalg.solve(M, rhs), atol=1e-8)


def test_regularized_disconnected_warns(rng):
    a = rng.standard_normal((20, 2))
    b = rng.standard_normal((20, 2)) + 500.0
    cloud = PointCloud(points=np.vstack([a, b]))
    graph = neighbor_graph(cloud, np.full(40, 5))
    field = compute_gradient_field(graph, cloud, 2.0)
    system = assemble_system(build_delta_f_edges(graph, field, cloud))
    f0, h = knn_anchor(graph, cloud, 2.0)
    with pytest.warns(UserWarning, match="components"):
        est = solve_bmti(system, alpha=1.0, anchor=(f0, h))
    labels = system.component_labels
    np.testing.assert_array_equal(labels, np.repeat([0, 1], 20))
    for c in (0, 1):
        assert abs(est.F[labels == c].mean()) < 1e-8


def test_regularized_guards(rng):
    pts = rng.standard_normal((20, 2))
    cloud = PointCloud(points=pts)
    graph = neighbor_graph(cloud, np.full(20, 5))
    field = compute_gradient_field(graph, cloud, 2.0)
    system = assemble_system(build_delta_f_edges(graph, field, cloud))
    f0, h = knn_anchor(graph, cloud, 2.0)
    for alpha, anchor in (
        (1.5, (f0, h)),
        (-0.1, (f0, h)),
        (0.5, (f0[:-1], h[:-1])),
        (0.5, (f0, np.zeros(20))),
        (0.5, None),
        (0.0, None),
    ):
        with pytest.raises(ParameterError):
            solve_bmti(system, alpha=alpha, anchor=anchor)
    for alpha in (1.0, 0.5, 0.0):
        for tol in (0.0, np.nan, 1.0, np.inf):
            with pytest.raises(ParameterError, match="tol"):
                solve_bmti(system, tol=tol, alpha=alpha, anchor=(f0, h))
        for max_iter in (0, -1, 2.5):
            with pytest.raises(ParameterError, match="max_iter"):
                solve_bmti(system, max_iter=max_iter, alpha=alpha, anchor=(f0, h))
