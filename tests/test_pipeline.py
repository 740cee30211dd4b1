"""run_bmti end to end: one kNN table and one assembly per run, same F as
the stages by hand and on any thread count or batch size."""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

from conftest import adaptive_k, neighbor_graph, twonn

from bmti import geometry, pipeline, solver
from bmti.datasets import generate_dataset
from bmti.delta_f import build_delta_f_edges
from bmti.exceptions import ParameterError
from bmti.geometry import PointCloud
from bmti.gradients import compute_gradient_field
from bmti.neighborhoods import connected_components
from bmti.pipeline import BmtiConfig, run_bmti
from bmti.solver import assemble_system, solve_bmti


def test_one_knn_query_per_run_and_stages_by_hand(monkeypatch):
    cloud = generate_dataset("gauss2d", n=600, seed=3)
    widths = []
    query = geometry.knn_query_all

    def counted(c, k):
        widths.append(k)
        return query(c, k)

    monkeypatch.setattr(geometry, "knn_query_all", counted)
    result = run_bmti(cloud)
    assert widths == [255]  # min(k_max, n - 1) - 1
    monkeypatch.undo()

    # Each stage below queries its own table at the width it reads.
    d = twonn(cloud).d
    k = adaptive_k(cloud, d)
    graph = neighbor_graph(cloud, k)
    gradients = compute_gradient_field(graph, cloud, d)
    edges = build_delta_f_edges(graph, gradients, cloud)
    estimate = solve_bmti(assemble_system(edges))
    assert result.d_used == d
    np.testing.assert_array_equal(result.graph.k, k)
    assert np.array_equal(result.F, estimate.F)


def test_results_independent_of_threads_and_batches(monkeypatch):
    cloud = generate_dataset("mb2d", n=600, seed=4)

    def stages():
        result = run_bmti(cloud)
        graph, gradients, edges = result.graph, result.gradients, result.edges
        return {
            "edge_shared": graph.edge_shared,
            "edge_shared_moments": graph.edge_shared_moments,
            "g": gradients.g,
            "var_g": gradients.var_g,
            "delta_f": edges.delta_f,
            "eps2": edges.eps2,
            "pearson": edges.pearson,
            "F": result.F,
        }

    default = stages()
    # A few items per batch in every stage kernel, on one thread, then on
    # more threads than cores with frequent thread switches.
    monkeypatch.setattr(geometry, "_BATCH_ENTRIES", 1 << 10)
    interval = sys.getswitchinterval()
    for workers, switch in ((1, interval), (8, 1e-5)):
        monkeypatch.setattr(geometry, "_WORKERS", workers)
        sys.setswitchinterval(switch)
        try:
            other = stages()
        finally:
            sys.setswitchinterval(interval)
        for name, value in default.items():
            assert np.array_equal(value, other[name]), (workers, name)


def test_disconnected_graph_warns_once_and_assembles_once(monkeypatch):
    rng = np.random.default_rng(5)
    # 300 points a blob: the adaptive-k cap (255 neighbours) stays inside it.
    pts = np.vstack(
        [rng.standard_normal((300, 2)), rng.standard_normal((300, 2)) + 500.0]
    )
    calls = []
    assemble = solver.assemble_system

    def counted(edges):
        calls.append(edges.n_edges)
        return assemble(edges)

    monkeypatch.setattr(pipeline, "assemble_system", counted)
    monkeypatch.setattr(solver, "assemble_system", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_bmti(PointCloud(points=pts))
    hits = [
        w for w in caught
        if issubclass(w.category, UserWarning) and "components" in str(w.message)
    ]
    assert len(hits) == 1
    assert len(calls) == 1
    labels = connected_components(result.graph)
    assert np.unique(labels).size == 2
    for c in (0, 1):
        assert abs(result.F[labels == c].mean()) < 1e-8


def test_uncertainties_need_pure_integration():
    cloud = generate_dataset("gauss2d", n=200, seed=1)
    with pytest.raises(ParameterError, match="alpha"):
        run_bmti(cloud, BmtiConfig(alpha=0.5, uncertainties=True))
