"""run_bmti end to end: one kNN table per run, same F as the stages by hand
and on any thread count or batch size."""

from __future__ import annotations

import sys

import numpy as np

from conftest import adaptive_k, neighbor_graph, twonn

from bmti import geometry
from bmti.datasets import generate_dataset
from bmti.delta_f import build_delta_f_edges
from bmti.gradients import compute_gradient_field
from bmti.pipeline import run_bmti
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
            "edge_overlap": graph.edge_overlap,
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
