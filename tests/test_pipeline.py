"""run_bmti end to end: one kNN table per run, same F as the stages by hand."""

from __future__ import annotations

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
