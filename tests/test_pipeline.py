"""run_bmti end to end: a config checked before any stage, one kNN table,
grown by rows, and one assembly and one solve per run, same F as the stages
by hand and on any thread count or batch size, and invariant under point
permutations, isometries and rescaling."""

from __future__ import annotations

import importlib.util
import math
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_knn_queries, neighbor_graph, twonn
from oracles import stage_peaks

from bmti import geometry, pipeline, solver
from bmti.datasets import generate_dataset
from bmti.delta_f import build_delta_f_edges
from bmti.exceptions import BmtiError, ConvergenceError, ParameterError
from bmti.geometry import PointCloud
from bmti.gradients import compute_gradient_field
from bmti.neighborhoods import LR_THRESHOLD, select_adaptive_k
from bmti.pipeline import BmtiConfig, run_bmti
from bmti.solver import assemble_system, solve_bmti


def test_knn_table_grown_by_rows_and_stages_by_hand(monkeypatch):
    cloud = generate_dataset("gauss2d", n=600, seed=3)
    calls = []
    query = geometry.knn_query_all

    def counted(c, k, rows=None):
        calls.append((k, rows))
        return query(c, k, rows)

    monkeypatch.setattr(geometry, "knn_query_all", counted)
    result = run_bmti(cloud)
    monkeypatch.undo()
    # Every point at the start width, then subsets of rows at twice that or
    # at the cap, min(k_max, n - 1) - 1 = 255 columns: no row more than three
    # times in all, and fewer entries than the dense (n, 255) table holds.
    assert calls[0] == (pipeline._START_WIDTH, None)
    widths = {k for k, _ in calls[1:]}
    assert len(calls) > 1 and widths <= {2 * pipeline._START_WIDTH, 255}
    assert all(0 < len(rows) < cloud.n_points for _, rows in calls[1:])
    widened = np.concatenate([rows for _, rows in calls[1:]])
    assert np.bincount(widened).max() <= 2
    assert sum(k * len(rows) for k, rows in calls[1:]) < cloud.n_points * 255

    # Each stage below queries its own table at the width it reads, adaptive
    # k the full 255 columns, so the grown table must give the same sizes.
    d = twonn(cloud).d
    k, _, _ = select_adaptive_k(cloud, *geometry.knn_query_all(cloud, 255), d)
    graph = neighbor_graph(cloud, k)
    gradients = compute_gradient_field(graph, cloud, d)
    edges = build_delta_f_edges(graph, gradients, cloud)
    estimate = solve_bmti(assemble_system(edges))
    assert result.d_used == d
    np.testing.assert_array_equal(result.graph.k, k)
    assert np.array_equal(result.F, estimate.F)


def _run_counting_rows(cloud, cfg, start):
    """run_bmti with a start width of `start` columns, and how many times
    each row was queried; a BmtiError raised is returned as the result."""
    counts = np.zeros(cloud.n_points, dtype=np.int64)
    query = geometry.knn_query_all

    def counted(c, k, rows=None):
        counts[np.arange(c.n_points) if rows is None else rows] += 1
        return query(c, k, rows)

    with mock.patch.object(geometry, "knn_query_all", counted), \
            mock.patch.object(pipeline, "_START_WIDTH", start), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run_bmti(cloud, cfg), counts
        except BmtiError as exc:
            return exc, counts


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gauss", "lattice"]),
    n=st.integers(12, 90),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    k_max=st.integers(4, 100),
    start=st.integers(2, 70),
    lr=st.sampled_from([4.0, LR_THRESHOLD, 1e3]),
)
# A tiny cloud whose cap - 1 = 10 columns are below the default start width;
# lattices (ties at every distance) whose cap binds below n - 1, with rows
# widened past a start of 64 and of 3 columns.
@example(kind="gauss", n=12, dim=2, seed=0, k_max=256, start=64, lr=LR_THRESHOLD)
@example(kind="lattice", n=90, dim=2, seed=1, k_max=70, start=64, lr=1e3)
@example(kind="lattice", n=80, dim=1, seed=2, k_max=40, start=3, lr=1e3)
def test_grown_table_matches_full_width_table(kind, n, dim, seed, k_max, start, lr):
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        pts = rng.standard_normal((n, dim))
    else:
        side = int(np.ceil(n ** (1.0 / dim))) + 1
        cells = rng.choice(side**dim, size=n, replace=False)
        pts = np.stack(np.unravel_index(cells, (side,) * dim), axis=1) * 1.0
    cloud = PointCloud(points=pts)
    cfg = BmtiConfig(k_max=k_max, lr_threshold=lr)
    full, _ = _run_counting_rows(cloud, cfg, n)
    grown, counts = _run_counting_rows(cloud, cfg, start)
    assert counts.max() <= 3
    if isinstance(full, BmtiError):
        assert type(grown) is type(full) and str(grown) == str(full)
        return
    assert not isinstance(grown, BmtiError), grown
    assert np.array_equal(grown.graph.k, full.graph.k)
    assert np.array_equal(grown.graph.radii, full.graph.radii)
    assert np.array_equal(grown.graph.edge_dst, full.graph.edge_dst)
    assert np.array_equal(grown.F, full.F)


# One size per landscape; the 50 runs of the test take about 12 s.
_PERMUTED_SIZES = {"gauss2d": 300, "mb2d": 600, "sixd": 800}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    dataset=st.sampled_from(sorted(_PERMUTED_SIZES)),
    seed=st.integers(0, 2**16),
    perm_seed=st.integers(0, 2**16),
)
def test_run_bmti_equivariant_under_point_permutation(dataset, seed, perm_seed):
    cloud = generate_dataset(dataset, n=_PERMUTED_SIZES[dataset], seed=seed)
    perm = np.random.default_rng(perm_seed).permutation(cloud.n_points)
    # A CG tolerance far below the default 1e-8, at which the two solves
    # stop up to 7e-8 apart; at 1e-12 they differ by rounding alone.
    cfg = BmtiConfig(cg_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = run_bmti(cloud, cfg)
        moved = run_bmti(PointCloud(points=cloud.points[perm]), cfg)
    # k is read off exact distances, so it moves with the points; F only up
    # to the summation order of the solve.
    assert np.array_equal(moved.graph.k, base.graph.k[perm])
    want = base.F[perm] - base.F.mean()
    np.testing.assert_allclose(moved.F - moved.F.mean(), want, rtol=0, atol=1e-7)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    dataset=st.sampled_from(sorted(_PERMUTED_SIZES)),
    seed=st.integers(0, 2**16),
    move_seed=st.integers(0, 2**16),
    dyadic=st.sampled_from([0.125, 0.5, 2.0, 16.0]),
)
def test_run_bmti_invariant_under_isometry_and_rescaling(
    dataset, seed, move_seed, dyadic
):
    cloud = generate_dataset(dataset, n=_PERMUTED_SIZES[dataset], seed=seed)
    rng = np.random.default_rng(move_seed)
    q, _ = np.linalg.qr(rng.standard_normal((cloud.embed_dim, cloud.embed_dim)))
    shift = rng.uniform(-5.0, 5.0, size=cloud.embed_dim)
    cfg = BmtiConfig(cg_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = run_bmti(cloud, cfg)
        scaled = run_bmti(PointCloud(points=cloud.points * dyadic), cfg)
        moved = [
            run_bmti(PointCloud(points=cloud.points @ q.T + shift), cfg),
            run_bmti(PointCloud(points=cloud.points * 3.7), cfg),
        ]
    # A power of two scales every distance, gradient and edge term exactly,
    # so F is unchanged to the bit; other maps change distances by rounding.
    assert np.array_equal(scaled.graph.k, base.graph.k)
    assert np.array_equal(scaled.F, base.F)
    want = base.F - base.F.mean()
    for other in moved:
        assert np.array_equal(other.graph.k, base.graph.k)
        np.testing.assert_allclose(other.F - other.F.mean(), want, rtol=0, atol=1e-9)


def test_results_independent_of_threads_and_batches(monkeypatch):
    cloud = generate_dataset("mb2d", n=600, seed=4)

    def stages():
        result = run_bmti(cloud)
        graph, gradients, edges = result.graph, result.gradients, result.edges
        return {
            "k": graph.k,
            "edge_dst": graph.edge_dst,
            "radii": graph.radii,
            "g": gradients.g,
            "var_g": gradients.var_g,
            "delta_f": edges.delta_f,
            "eps2": edges.eps2,
            "eps_src": edges.eps_src,
            "eps_dst": edges.eps_dst,
            "pearson": edges.pearson,
            "F": result.F,
        }

    default = stages()
    # A few items per batch in every stage kernel and a few rows per kNN
    # chunk, on one thread, then on more threads than cores with frequent
    # thread switches; then one item per batch (the spreads' D x D = 4
    # entries an edge) and one row per chunk.
    interval = sys.getswitchinterval()
    for budget, chunk, workers, switch in (
        (1 << 10, 1 << 12, 1, interval),
        (1 << 10, 1 << 12, 8, 1e-5),
        (4, 1, 1, interval),
    ):
        monkeypatch.setattr(geometry, "_BATCH_ENTRIES", budget)
        monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", chunk)
        monkeypatch.setattr(geometry, "_WORKERS", workers)
        sys.setswitchinterval(switch)
        try:
            other = stages()
        finally:
            sys.setswitchinterval(interval)
        for name, value in default.items():
            assert np.array_equal(value, other[name]), (budget, chunk, workers, name)


def test_whole_call_peak_under_100_bytes_per_edge(monkeypatch):
    # On one thread, so that one batch of a stage kernel is alive at a time.
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    cloud = generate_dataset("mb2d", n=2000, seed=0)
    peaks, result = stage_peaks(cloud)
    stages = (
        "knn", "twonn", "adaptive_k", "graph", "gradients", "edge_kernel",
        "assembly", "solve",
    )
    assert set(peaks) == {*stages, "whole_call"}
    assert max(peaks[s] for s in stages) <= peaks["whole_call"]
    per_edge = peaks["whole_call"] / result.edges.n_edges
    assert per_edge <= 100, {s: f"{p / 1e6:.1f} MB" for s, p in peaks.items()}
    np.testing.assert_array_equal(result.F, run_bmti(cloud).F)


def test_rows_kept_once_as_row_starts():
    # The graph and the edge set share one row layout, the n + 1 row starts;
    # besides the edge ends, none of their integer arrays spans the edges.
    cloud = generate_dataset("gauss2d", n=400, seed=1)
    result = run_bmti(cloud)
    graph, edges = result.graph, result.edges
    edges.eps_src, edges.eps_dst  # cached on first read
    for holder, ends in ((graph, "edge_dst"), (edges, "dst")):
        for name, value in vars(holder).items():
            if name != ends and isinstance(value, np.ndarray):
                assert value.dtype.kind == "f" or value.size != graph.n_edges, name
    assert edges.indptr is graph.indptr and edges.dst is graph.edge_dst
    n = cloud.n_points
    assert np.array_equal(edges.src, np.repeat(np.arange(n), graph.k - 1))
    assert edges.n_points == n and edges.n_edges == graph.n_edges


def test_disconnected_graph_warns_once_and_assembles_once(monkeypatch):
    rng = np.random.default_rng(5)
    # 300 points a blob: the adaptive-k cap (255 neighbours) stays inside it.
    pts = np.vstack(
        [rng.standard_normal((300, 2)), rng.standard_normal((300, 2)) + 500.0]
    )
    systems = []
    assemble = solver.assemble_system

    def counted(edges):
        systems.append(assemble(edges))
        return systems[-1]

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
    assert len(systems) == 1
    labels = systems[0].component_labels
    np.testing.assert_array_equal(labels, np.repeat([0, 1], 300))
    for c in (0, 1):
        assert abs(result.F[labels == c].mean()) < 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
def test_one_assembly_and_one_solve_at_every_alpha(monkeypatch, alpha):
    calls = []

    def counting(name):
        fn = getattr(solver, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("assemble_system", "solve_bmti"):
        monkeypatch.setattr(pipeline, name, counting(name))
        monkeypatch.setattr(solver, name, counting(name))
    cloud = generate_dataset("gauss2d", n=300, seed=2)
    result = run_bmti(cloud, BmtiConfig(alpha=alpha))
    assert calls == ["assemble_system", "solve_bmti"]
    assert result.estimate.alpha == alpha


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_anchor_made_only_below_alpha_one(monkeypatch, alpha):
    anchors = []

    def counted(*args):
        anchors.append(args)
        return solver.knn_anchor(*args)

    monkeypatch.setattr(pipeline, "knn_anchor", counted)
    cloud = generate_dataset("gauss2d", n=300, seed=2)
    result = run_bmti(cloud, BmtiConfig(alpha=alpha))
    assert len(anchors) == (1 if alpha < 1.0 else 0)
    # The same F as the solve handed the anchor, at either alpha.
    anchor = solver.knn_anchor(result.graph, cloud, result.d_used)
    system = assemble_system(result.edges)
    want = solve_bmti(system, alpha=alpha, anchor=anchor)
    np.testing.assert_array_equal(result.F, want.F)


def test_uncertainties_need_pure_integration():
    cloud = generate_dataset("gauss2d", n=200, seed=1)
    with pytest.raises(ParameterError, match="alpha"):
        run_bmti(cloud, BmtiConfig(alpha=0.5, uncertainties=True))


@pytest.mark.parametrize(
    "fields",
    [
        {"id_value": 0.0},
        {"id_value": float("nan")},
        {"k_min": 3},
        {"k_min": 6.0},
        {"k_max": 3},
        {"lr_threshold": 0.0},
        {"alpha": 1.5},
        {"alpha": float("nan")},
        {"cg_tol": 0.0},
        {"cg_tol": 1.0},
        {"alpha": 0.5, "cg_tol": 0.0},
        {"cg_max_iter": 0},
        {"eps2_min": 0.0},
    ],
    ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()),
)
def test_config_rejects_bad_fields_before_any_stage(monkeypatch, fields):
    widths = count_knn_queries(monkeypatch)
    cloud = generate_dataset("gauss2d", n=400, seed=0)
    # The last field named is the bad one.
    with pytest.raises(ParameterError, match=list(fields)[-1]):
        run_bmti(cloud, BmtiConfig(**fields))
    assert widths == []


def test_solve_out_of_iterations_raises():
    cloud = generate_dataset("gauss2d", n=400, seed=0)
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        run_bmti(cloud, BmtiConfig(cg_max_iter=1))


def test_config_is_frozen():
    cfg = BmtiConfig()
    with pytest.raises(AttributeError):
        cfg.alpha = 0.5


def test_benchmark_reads_every_layer_count_of_a_result(monkeypatch):
    # perfbench reads these counts off the result of a traced run, and the
    # stage times off its spans; one whose source is gone is left out, and
    # the run still exits 0, so a rename or a deleted attribute would go
    # unnoticed there. The harness is loaded by path, under a name of its
    # own, as it ships.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
    spec = importlib.util.spec_from_file_location("bmti_perfbench_bench", path)
    bench = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses look their module up.
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    cfg = BmtiConfig()
    cloud = generate_dataset("mb2d", n=400, seed=0)
    result = run_bmti(cloud, cfg)

    # Every stage runs under the name the harness wraps, so each records
    # its span, and tracing leaves F as it is.
    tracer = bench.Tracer()
    traced = bench.run_traced(cloud, cfg, tracer)
    assert np.array_equal(traced.F, result.F)
    spans = {s.name for s in tracer.spans if s.call == tracer.call}
    assert set(bench.STAGE_SPANS.values()) <= spans
    times = bench.stage_times(tracer, tracer.call, 1.0)
    time_metrics = [
        "geometry.knn.s",
        "intrinsic_dim.twonn.s",
        "neighborhoods.adaptive_k.s",
        "neighborhoods.adaptive_k.self_s",
        "neighborhoods.graph.s",
        "neighborhoods.graph.self_s",
        "gradients.s",
        "delta_f.edges.s",
        "solver.assemble.s",
        "solver.solve.s",
    ]
    assert set(time_metrics) <= set(times)
    assert all(math.isfinite(times[name]) for name in time_metrics)

    counts = bench.result_counts(result, cfg)
    assert sorted(counts) == sorted(
        [
            "intrinsic_dim.d",
            "neighborhoods.edges",
            "neighborhoods.overlap_pairs",
            "neighborhoods.k_mean",
            "neighborhoods.k_sat_frac",
            "geometry.knn.useful_frac",
            "delta_f.eps2_floor",
            "delta_f.qform_clamped",
            "solver.cg_iterations",
        ]
    )
    assert all(math.isfinite(value) for value in counts.values())
