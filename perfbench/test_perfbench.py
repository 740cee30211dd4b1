"""Tests of the benchmark's own helpers, on clouds small enough to run in seconds."""

from __future__ import annotations

import json
import statistics
import sys

import numpy as np
import pytest

import bench

bench.use_repo_source()

import run  # noqa: E402
from bmti import BmtiConfig, PointCloud, generate_dataset, run_bmti  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    return generate_dataset("mb2d", n=300, seed=0)


def test_summarize_median_and_quartiles():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    s = bench.summarize(vals)
    q1, med, q3 = statistics.quantiles(vals, n=4)
    assert (s.n, s.median, s.q1, s.q3) == (6, med, q1, q3)
    assert s.median == 3.5
    one = bench.summarize([2.5])
    assert (one.n, one.median, one.q1, one.q3) == (1, 2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        bench.summarize([])


def test_self_time_subtracts_direct_children_only():
    t = bench.Tracer()
    t.spans = [
        bench.Span("root", 0.0, 10.0, None, 0),
        bench.Span("a", 1.0, 4.0, 0, 0),
        bench.Span("b", 5.0, 6.0, 0, 0),
        bench.Span("a.child", 2.0, 3.0, 1, 0),
    ]
    assert t.self_time(0) == pytest.approx(6.0)
    assert t.self_time(1) == pytest.approx(2.0)
    assert t.self_time(3) == pytest.approx(1.0)


def test_tracer_nests_spans_and_records_counts():
    t = bench.Tracer()
    traced = t.wrap(lambda x: x * 2, "double", lambda out: {"out": out})
    with t.span("outer"):
        assert traced(21) == 42
    assert [(s.name, s.parent) for s in t.spans] == [("outer", None), ("double", 0)]
    assert t.spans[1].counts == {"out": 42}
    assert t.spans[0].end >= t.spans[1].end >= t.spans[1].start >= t.spans[0].start


def test_useful_frac():
    k = np.array([4, 10, 256])
    assert bench.useful_frac(k, 256) == pytest.approx((3 + 9 + 255) / (3 * 255))
    assert bench.useful_frac(np.full(5, 256), 256) == 1.0


def test_gate_accepts_estimate_and_rejects_broken_ones(tiny):
    F = run_bmti(PointCloud(tiny.points, tiny.truth_F)).F
    mae, reason = bench.gate(F, tiny, (0.0, 10.0))
    assert reason is None and mae > 0.0
    _, reason = bench.gate(F, tiny, (0.0, mae / 2))
    assert "outside" in reason
    bad = F.copy()
    bad[3] = np.nan
    assert bench.gate(bad, tiny, (0.0, 10.0))[1] == "F is not finite"
    assert "shape" in bench.gate(F[:-1], tiny, (0.0, 10.0))[1]


def test_unordered_pairs_counts_each_pair_once():
    src = np.array([0, 1, 1, 2, 3])
    dst = np.array([1, 0, 2, 1, 0])
    assert bench.unordered_pairs(src, dst, 4) == 3


def test_wrap_keeps_the_result_when_count_cannot_read_it():
    t = bench.Tracer()
    traced = t.wrap(lambda: None, "stage", lambda out: {"n": out.size})
    assert traced() is None
    assert t.spans[0].counts == {}


def test_traced_run_matches_run_bmti_bit_for_bit(tiny):
    import bmti

    modules = {
        name: dict(vars(m)) for name, m in sys.modules.items()
        if name == "bmti" or name.startswith("bmti.")
    }
    cfg = BmtiConfig()
    ref = run_bmti(PointCloud(tiny.points, tiny.truth_F), cfg).F
    tracer = bench.Tracer()
    res = bench.run_traced(PointCloud(tiny.points, tiny.truth_F), cfg, tracer)
    assert np.array_equal(res.F, ref)
    for name, attrs in modules.items():
        assert {k: v for k, v in vars(sys.modules[name]).items()
                if k in bench.STAGE_SPANS} == {
            k: v for k, v in attrs.items() if k in bench.STAGE_SPANS
        }, f"{name} kept a traced stage"
    assert bmti.run_bmti is run_bmti

    # Which stages run is bmti's business; the spans only have to nest.
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "pipeline")
    assert tracer.children(root)
    assert {s.name for s in tracer.spans} <= {"pipeline", *bench.STAGE_SPANS.values()}
    times = bench.stage_times(tracer, 0, 1.0)
    for stage in ("neighborhoods.adaptive_k", "neighborhoods.graph"):
        if stage + ".s" in times:
            assert 0.0 <= times[stage + ".self_s"] <= times[stage + ".s"]
    assert times["pipeline.glue_s"] < 1.0

    counts = bench.result_counts(res, cfg)
    assert set(counts) <= set(bench.PER_LAYER)
    assert counts["intrinsic_dim.d"] == res.d_used
    if "geometry.knn.useful_frac" in counts:
        assert 0.0 < counts["geometry.knn.useful_frac"] <= 1.0


def test_counts_of_a_result_without_their_sources_are_left_out():
    class Result:
        F = np.zeros(4)
        d_used = 2.0

    assert bench.result_counts(Result(), BmtiConfig()) == {"intrinsic_dim.d": 2.0}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_run_refuses_a_checkout_without_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mb2d-5k"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not found" in captured.err
