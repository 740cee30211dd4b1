"""Tests for alignment, pull statistics, parity export and the benchmark runner."""

import csv
import json

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import count_knn_queries, twonn
from oracles import parity_export_rows

from bmti.baselines import abramson_k, knn_density
from bmti.datasets import generate_dataset
from bmti.delta_f import pull_statistics
from bmti.exceptions import DataError, ParameterError
from bmti.evaluation import (
    SCHEMA_VERSION,
    _estimate_cell,
    align_and_mae,
    parity_export,
    run_benchmark,
)


def test_align_exact_match():
    truth = np.array([1.0, -2.0, 0.5, 3.0])
    offset, mae = align_and_mae(truth, truth)
    assert offset == 0.0
    assert mae == 0.0


def test_align_absorbs_constant_shift():
    truth = np.array([1.0, -2.0, 0.5, 3.0])
    offset, mae = align_and_mae(truth - 7.0, truth)
    assert offset == pytest.approx(7.0, rel=1e-15)
    assert mae == pytest.approx(0.0, abs=1e-12)


def test_align_symmetric_residuals():
    truth = np.zeros(4)
    predicted = np.array([1.0, -1.0, 1.0, -1.0])
    offset, mae = align_and_mae(predicted, truth)
    assert offset == 0.0
    assert mae == 1.0


def test_align_median_statistic():
    truth = np.array([0.0, 0.0, 0.0, 10.0])
    predicted = np.zeros(4)
    offset_mean, mae_mean = align_and_mae(predicted, truth, statistic="mean")
    assert offset_mean == pytest.approx(2.5)
    assert mae_mean == pytest.approx(3.75)
    offset_med, mae_med = align_and_mae(predicted, truth, statistic="median")
    assert offset_med == pytest.approx(0.0)
    assert mae_med == pytest.approx(2.5)


def test_align_gauge_invariance():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=50)
    predicted = truth + rng.normal(scale=0.3, size=50)
    _, mae0 = align_and_mae(predicted, truth)
    for shift in (-1e6, -3.2, 11.0, 2e5):
        _, mae = align_and_mae(predicted + shift, truth)
        assert mae == pytest.approx(mae0, rel=1e-9)


def test_align_validation():
    with pytest.raises(ParameterError):
        align_and_mae(np.zeros(3), np.zeros(4))
    with pytest.raises(DataError):
        align_and_mae(np.array([]), np.array([]))
    with pytest.raises(DataError):
        align_and_mae(np.array([np.nan, 1.0]), np.zeros(2))
    with pytest.raises(ParameterError):
        align_and_mae(np.zeros(3), np.zeros(3), statistic="mode")


def test_parity_export_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    truth = rng.normal(size=12)
    predicted = truth - 3.25 + rng.normal(scale=0.1, size=12)
    path = tmp_path / "parity.csv"
    parity_export(predicted, truth, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["F_true", "F_hat_aligned"]
    assert len(rows) == 13
    got_t = np.array([float(r[0]) for r in rows[1:]])
    got_p = np.array([float(r[1]) for r in rows[1:]])
    offset = (truth - predicted).mean()
    # %.17g round-trips doubles exactly.
    assert np.array_equal(got_t, truth)
    assert np.array_equal(got_p, predicted + offset)


def test_parity_export_empty(tmp_path):
    path = tmp_path / "empty.csv"
    parity_export(np.array([]), np.array([]), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["F_true", "F_hat_aligned"]]


@pytest.mark.parametrize("n", [0, 1, 23])
def test_parity_export_bytes_match_row_writer(tmp_path, monkeypatch, n):
    monkeypatch.setattr("bmti.evaluation._CSV_ROWS", 5)  # several chunks
    rng = np.random.default_rng(n)
    truth = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    predicted = truth + rng.normal(size=n)
    truth[: n // 3] = -0.0
    parity_export(predicted, truth, tmp_path / "chunked.csv")
    parity_export_rows(predicted, truth, tmp_path / "rows.csv")
    got = (tmp_path / "chunked.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\r\n") == n + 1


def test_parity_export_length_mismatch(tmp_path):
    with pytest.raises(ParameterError):
        parity_export(np.zeros(2), np.zeros(3), tmp_path / "x.csv")


def test_pull_statistics_exact_predictions():
    truth = np.array([1.0, 2.0, 3.0])
    mean, std, _ = pull_statistics(truth, np.ones(3), truth)
    assert mean == 0.0
    assert std == 0.0


def test_pull_statistics_standard_normal_residuals():
    rng = np.random.default_rng(17)
    z = rng.standard_normal(4000)
    truth = rng.normal(size=4000)
    errors = rng.uniform(0.5, 2.0, size=4000)
    values = truth + z * errors
    mean, std, ks = pull_statistics(values, errors, truth)
    assert abs(mean) < 0.05
    assert 0.95 < std < 1.05
    assert ks == pytest.approx(kstest(z, "norm").statistic, rel=1e-12)
    assert ks < 0.03


def test_pull_statistics_detects_overconfidence():
    rng = np.random.default_rng(21)
    truth = np.zeros(2000)
    values = rng.standard_normal(2000) * 3.0
    _, std, _ = pull_statistics(values, np.ones(2000), truth)
    assert std > 2.5


def test_pull_statistics_validation():
    with pytest.raises(ParameterError):
        pull_statistics(np.zeros(3), np.ones(4), np.zeros(3))
    with pytest.raises(ParameterError):
        pull_statistics(np.zeros(3), np.array([1.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ParameterError):
        pull_statistics(np.zeros(3), np.array([1.0, -1.0, 1.0]), np.zeros(3))
    with pytest.raises(DataError):
        pull_statistics(np.array([]), np.array([]), np.array([]))


@pytest.fixture(scope="module")
def small_benchmark():
    config = {
        "datasets": ["gauss2d"],
        "methods": ["bmti", "knn", "gkde"],
        "seeds": [0, 1, 2],
        "sizes": [260],
    }
    return run_benchmark(config)


def test_benchmark_grid_shape(small_benchmark):
    assert len(small_benchmark) == 9
    combos = {(r.method, r.seed) for r in small_benchmark}
    assert combos == {(m, s) for m in ("bmti", "knn", "gkde") for s in (0, 1, 2)}
    for r in small_benchmark:
        assert r.error is None
        assert r.dataset == "gauss2d"
        assert r.n == 260
        assert r.D == 2
        assert r.mae is not None and np.isfinite(r.mae) and r.mae > 0.0
        assert r.runtime_seconds >= 0.0


def test_benchmark_pull_fields_only_for_bmti(small_benchmark):
    for r in small_benchmark:
        if r.method == "bmti":
            assert r.pull_mean is not None and r.pull_std is not None
        else:
            assert r.pull_mean is None and r.pull_std is None
        if r.method in ("knn", "gkde"):
            assert r.d_used == 2.0


def test_benchmark_knn_intrinsic_dimension_option():
    config = {
        "datasets": ["gauss2d"],
        "methods": ["knn"],
        "sizes": [300],
        "estimator_params": {"knn": {"volume_dim": "id"}},
    }
    (report,) = run_benchmark(config)
    assert report.error is None
    assert 1.5 < report.d_used < 2.6


@pytest.mark.parametrize("k", [1, 7, None])
def test_knn_baseline_with_intrinsic_dimension_queries_one_table(monkeypatch, k):
    cloud = generate_dataset("gauss2d", n=300, seed=2)
    params = {"volume_dim": "id"} if k is None else {"volume_dim": "id", "k": k}
    widths = count_knn_queries(monkeypatch)
    F, d, _, _ = _estimate_cell(cloud, "knn", params)
    k_used = abramson_k(300, 2) if k is None else k
    assert widths == [max(k_used, 2)]
    monkeypatch.undo()
    # The two tables of TwoNN and the baseline, queried separately.
    d_ref = twonn(cloud).d
    assert d == d_ref
    assert np.array_equal(F, knn_density(cloud, d_ref, k_used).F)


def test_benchmark_failed_cell_is_tagged_and_run_continues():
    config = {
        "datasets": ["gauss2d"],
        "methods": ["knn"],
        "sizes": [1, 120],
    }
    reports = run_benchmark(config)
    assert len(reports) == 2
    failed = [r for r in reports if r.error is not None]
    ok = [r for r in reports if r.error is None]
    assert len(failed) == 1 and len(ok) == 1
    assert "DataError" in failed[0].error
    assert failed[0].mae is None
    assert ok[0].n == 120


def test_benchmark_bad_volume_dim_becomes_cell_error():
    config = {
        "datasets": ["gauss2d"],
        "methods": ["knn"],
        "sizes": [64],
        "estimator_params": {"knn": {"volume_dim": "both"}},
    }
    (report,) = run_benchmark(config)
    assert report.error is not None
    assert "ParameterError" in report.error


def test_benchmark_config_validation():
    with pytest.raises(ParameterError):
        run_benchmark(["gauss2d"])
    with pytest.raises(ParameterError):
        run_benchmark({"methods": ["knn"]})
    with pytest.raises(ParameterError):
        run_benchmark({"datasets": ["gauss2d"]})
    with pytest.raises(ParameterError):
        run_benchmark({"datasets": ["gauss2d"], "methods": ["histogram"]})
    with pytest.raises(ParameterError):
        run_benchmark(
            {"datasets": ["gauss2d"], "methods": ["knn"],
             "estimator_params": ["knn"]}
        )
    # Unknown keys (a misspelt "seeds", a "workers" count) fail before any
    # cell runs, and the error names each of them.
    with pytest.raises(ParameterError, match=r"\['seed', 'workers'\]"):
        run_benchmark(
            {"datasets": ["gauss2d"], "methods": ["knn"], "workers": 2,
             "seed": [0]}
        )


_KNN_CELLS = {"datasets": ["gauss2d"], "methods": ["knn"]}


@pytest.mark.parametrize(
    "key, value",
    [
        ("seeds", "12"),
        ("seeds", [1.7]),
        ("seeds", [0, True]),
        ("seeds", 3),
        ("seeds", []),
        ("seeds", 0),
        ("seeds", None),
        ("sizes", [300.0]),
        ("sizes", [None, False]),
        ("sizes", "300"),
        ("sizes", []),
        ("sizes", 0),
        ("estimator_params", {"knn": 5}),
        ("estimator_params", {"knn": [("k", 5)]}),
        ("estimator_params", []),
        ("estimator_params", 0),
    ],
    ids=lambda v: repr(v),
)
def test_benchmark_config_value_types(monkeypatch, key, value):
    cells = []
    monkeypatch.setattr("bmti.evaluation._run_cell", lambda *cell: cells.append(cell))
    with pytest.raises(ParameterError, match=key):
        run_benchmark({**_KNN_CELLS, key: value})
    assert cells == []


def test_benchmark_config_accepts_integer_seeds_and_sizes(monkeypatch):
    cells = []
    monkeypatch.setattr("bmti.evaluation._run_cell", lambda *cell: cells.append(cell))
    run_benchmark(
        {**_KNN_CELLS, "seeds": [np.int64(4), 2], "sizes": [None, 300],
         "estimator_params": {"knn": {"k": 5}}}
    )
    assert [(seed, n) for _, _, seed, n, _ in cells] == [
        (4, None), (4, 300), (2, None), (2, 300)
    ]
    assert all(params == {"k": 5} for *_, params in cells)


def test_benchmark_report_files(tmp_path, small_benchmark):
    config = {
        "datasets": ["gauss2d"],
        "methods": ["gkde"],
        "sizes": [80],
    }
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    reports = run_benchmark(config, out_json=json_path, out_csv=csv_path)
    with open(json_path) as fh:
        payload = json.load(fh)
    assert payload["schema"] == SCHEMA_VERSION
    assert len(payload["reports"]) == len(reports)
    entry = payload["reports"][0]
    for key in ("method", "dataset", "n", "mae", "runtime_seconds", "seed", "error"):
        assert key in entry
    assert entry["method"] == "gkde"
    assert entry["error"] is None
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["method", "dataset", "n", "D"]
    assert len(rows) == 1 + len(reports)
    assert rows[1][0] == "gkde"
    # Missing values serialize as empty cells.
    assert rows[1][rows[0].index("pull_mean")] == ""
