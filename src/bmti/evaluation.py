"""Scoring against ground truth and the benchmark harness.

Estimates carry an arbitrary additive constant, so every score first aligns
predictions to the truth by the mean (or median) offset. The benchmark
driver runs (dataset, method, seed, size) cells independently, records
failures without stopping, and serializes reports to JSON and CSV.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import gkde_density, knn_baseline
from .datasets import DATASET_DEFAULTS, generate_dataset
from .delta_f import calibration_report
from .exceptions import DataError, ParameterError, _integer
from .geometry import PointCloud
from .pipeline import BmtiConfig, run_bmti

SCHEMA_VERSION = 1
METHODS = ("bmti", "knn", "gkde")
# Rows formatted and written at a time by write_csv_columns.
_CSV_ROWS = 1 << 16


@dataclass(frozen=True)
class EvaluationReport:
    """One benchmark cell: what ran, how well, and how long.

    pull_mean/pull_std summarize the edge-difference calibration and exist
    only for bmti; metric fields are None when the cell failed, with the
    failure text in `error`.
    """

    method: str
    dataset: str
    n: int
    D: int | None
    d_used: float | None
    mae: float | None
    aligned_offset: float | None
    pull_mean: float | None
    pull_std: float | None
    runtime_seconds: float
    seed: int
    error: str | None = None


def _as_finite(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or Inf")
    return arr


def align_and_mae(
    predicted, truth, statistic: str = "mean"
) -> tuple[float, float]:
    """Offset that aligns predictions to truth, and the MAE after alignment.

    offset = mean(truth - predicted) (or the median when statistic says so);
    mae = mean |truth - predicted - offset|. The offset absorbs the gauge
    constant of unnormalized log-densities.
    """
    p = _as_finite("predicted", predicted)
    t = _as_finite("truth", truth)
    if p.shape != t.shape:
        raise ParameterError(
            f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} truths"
        )
    if p.size == 0:
        raise DataError("cannot align empty arrays")
    resid = t - p
    if statistic == "mean":
        offset = float(resid.mean())
    elif statistic == "median":
        offset = float(np.median(resid))
    else:
        raise ParameterError(f"statistic must be 'mean' or 'median', got {statistic!r}")
    mae = float(np.abs(resid - offset).mean())
    return offset, mae


def write_csv_columns(path, header: str, line: str, cols) -> None:
    """Write equal-length columns as CSV rows, in the bytes of csv.writer's
    default dialect (CRLF line ends): the header row, then `line`, a
    %-format with its CRLF, applied to each row. Rows are formatted in
    chunks of _CSV_ROWS by one string-format map each."""
    n = len(cols[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        for lo in range(0, n, _CSV_ROWS):
            rows = zip(*(c[lo : lo + _CSV_ROWS].tolist() for c in cols))
            fh.write("".join(map(line.__mod__, rows)))


def parity_export(predicted, truth, path) -> None:
    """Write aligned (truth, prediction) pairs as CSV for parity plotting.

    Header F_true,F_hat_aligned; values at full float precision (%.17g),
    CRLF line ends. Empty inputs produce a header-only file.
    """
    p = _as_finite("predicted", predicted)
    t = _as_finite("truth", truth)
    if p.shape != t.shape:
        raise ParameterError(
            f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} truths"
        )
    offset = float((t - p).mean()) if p.size else 0.0
    write_csv_columns(
        path, "F_true,F_hat_aligned", "%.17g,%.17g\r\n", (t, p + offset)
    )


def _estimate_cell(
    cloud: PointCloud, method: str, params: dict
) -> tuple[np.ndarray, float, float | None, float | None]:
    """Run one estimator; returns (F, d_used, pull_mean, pull_std)."""
    if method == "bmti":
        try:
            cfg = BmtiConfig(**params)
        except TypeError as exc:
            raise ParameterError(f"bad bmti parameters: {exc}") from None
        result = run_bmti(cloud, cfg)
        pull = calibration_report(result.edges, cloud)
        return result.F, result.d_used, pull.mean, pull.std
    if method == "knn":
        est = knn_baseline(
            cloud, params.get("k"), params.get("volume_dim", "embed")
        )
        return est.F, est.params["d"], None, None
    if method == "gkde":
        est = gkde_density(cloud, bandwidth=params.get("bandwidth"))
        return est.F, float(cloud.embed_dim), None, None
    raise ParameterError(f"unknown method {method!r}; expected one of {METHODS}")


def _run_cell(
    dataset: str, method: str, seed: int, n: int | None, params: dict
) -> EvaluationReport:
    n_eff = n
    if n_eff is None and dataset in DATASET_DEFAULTS:
        n_eff = DATASET_DEFAULTS[dataset][0]
    start = time.perf_counter()
    try:
        cloud = generate_dataset(dataset, n=n, seed=seed)
        F_hat, d_used, pull_mean, pull_std = _estimate_cell(cloud, method, params)
        offset, mae = align_and_mae(F_hat, cloud.truth_F)
        return EvaluationReport(
            method=method, dataset=dataset, n=cloud.n_points, D=cloud.embed_dim,
            d_used=d_used, mae=mae, aligned_offset=offset,
            pull_mean=pull_mean, pull_std=pull_std,
            runtime_seconds=time.perf_counter() - start, seed=seed,
        )
    except Exception as exc:
        return EvaluationReport(
            method=method, dataset=dataset, n=int(n_eff or 0), D=None,
            d_used=None, mae=None, aligned_offset=None,
            pull_mean=None, pull_std=None,
            runtime_seconds=time.perf_counter() - start, seed=seed,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_benchmark(
    config: dict,
    out_json: str | None = None,
    out_csv: str | None = None,
) -> list[EvaluationReport]:
    """Run every (dataset, method, seed, size) cell of a benchmark config.

    Config keys: datasets[] and methods[] (required), seeds[] of integers
    (default [0]), sizes[] of integers or None (optional; None uses each
    dataset's default count) and estimator_params{} (per-method mappings of
    keyword arguments). A default applies only to an absent key. Any other
    key, an empty seeds[] or sizes[], and a value of the wrong type (bool
    and float included where an integer belongs) raise ParameterError.
    Cells run one after another, each on every CPU. Failed cells are
    reported with an error tag; the run continues. Reports are written to
    out_json / out_csv when given.
    """
    if not isinstance(config, dict):
        raise ParameterError("benchmark config must be a mapping")
    keys = ("datasets", "methods", "seeds", "sizes", "estimator_params")
    unknown = sorted(str(key) for key in config if key not in keys)
    if unknown:
        raise ParameterError(
            f"unknown benchmark config keys {unknown}; expected {list(keys)}"
        )
    datasets = config.get("datasets")
    methods = config.get("methods")
    if not datasets or not isinstance(datasets, (list, tuple)):
        raise ParameterError("config needs a non-empty datasets[] list")
    if not methods or not isinstance(methods, (list, tuple)):
        raise ParameterError("config needs a non-empty methods[] list")
    for m in methods:
        if m not in METHODS:
            raise ParameterError(f"unknown method {m!r}; expected one of {METHODS}")
    seeds = config.get("seeds", [0])
    sizes = config.get("sizes", [None])
    if not isinstance(seeds, (list, tuple)) or not seeds or not all(
        map(_integer, seeds)
    ):
        raise ParameterError(
            f"seeds must be a non-empty list of integers, got {seeds!r}"
        )
    if not isinstance(sizes, (list, tuple)) or not sizes or not all(
        size is None or _integer(size) for size in sizes
    ):
        raise ParameterError(
            f"sizes must be a non-empty list of integers or None, got {sizes!r}"
        )
    estimator_params = config.get("estimator_params", {})
    if not isinstance(estimator_params, dict):
        raise ParameterError("estimator_params must be a mapping of method to params")
    for m, params in estimator_params.items():
        if not isinstance(params, dict):
            raise ParameterError(
                f"estimator_params[{m!r}] must be a mapping, got {params!r}"
            )

    cells = [
        (ds, m, int(seed), None if size is None else int(size),
         dict(estimator_params.get(m, {})))
        for ds in datasets
        for m in methods
        for seed in seeds
        for size in sizes
    ]
    reports = [_run_cell(*cell) for cell in cells]

    if out_json is not None:
        write_report_json(reports, out_json)
    if out_csv is not None:
        write_report_csv(reports, out_csv)
    return reports


_REPORT_FIELDS = [
    "method", "dataset", "n", "D", "d_used", "mae", "aligned_offset",
    "pull_mean", "pull_std", "runtime_seconds", "seed", "error",
]


def write_report_json(reports: list[EvaluationReport], path) -> None:
    """Serialize reports as {"schema": 1, "reports": [...]}."""
    payload = {"schema": SCHEMA_VERSION, "reports": [asdict(r) for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report_csv(reports: list[EvaluationReport], path) -> None:
    """Summary table, one row per cell; missing values left empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
        writer.writeheader()
        for r in reports:
            row = {k: ("" if v is None else v) for k, v in asdict(r).items()}
            writer.writerow(row)
