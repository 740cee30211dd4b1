"""Command-line interface: generate, estimate, benchmark, evaluate.

File formats are stable: coordinate CSVs carry a header x0..x{D-1} with an
optional trailing F_true column; estimate outputs carry F_hat with optional
sigma_F and k_i columns in input row order.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .datasets import DATASET_DEFAULTS, generate_dataset
from .evaluation import (
    METHODS,
    align_and_mae,
    run_benchmark,
    run_method,
    write_csv_columns,
)
from .exceptions import BmtiError, DataError, ParameterError
from .geometry import PointCloud
from .solver import UNCERTAINTY_CAP

_FLOAT_FMT = "%.17g"


def read_cloud_csv(path) -> PointCloud:
    """Load a coordinate CSV (header x0..x{D-1}[,F_true]) as a PointCloud."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if not header:
        raise DataError(f"{path}: empty file")
    names = [h.strip() for h in header.split(",")]
    has_truth = names[-1] == "F_true"
    coords = names[:-1] if has_truth else names
    expected = [f"x{i}" for i in range(len(coords))]
    if not coords or coords != expected:
        raise DataError(
            f"{path}: expected header x0,...,x{{D-1}}[,F_true], got {header!r}"
        )
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(names):
        raise DataError(
            f"{path}: {data.shape[1]} columns in body vs {len(names)} in header"
        )
    truth = data[:, -1] if has_truth else None
    points = data[:, : len(coords)]
    return PointCloud(points=points, truth_F=truth)


def write_cloud_csv(cloud: PointCloud, path) -> None:
    """Write points (and truth when present) in the generate format."""
    names = [f"x{i}" for i in range(cloud.embed_dim)]
    cols = [cloud.points]
    if cloud.truth_F is not None:
        names.append("F_true")
        cols.append(cloud.truth_F[:, None])
    np.savetxt(
        path, np.hstack(cols), delimiter=",", comments="",
        header=",".join(names), fmt=_FLOAT_FMT,
    )


def _read_f_column(path) -> np.ndarray:
    """Read the value column of an estimate/truth CSV (F_hat, F_true or F)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if not header:
        raise DataError(f"{path}: empty file")
    names = [h.strip() for h in header.split(",")]
    col = None
    for candidate in ("F_hat", "F_true", "F"):
        if candidate in names:
            col = names.index(candidate)
            break
    if col is None:
        if len(names) == 1:
            col = 0
        else:
            raise DataError(
                f"{path}: no F_hat/F_true/F column in header {header!r}"
            )
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=col, ndmin=1)
    return np.asarray(data, dtype=np.float64)


def _id_argument(text: str):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--id must be 'auto' or a number, got {text!r}"
        ) from None


def _cmd_generate(args) -> int:
    cloud = generate_dataset(args.dataset, n=args.n, beta=args.beta, seed=args.seed)
    write_cloud_csv(cloud, args.out)
    print(f"wrote {cloud.n_points} points of {args.dataset} to {args.out}")
    return 0


def _dump_edges(edges, path) -> None:
    """Write one CSV row per edge, in the bytes of csv.writer's default
    dialect, with _FLOAT_FMT cells."""
    write_csv_columns(
        path, "i,j,delta_f,eps2,pearson",
        f"%d,%d,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT}\r\n",
        (edges.src, edges.dst, edges.delta_f, edges.eps2, edges.pearson),
    )


def _dump_gradients(gradients, path) -> None:
    dim = gradients.g.shape[1]
    np.savetxt(
        path, gradients.g, delimiter=",", comments="",
        header=",".join(f"g{i}" for i in range(dim)), fmt=_FLOAT_FMT,
    )


# The estimate flags a method reads: for each flag's dest, the methods and
# the parameter it sets for each (None for the dumps, which set none).
_FLAG_PARAMS = {
    "id": {"bmti": "id_value", "knn": "d"},
    "alpha": {"bmti": "alpha"},
    "uncertainties": {"bmti": "uncertainties"},
    "dump_edges": {"bmti": None},
    "dump_gradients": {"bmti": None},
    "k": {"knn": "k"},
    "volume_dim": {"knn": "volume_dim"},
    "bandwidth": {"gkde": "bandwidth"},
}


def _method_params(args) -> dict:
    """The parameters the given flags set for args.method; a flag the
    method does not read raises ParameterError."""
    params = {}
    for dest, names in _FLAG_PARAMS.items():
        value = getattr(args, dest)
        if value is None or value is False:
            continue
        if args.method not in names:
            flag = "--" + dest.replace("_", "-")
            raise ParameterError(f"{flag} applies to the {'/'.join(names)} method only")
        if names[args.method] is not None:
            params[names[args.method]] = value
    return params


def _cmd_estimate(args) -> int:
    params = _method_params(args)
    cloud = read_cloud_csv(args.input)
    F, d_used, result = run_method(cloud, args.method, params)

    names, cols = ["F_hat"], [F]
    if result is not None:
        if result.estimate.var_F is not None:
            names.append("sigma_F")
            cols.append(np.sqrt(result.estimate.var_F))
        names.append("k_i")
        cols.append(result.graph.k.astype(np.float64))
        if args.dump_edges:
            _dump_edges(result.edges, args.dump_edges)
        if args.dump_gradients:
            _dump_gradients(result.gradients, args.dump_gradients)

    np.savetxt(
        args.out, np.column_stack(cols), delimiter=",", comments="",
        header=",".join(names), fmt=_FLOAT_FMT,
    )
    print(
        f"estimated {cloud.n_points} points with {args.method} "
        f"(d = {d_used:.3g}) -> {args.out}"
    )
    return 0


def _cmd_benchmark(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    out_csv = args.out_csv
    if out_csv is None:
        out = str(args.out)
        out_csv = (out[: -len(".json")] if out.endswith(".json") else out) + ".csv"
    reports = run_benchmark(config, out_json=args.out, out_csv=out_csv)
    failed = 0
    for r in reports:
        if r.error is None:
            print(
                f"{r.dataset:>12} {r.method:>5} seed={r.seed} n={r.n} "
                f"mae={r.mae:.4f} ({r.runtime_seconds:.1f}s)"
            )
        else:
            failed += 1
            print(
                f"{r.dataset:>12} {r.method:>5} seed={r.seed} n={r.n} "
                f"ERROR {r.error}"
            )
    print(f"{len(reports) - failed}/{len(reports)} cells succeeded -> {args.out}")
    return 1 if failed else 0


def _cmd_evaluate(args) -> int:
    predicted = _read_f_column(args.pred)
    truth = _read_f_column(args.truth)
    offset, mae = align_and_mae(predicted, truth, statistic=args.statistic)
    print(f"n: {predicted.shape[0]}")
    print(f"offset: {offset:.6g}")
    print(f"mae: {mae:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmti",
        description="Nonparametric log-density estimation by graph-integrated "
        "neighbourhood gradients, with baselines and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a benchmark dataset to CSV")
    g.add_argument("--dataset", required=True, choices=list(DATASET_DEFAULTS))
    g.add_argument("--beta", type=float, default=None,
                   help="inverse temperature (dataset default when omitted)")
    g.add_argument("--n", type=int, default=None,
                   help="sample count (dataset default when omitted)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("estimate", help="estimate F for a coordinate CSV")
    e.add_argument("--method", required=True, choices=METHODS)
    e.add_argument("--input", required=True)
    e.add_argument("--id", type=_id_argument, default=None,
                   help="'auto' (TwoNN, default) or a fixed intrinsic dimension")
    e.add_argument("--alpha", type=float, default=None,
                   help="bmti anchor blending; 1 (default) = pure edge "
                   "integration")
    e.add_argument("--out", required=True)
    e.add_argument("--dump-edges", default=None, metavar="CSV",
                   help="also write per-edge differences (bmti only)")
    e.add_argument("--dump-gradients", default=None, metavar="CSV",
                   help="also write per-point gradients (bmti only)")
    e.add_argument("--uncertainties", action="store_true",
                   help="add sigma_F (bmti only; dense, so at most "
                   f"{UNCERTAINTY_CAP} points)")
    e.add_argument("--k", type=int, default=None,
                   help="neighbour count for knn (Abramson rule when omitted)")
    e.add_argument("--bandwidth", type=float, default=None,
                   help="gkde bandwidth (Silverman rule when omitted)")
    e.add_argument("--volume-dim", choices=["id", "embed"], default=None,
                   help="dimension for knn ball volumes when --id is auto "
                   "(default embed)")
    e.set_defaults(func=_cmd_estimate)

    b = sub.add_parser("benchmark", help="run a benchmark config")
    b.add_argument("--config", required=True, help="JSON benchmark description")
    b.add_argument("--out", required=True, help="JSON report path")
    b.add_argument("--out-csv", default=None,
                   help="CSV summary path (default: out with .csv)")
    b.set_defaults(func=_cmd_benchmark)

    v = sub.add_parser("evaluate", help="aligned MAE of predictions vs truth")
    v.add_argument("--pred", required=True)
    v.add_argument("--truth", required=True)
    v.add_argument("--statistic", choices=["mean", "median"], default="mean",
                   help="alignment statistic")
    v.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BmtiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
