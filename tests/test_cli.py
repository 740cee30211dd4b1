"""End-to-end tests of the command-line interface."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_knn_queries, twonn
from oracles import dump_edges_rows

import bmti
from bmti.baselines import knn_density
from bmti.cli import build_parser, main, read_cloud_csv
from bmti.datasets import DATASET_DEFAULTS
from bmti.evaluation import METHODS
from bmti.pipeline import BmtiConfig, run_bmti


def _read_header(path):
    with open(path, newline="") as fh:
        return fh.readline().strip().split(",")


@pytest.fixture(scope="module")
def gauss_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "gauss.csv"
    rc = main(
        ["generate", "--dataset", "gauss2d", "--n", "200", "--seed", "0",
         "--out", str(path)]
    )
    assert rc == 0
    return path


def test_generate_writes_labeled_csv(gauss_csv):
    assert _read_header(gauss_csv) == ["x0", "x1", "F_true"]
    data = np.loadtxt(gauss_csv, delimiter=",", skiprows=1)
    assert data.shape == (200, 3)
    cloud = read_cloud_csv(gauss_csv)
    assert cloud.n_points == 200
    assert cloud.truth_F is not None


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(
            ["generate", "--dataset", "gauss2d", "--n", "50", "--seed", "5",
             "--out", str(path)]
        ) == 0
    assert a.read_text() == b.read_text()


def test_generate_accepts_every_dataset(tmp_path):
    for name in DATASET_DEFAULTS:
        path = tmp_path / f"{name}.csv"
        assert main(
            ["generate", "--dataset", name, "--n", "20", "--out", str(path)]
        ) == 0
        assert read_cloud_csv(path).n_points == 20


def test_estimate_accepts_every_method():
    parser = build_parser()
    for method in METHODS:
        args = parser.parse_args(
            ["estimate", "--method", method, "--input", "x.csv", "--out", "f.csv"]
        )
        assert args.method == method


def test_estimate_bmti_roundtrip(tmp_path, gauss_csv, capsys):
    out = tmp_path / "f.csv"
    edges_csv = tmp_path / "edges.csv"
    grads_csv = tmp_path / "grads.csv"
    rc = main(
        ["estimate", "--method", "bmti", "--input", str(gauss_csv),
         "--id", "2.0", "--out", str(out),
         "--dump-edges", str(edges_csv), "--dump-gradients", str(grads_csv)]
    )
    assert rc == 0
    assert _read_header(out) == ["F_hat", "k_i"]
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (200, 2)
    assert np.all(table[:, 1] >= 4)  # adaptive k floor

    assert _read_header(edges_csv) == ["i", "j", "delta_f", "eps2", "pearson"]
    with open(edges_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) > 200
    eps2 = np.array([float(r[3]) for r in rows])
    assert np.all(eps2 > 0.0)

    assert _read_header(grads_csv) == ["g0", "g1"]
    grads = np.loadtxt(grads_csv, delimiter=",", skiprows=1)
    assert grads.shape == (200, 2)

    rc = main(
        ["evaluate", "--pred", str(out), "--truth", str(gauss_csv)]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    stats = {
        k.strip(): v.strip() for k, v in
        (ln.split(":") for ln in lines if ":" in ln)
    }
    assert stats["n"] == "200"
    assert float(stats["mae"]) < 1.0


def test_estimate_bmti_uncertainties(tmp_path, gauss_csv):
    out = tmp_path / "f.csv"
    rc = main(
        ["estimate", "--method", "bmti", "--input", str(gauss_csv),
         "--id", "2.0", "--uncertainties", "--out", str(out)]
    )
    assert rc == 0
    assert _read_header(out) == ["F_hat", "sigma_F", "k_i"]
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(table[:, 1] > 0.0)


def test_estimate_uncertainties_need_pure_integration(tmp_path, gauss_csv, capsys):
    rc = main(
        ["estimate", "--method", "bmti", "--input", str(gauss_csv),
         "--alpha", "0.5", "--uncertainties", "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_knn_and_gkde(tmp_path, gauss_csv):
    knn_out = tmp_path / "knn.csv"
    rc = main(
        ["estimate", "--method", "knn", "--input", str(gauss_csv),
         "--k", "8", "--id", "2.0", "--out", str(knn_out)]
    )
    assert rc == 0
    assert _read_header(knn_out) == ["F_hat"]
    assert np.loadtxt(knn_out, delimiter=",", skiprows=1).shape == (200,)

    gkde_out = tmp_path / "gkde.csv"
    rc = main(
        ["estimate", "--method", "gkde", "--input", str(gauss_csv),
         "--bandwidth", "0.3", "--out", str(gkde_out)]
    )
    assert rc == 0
    assert np.loadtxt(gkde_out, delimiter=",", skiprows=1).shape == (200,)


def test_estimate_knn_intrinsic_dim_flag(tmp_path, gauss_csv):
    out = tmp_path / "knn_id.csv"
    rc = main(
        ["estimate", "--method", "knn", "--input", str(gauss_csv),
         "--volume-dim", "id", "--out", str(out)]
    )
    assert rc == 0


def test_estimate_knn_id_queries_one_table(tmp_path, gauss_csv, monkeypatch):
    out = tmp_path / "knn_id.csv"
    widths = count_knn_queries(monkeypatch)
    rc = main(
        ["estimate", "--method", "knn", "--input", str(gauss_csv),
         "--volume-dim", "id", "--k", "9", "--out", str(out)]
    )
    assert rc == 0
    assert widths == [9]
    monkeypatch.undo()
    cloud = read_cloud_csv(gauss_csv)
    want = knn_density(cloud, twonn(cloud).d, 9).F
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(got, want)  # %.17g round-trips every double


def test_dump_edges_bytes_match_row_writer(tmp_path, gauss_csv, monkeypatch):
    monkeypatch.setattr("bmti.evaluation._CSV_ROWS", 100)  # several chunks
    out = tmp_path / "edges.csv"
    rc = main(
        ["estimate", "--method", "bmti", "--input", str(gauss_csv),
         "--id", "2.0", "--out", str(tmp_path / "f.csv"), "--dump-edges", str(out)]
    )
    assert rc == 0
    edges = run_bmti(read_cloud_csv(gauss_csv), BmtiConfig(id_value=2.0)).edges
    assert edges.n_edges > 300
    dump_edges_rows(edges, tmp_path / "rows.csv")
    assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_estimate_works_without_truth_column(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "plain.csv"
    np.savetxt(path, rng.normal(size=(80, 2)), delimiter=",",
               header="x0,x1", comments="")
    out = tmp_path / "f.csv"
    rc = main(
        ["estimate", "--method", "knn", "--input", str(path),
         "--k", "6", "--out", str(out)]
    )
    assert rc == 0


def test_bmti_only_flags_rejected_for_baselines(tmp_path, gauss_csv, capsys):
    rc = main(
        ["estimate", "--method", "gkde", "--input", str(gauss_csv),
         "--dump-edges", str(tmp_path / "e.csv"), "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 2
    assert "bmti method only" in capsys.readouterr().err


def test_benchmark_command(tmp_path, capsys):
    config = {"datasets": ["gauss2d"], "methods": ["gkde"], "sizes": [80]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_json = tmp_path / "report.json"
    rc = main(["benchmark", "--config", str(cfg_path), "--out", str(out_json)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "1/1 cells succeeded" in captured
    with open(out_json) as fh:
        payload = json.load(fh)
    assert payload["schema"] == 1
    # The CSV summary lands next to the JSON by default.
    assert (tmp_path / "report.csv").exists()


def test_benchmark_failed_cells_set_exit_code(tmp_path):
    config = {"datasets": ["gauss2d"], "methods": ["knn"], "sizes": [1]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["benchmark", "--config", str(cfg_path),
               "--out", str(tmp_path / "report.json")])
    assert rc == 1


def test_errors_go_to_stderr_with_nonzero_exit(tmp_path, capsys):
    # Missing input file.
    rc = main(["estimate", "--method", "knn",
               "--input", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    # Malformed header.
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n")
    rc = main(["estimate", "--method", "knn", "--input", str(bad),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    # Empty file.
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main(["estimate", "--method", "knn", "--input", str(empty),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2


def test_argparse_rejects_bad_flags(tmp_path, gauss_csv):
    with pytest.raises(SystemExit):
        main(["generate", "--dataset", "heptagon", "--out", str(tmp_path / "x.csv")])
    with pytest.raises(SystemExit):
        main(["estimate", "--method", "bmti", "--input", str(gauss_csv),
              "--id", "abc", "--out", str(tmp_path / "f.csv")])
    with pytest.raises(SystemExit):
        main([])


def test_evaluate_median_statistic(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    np.savetxt(pred, np.zeros(5), header="F_hat", comments="")
    np.savetxt(truth, np.array([0.0, 0.0, 0.0, 0.0, 10.0]),
               header="F_true", comments="")
    rc = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
               "--statistic", "median"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "offset: 0" in out


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes longer to import than the rest of bmti together; only
    # delta_f.pull_statistics needs it, and it imports it on call.
    code = "import sys, bmti, bmti.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(bmti.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
