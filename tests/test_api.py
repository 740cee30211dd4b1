"""The settable surface of the public API and of the CLI, pinned against
literal tables.

Every setting is a configuration the tests must cover, so adding one, or a
default, shows up here as an edit to a table.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import bmti
from bmti.cli import build_parser
from bmti.delta_f import EPS2_MIN

# BmtiConfig's fields and their defaults.
CONFIG_FIELDS = {
    "id_value": None,
    "k_min": 4,
    "k_max": 256,
    "lr_threshold": 23.928,
    "alpha": 1.0,
    "cg_tol": 1e-8,
    "cg_max_iter": None,
    "uncertainties": False,
}

# The keyword parameters with defaults of every public callable (the
# exceptions take a message only). DATASET_DEFAULTS is a table, not a
# callable.
KEYWORD_DEFAULTS = {
    "BaselineEstimate": {},
    "BmtiConfig": CONFIG_FIELDS,
    "BmtiError": {},
    "BmtiResult": {},
    "CapabilityError": {},
    "ConvergenceError": {},
    "DataError": {},
    "DeltaFEdgeSet": {},
    "EvaluationReport": {"error": None},
    "GradientField": {},
    "IntrinsicDim": {},
    "LogDensityEstimate": {},
    "NeighborGraph": {},
    "NumericalError": {},
    "ParameterError": {},
    "PointCloud": {"truth_F": None},
    "Potential": {"bounds_low": None, "bounds_high": None, "period": None},
    "PullStats": {},
    "SolverSystem": {},
    "StateError": {},
    "abramson_k": {},
    "align_and_mae": {"statistic": "mean"},
    "assemble_system": {},
    "build_delta_f_edges": {},
    "build_neighbor_graph": {},
    "calibration_report": {},
    "compute_gradient_field": {},
    "estimate_id_twonn": {},
    "estimate_uncertainties": {},
    "generate_dataset": {"n": None, "beta": None, "seed": 0},
    "gkde_density": {"bandwidth": None},
    "gkde_neg_log_density": {},
    "glassy_density": {},
    "knn_anchor": {},
    "knn_density": {"dist": None},
    "knn_query_all": {"rows": None},
    "make_potential": {"beta": None},
    "mueller_brown": {},
    "parity_export": {},
    "pull_statistics": {},
    "run_benchmark": {"out_json": None, "out_csv": None},
    "run_bmti": {"config": None},
    "sample_mcmc": {"seed": 0},
    "select_adaptive_k": {"lr_threshold": 23.928, "k_min": 4, "k_max": 256},
    "silverman_bandwidth": {},
    "solve_bmti": {"tol": 1e-8, "max_iter": None, "alpha": 1.0, "anchor": None},
    "swiss_roll_embed": {},
    "unit_ball_volume": {},
    "write_report_csv": {},
    "write_report_json": {},
}


def parameters(obj) -> list[inspect.Parameter]:
    if isinstance(obj, type) and issubclass(obj, BaseException):
        # No signature to read; the package's exceptions add no parameter.
        own = [c for c in obj.__mro__ if c.__module__.startswith("bmti")]
        assert not any("__init__" in vars(c) for c in own)
        return []
    return list(inspect.signature(obj).parameters.values())


def test_config_fields_are_pinned():
    fields = dataclasses.fields(bmti.BmtiConfig)
    assert {f.name: f.default for f in fields} == CONFIG_FIELDS
    # The variance floor is a constant, readable from the config.
    assert bmti.BmtiConfig.eps2_min == EPS2_MIN
    assert bmti.BmtiConfig().eps2_min == EPS2_MIN


def test_keyword_defaults_of_the_public_api_are_pinned():
    assert len(bmti.__all__) == 51
    callables = [name for name in bmti.__all__ if name != "DATASET_DEFAULTS"]
    assert set(callables) == set(KEYWORD_DEFAULTS)
    for name in callables:
        params = parameters(getattr(bmti, name))
        got = {p.name: p.default for p in params if p.default is not p.empty}
        assert got == KEYWORD_DEFAULTS[name], name
        # No catch-all passes options through unseen.
        assert not [p for p in params if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


# The options of the CLI commands that run the package, and their defaults
# (None where the option is left to the package's default, or required).
CLI_OPTIONS = {
    "estimate": {
        "--method": None,
        "--input": None,
        "--id": None,
        "--alpha": None,
        "--out": None,
        "--dump-edges": None,
        "--dump-gradients": None,
        "--uncertainties": False,
        "--k": None,
        "--bandwidth": None,
        "--volume-dim": None,
    },
    "generate": {
        "--dataset": None,
        "--beta": None,
        "--n": None,
        "--seed": 0,
        "--out": None,
    },
}


def test_cli_options_are_pinned():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for command, options in CLI_OPTIONS.items():
        actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
        got = {a.option_strings[0]: a.default for a in actions}
        assert got == options, command
