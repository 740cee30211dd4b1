"""Helpers of the bmti benchmark: workloads, tracing, statistics and gates.

Everything here drives bmti from outside, through its public functions. The
traced run (`run_traced`) is a `run_bmti` call whose stage functions are
wrapped in spans, so its F must equal an untraced call's F bit for bit.

numpy and bmti are imported inside the functions that use them, so that
run.py can time `import bmti` from a cold start.
"""

from __future__ import annotations

import functools
import inspect
import os
import platform
import statistics
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def use_repo_source() -> bool:
    """Put the checkout's `src` first on sys.path; False if bmti is not there."""
    if not (SRC / "bmti" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Workload:
    """One benchmark cell: the dataset, its size and the gate.

    `clouds` independent clouds are drawn per run (seeds derived from the
    run's seed), so accuracy is averaged over them and set-up is measured
    several times. `mae_range` is the correctness gate on the run's mean
    MAE, the reported `mae`. Single clouds scatter around that mean (one
    mb2d cloud in 60 gave 0.196), so one call's MAE is held to
    `call_mae_range`, the same range widened by half on each side.
    """

    name: str
    dataset: str
    n: int
    clouds: int
    mae_range: tuple[float, float]
    why: str

    @property
    def call_mae_range(self) -> tuple[float, float]:
        lo, hi = self.mae_range
        return 0.5 * lo, 1.5 * hi


# The gates are acceptance criterion 1's MAE ranges, which it also applies
# to a statistic over several clouds. MAE varies between mb2d clouds, so five
# of them keep its spread between runs under a third of the bound; sixd's
# varies little, and each of its clouds costs about 3 s to set up, so three
# of them give setup_s its median. mb2d-20d n=2000 (the exhaustive kNN path)
# is left out so that these two can run longer: with it, a full pass left
# sixd-20k three timed calls a run, too few for a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mb2d-5k", "mb2d", 5000, 5, (0.08, 0.18),
            "2-d density saturates k, so the graph/overlap kernel and the "
            "gauged PCG (about 400 iterations) dominate",
        ),
        Workload(
            "sixd-20k", "sixd", 20000, 3, (0.18, 0.36),
            "small k but a query at k_max-1: adaptive k, TwoNN's row loop and "
            "the gradient loop dominate; the solve is small",
        ),
    )
}

# Seed 0 is for development; seed 1 is held out for confirming claims.
DEV_SEED = 0
HOLDOUT_SEED = 1

# Metric name -> unit; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "estimate_s": "s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "mae": "nat",
}
PER_LAYER = {
    "geometry.knn.s": "s",
    "geometry.knn.entries": "count",
    "geometry.knn.useful_frac": "ratio",
    "intrinsic_dim.twonn.s": "s",
    "intrinsic_dim.d": "dim",
    "neighborhoods.adaptive_k.s": "s",
    "neighborhoods.adaptive_k.self_s": "s",
    "neighborhoods.graph.s": "s",
    "neighborhoods.graph.self_s": "s",
    "neighborhoods.k_mean": "count",
    "neighborhoods.k_sat_frac": "ratio",
    "neighborhoods.edges": "count",
    "neighborhoods.overlap_pairs": "count",
    "gradients.s": "s",
    "delta_f.edges.s": "s",
    "delta_f.eps2_floor": "count",
    "delta_f.qform_clamped": "count",
    "solver.assemble.s": "s",
    "solver.A_nnz": "count",
    "solver.solve.s": "s",
    "solver.cg_iterations": "count",
    "solver.s_per_iter": "s/iter",
    "pipeline.glue_s": "s",
    "datasets.generate.s": "s",
    "pull_std_err": "ratio",
}


def cloud_seeds(seed: int, count: int) -> list[int]:
    """Dataset seeds of one run; disjoint between run seeds below 1000 clouds."""
    return [seed * 1000 + j for j in range(count)]


# ---------------------------------------------------------------- statistics


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of a sample, as statistics.quantiles gives them."""

    n: int
    median: float
    q1: float
    q3: float


def summarize(values) -> Summary:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    if len(vals) == 1:
        return Summary(1, vals[0], vals[0], vals[0])
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return Summary(len(vals), med, q1, q3)


# ------------------------------------------------------------------- tracing


@dataclass
class Span:
    """One timed call: name, start, end, parent span index and call id."""

    name: str
    start: float
    end: float
    parent: int | None
    call: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; `call` groups the spans of one request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), float("nan"), parent, self.call)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """fn, recording a span per call; count(result) adds span counters.

        A result that count cannot read adds no counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if count is not None:
                try:
                    s.counts.update(count(out))
                except (AttributeError, IndexError, TypeError):
                    pass
            return out

        return traced

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        span = self.spans[index]
        return span.duration - sum(c.duration for c in self.children(index))

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "call": s.call, **s.counts}
            for i, s in enumerate(self.spans)
        ]


# Stage functions of run_bmti at alpha=1, by name, and the span each call
# records. They are traced wherever a loaded bmti module holds them, so calls
# made inside a stage (its kNN queries) nest under it.
STAGE_SPANS = {
    "knn_query_all": "geometry.knn",
    "estimate_id_twonn": "intrinsic_dim.twonn",
    "select_adaptive_k": "neighborhoods.adaptive_k",
    "build_neighbor_graph": "neighborhoods.graph",
    "compute_gradient_field": "gradients",
    "build_delta_f_edges": "delta_f.edges",
    "assemble_system": "solver.assemble",
    "solve_bmti": "solver.solve",
}
SPAN_COUNTS = {
    "geometry.knn": lambda out: {"geometry.knn.entries": int(out[0].size)},
    "solver.assemble": lambda out: {"solver.A_nnz": int(out.A.nnz)},
}


@contextmanager
def traced_stages(tracer: Tracer):
    """Replace every stage function in the loaded bmti modules by a traced one.

    The wrappers return the wrapped results unchanged; the originals are put
    back on exit.
    """
    import bmti  # noqa: F401  (loads the package's modules)

    modules = [
        m for name, m in list(sys.modules.items())
        if name == "bmti" or name.startswith("bmti.")
    ]
    with ExitStack() as patches:
        for module in modules:
            for fn_name, span in STAGE_SPANS.items():
                fn = vars(module).get(fn_name)
                if callable(fn):
                    traced = tracer.wrap(fn, span, SPAN_COUNTS.get(span))
                    patches.enter_context(
                        mock.patch.object(module, fn_name, traced)
                    )
        yield


def run_traced(cloud, cfg, tracer: Tracer):
    """run_bmti with one span per stage call, under a root span "pipeline"."""
    from bmti import run_bmti

    with traced_stages(tracer), tracer.span("pipeline"):
        return run_bmti(cloud, cfg)


def result_counts(result, cfg) -> dict:
    """Layer counts read from a BmtiResult and the config.

    A count whose source the result does not have is left out, so a later
    bmti that drops one still gives the others.
    """
    n = len(result.F)
    cap = min(cfg.k_max, n - 1)
    sources = {
        "intrinsic_dim.d": lambda: float(result.d_used),
        "neighborhoods.edges": lambda: int(result.edges.eps2.size),
        "neighborhoods.overlap_pairs": lambda: unordered_pairs(
            result.edges.src, result.edges.dst, n),
        "neighborhoods.k_mean": lambda: float(result.graph.k.mean()),
        "neighborhoods.k_sat_frac": lambda: float((result.graph.k == cap).mean()),
        "geometry.knn.useful_frac": lambda: useful_frac(result.graph.k, cap),
        "delta_f.eps2_floor": lambda: int((result.edges.eps2 <= cfg.eps2_min).sum()),
        "delta_f.qform_clamped": lambda: int(
            (result.edges.eps_src == 0.0).sum() + (result.edges.eps_dst == 0.0).sum()),
        "solver.cg_iterations": lambda: int(result.estimate.cg_iterations),
    }
    counts = {}
    for name, read in sources.items():
        try:
            counts[name] = read()
        except (AttributeError, TypeError):
            pass
    return counts


def unordered_pairs(src, dst, n: int) -> int:
    """Distinct point pairs joined by at least one directed edge."""
    import numpy as np

    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    return int(np.unique(lo.astype(np.int64) * n + hi).size)


def useful_frac(k, cap: int) -> float:
    """Share of the adaptive-k table (cap-1 columns) that the graph uses."""
    n = len(k)
    return float((k - 1).sum()) / float(n * (cap - 1))


def stage_times(tracer: Tracer, call: int, run_bmti_s: float) -> dict:
    """Per-layer times of one traced call, from its spans.

    A stage time is the sum over the stage's spans; a stage the call did not
    run is left out. run_bmti_s is the paired untraced run_bmti time; what it
    spends outside the stage spans is the glue, the tracing overhead.
    """
    idx = {}
    for i, s in enumerate(tracer.spans):
        if s.call == call:
            idx.setdefault(s.name, []).append(i)

    (root,) = idx.pop("pipeline")
    times = {
        "pipeline.glue_s": run_bmti_s
        - sum(c.duration for c in tracer.children(root)),
    }
    for span, metric, own in (
        ("geometry.knn", "geometry.knn.s", False),
        ("intrinsic_dim.twonn", "intrinsic_dim.twonn.s", False),
        ("neighborhoods.adaptive_k", "neighborhoods.adaptive_k.s", False),
        ("neighborhoods.adaptive_k", "neighborhoods.adaptive_k.self_s", True),
        ("neighborhoods.graph", "neighborhoods.graph.s", False),
        ("neighborhoods.graph", "neighborhoods.graph.self_s", True),
        ("gradients", "gradients.s", False),
        ("delta_f.edges", "delta_f.edges.s", False),
        ("solver.assemble", "solver.assemble.s", False),
        ("solver.solve", "solver.solve.s", True),
    ):
        if span in idx:
            time_of = tracer.self_time if own else (
                lambda i: tracer.spans[i].duration)
            times[metric] = sum(time_of(i) for i in idx[span])
    for span, key in (("geometry.knn", "geometry.knn.entries"),
                      ("solver.assemble", "solver.A_nnz")):
        vals = [tracer.spans[i].counts.get(key) for i in idx.get(span, [])]
        if vals and None not in vals:
            times[key] = sum(vals)
    return times


# --------------------------------------------------------- correctness gate


def gate(F, cloud, mae_range) -> tuple[float | None, str | None]:
    """Check one estimate: finite, one value per point, MAE inside the range.

    Returns (mae, None) when it passes and (mae or None, reason) when not.
    """
    import numpy as np

    from bmti import align_and_mae

    F = np.asarray(F)
    if F.shape != (cloud.n_points,):
        return None, f"F has shape {F.shape}, expected ({cloud.n_points},)"
    if not np.all(np.isfinite(F)):
        return None, "F is not finite"
    _, mae = align_and_mae(F, cloud.truth_F)
    lo, hi = mae_range
    if not lo <= mae <= hi:
        return mae, f"MAE {mae:.4f} outside [{lo}, {hi}]"
    return mae, None


# ------------------------------------------------------------------ machine


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    """Cores, BLAS and its thread settings, versions and the commit."""
    import numpy as np
    import scipy

    import bmti.geometry as geometry

    try:
        kdtree_all_cores = "workers=-1" in inspect.getsource(geometry)
    except (OSError, TypeError):
        kdtree_all_cores = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    env = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "thread_env": env,
        "ckdtree_workers_minus_1": kdtree_all_cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }
