"""Scalar references for the vectorized stage kernels, the sampler and the
file writers.

knn_query answers the kNN query for one point, as knn_query_all does for
many. Each function below computes, for one point or one edge, straight
from the definitions and the neighbour lists (neighbors), an entry of what
build_neighbor_graph, compute_gradient_field or build_delta_f_edges compute
for all of them at once (edge_src lists each edge's source, which the graph
keeps only as row starts); laplacian_system adds up the solver's matrix one
edge at a time, and component_labels joins the solver's components one edge
at a time; dump_edges_rows writes `bmti estimate --dump-edges` and
parity_export_rows writes evaluation.parity_export one csv row at a time.
mueller_brown adds the surface up one term at a time, glassy_density
broadcasts over both coordinates at once, and sample_mcmc takes each
Metropolis step with boolean-mask updates over every axis. The tests compare
the two. stage_peaks is a measuring tool, not a reference: it runs run_bmti
under tracemalloc and reports each stage's peak.
"""

from __future__ import annotations

import csv
import gc
import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np

from bmti.datasets import (
    _GLASSY_BUMP_NORM,
    _GLASSY_GAUSS_MASS,
    _GLASSY_GAUSS_SIGMA2,
    _GLASSY_PERIOD,
    _MB_CENTER,
    _MB_COEF,
    _MB_QUAD,
    Potential,
    _min_image,
)
from bmti.delta_f import _QFORM_RTOL, EPS2_MIN
from bmti.exceptions import DataError, ParameterError
from bmti.geometry import PointCloud, _query_one
from bmti.gradients import GradientField
from bmti.neighborhoods import NeighborGraph
from bmti.pipeline import run_bmti


# Nearest neighbours of one point.


@dataclass(frozen=True)
class NeighborQueryResult:
    """Neighbours of one query point, nearest first, the point itself excluded."""

    indices: np.ndarray
    distances: np.ndarray


def knn_query(cloud: PointCloud, i: int, k: int) -> NeighborQueryResult:
    """Exact k nearest neighbours of point i, self excluded.

    Ties are broken by the lower point index. Raises ParameterError for k
    outside [1, n-1] or i out of range.
    """
    n = cloud.n_points
    if not 0 <= i < n:
        raise ParameterError(f"point index {i} out of range for {n} points")
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must be in [1, {n - 1}], got {k}")
    idx, dist = _query_one(cloud, i, k)
    return NeighborQueryResult(indices=idx, distances=dist)


# Neighbourhood overlaps.


def edge_src(graph: NeighborGraph) -> np.ndarray:
    """The source of every edge of the graph's CSR edge list: i, k[i] - 1
    times, in point order."""
    return np.repeat(np.arange(graph.n_points), graph.k - 1)


def neighbors(graph: NeighborGraph, i: int) -> np.ndarray:
    """The k[i] - 1 nearest neighbours of i, nearest first: row i of the
    graph's CSR edge list, a view into edge_dst."""
    start = int((graph.k[:i] - 1).sum())
    return graph.edge_dst[start : start + int(graph.k[i]) - 1]


def overlap_count(graph: NeighborGraph, i: int, j: int) -> int:
    """|Omega_i & Omega_j| with centres counted, from the neighbour lists."""
    if i == j:
        return int(graph.k[i])
    a = set(neighbors(graph, i).tolist())
    a.add(i)
    b = set(neighbors(graph, j).tolist())
    b.add(j)
    return len(a & b)


def jaccard_overlap(graph: NeighborGraph, i: int, j: int) -> float:
    """Neighbourhood Jaccard index k_ij / (k_i + k_j - k_ij), in [0, 1]."""
    n = graph.n_points
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError("point index out of range")
    if i == j:
        return 1.0
    kij = overlap_count(graph, i, j)
    return kij / float(graph.k[i] + graph.k[j] - kij)


# Mean shifts, gradients and their covariances.


def _check_point(graph: NeighborGraph, i: int) -> None:
    if not 0 <= i < graph.n_points:
        raise ParameterError(f"point index {i} out of range")


def sample_mean_shift(graph: NeighborGraph, cloud: PointCloud, i: int) -> np.ndarray:
    """Average displacement from point i to its listed neighbours."""
    _check_point(graph, i)
    nb = neighbors(graph, i)
    return (cloud.points[nb] - cloud.points[i]).mean(axis=0)


def estimate_gradient(
    graph: NeighborGraph, cloud: PointCloud, d: float, i: int
) -> np.ndarray:
    """Gradient of F at point i: -(d+2)/r^2 times the mean shift."""
    _check_point(graph, i)
    r = graph.radii[i]
    if r <= 0.0:
        raise DataError(f"point {i} has zero neighbourhood radius")
    return -(d + 2.0) / (r * r) * sample_mean_shift(graph, cloud, i)


def gradient_autocovariance(
    graph: NeighborGraph, cloud: PointCloud, d: float, i: int
) -> np.ndarray:
    """Covariance estimate of the gradient at point i.

    With m = k_i - 1 neighbour shifts y_j and their mean m_hat,

        var[g_i] = ((d+2)/r^2)^2 * 1/(k_i-2) * [sum y y^T / m - m_hat m_hat^T],

    the bracket being the (biased) sample covariance of the shifts and the
    1/(k_i-2) Bessel-style factor accounting for the estimated mean. Needs
    k_i >= 4. The result is symmetric positive semidefinite.
    """
    _check_point(graph, i)
    k = int(graph.k[i])
    if k < 4:
        raise ParameterError(f"autocovariance needs k >= 4, point {i} has k = {k}")
    r = graph.radii[i]
    if r <= 0.0:
        raise DataError(f"point {i} has zero neighbourhood radius")
    y = cloud.points[neighbors(graph, i)] - cloud.points[i]
    m_hat = y.mean(axis=0)
    yc = y - m_hat
    bracket = yc.T @ yc / (k - 1)
    pref = ((d + 2.0) / (r * r)) ** 2 / (k - 2)
    cov = pref * bracket
    return 0.5 * (cov + cov.T)


def shift_cross_covariance(
    graph: NeighborGraph, cloud: PointCloud, i: int, j: int
) -> np.ndarray:
    """Covariance between the mean shifts at points i and j.

    Points common to Omega_i and Omega_j correlate the two means. Treating
    the sample as a Poisson process and linearizing each mean in its terms,
    every shared point contributes the product of its two centred shifts:
    with S the shared points (the two centres excluded) and m_hat the two
    mean shifts,

        cov[m_i, m_j] = 1/((k_i-1)(k_j-1))
                        * sum_S (x - x_i - m_hat_i)(x - x_j - m_hat_j)^T.

    Returns the zero matrix when the neighbourhoods share no points. For
    i = j this is the shift autocovariance without its Bessel factor.
    """
    _check_point(graph, i)
    _check_point(graph, j)
    dim = cloud.embed_dim
    omega_i = set(neighbors(graph, i).tolist()) | {i}
    omega_j = set(neighbors(graph, j).tolist()) | {j}
    shared = np.array(sorted((omega_i & omega_j) - {i, j}), dtype=np.int64)
    if shared.size == 0:
        return np.zeros((dim, dim))
    yi = cloud.points[shared] - cloud.points[i] - sample_mean_shift(graph, cloud, i)
    yj = cloud.points[shared] - cloud.points[j] - sample_mean_shift(graph, cloud, j)
    return yi.T @ yj / float((graph.k[i] - 1) * (graph.k[j] - 1))


def gradient_cross_covariance(
    graph: NeighborGraph, cloud: PointCloud, d: float, i: int, j: int
) -> np.ndarray:
    """Covariance between the gradient estimates at points i and j:
    (d+2)^2/(r_i^2 r_j^2) times the shift covariance."""
    ri, rj = graph.radii[i], graph.radii[j]
    if ri <= 0.0 or rj <= 0.0:
        raise DataError("zero neighbourhood radius")
    cov_m = shift_cross_covariance(graph, cloud, i, j)
    return (d + 2.0) ** 2 / (ri * ri * rj * rj) * cov_m


# Edge differences and their error bars.


def estimate_delta_f(
    gradients: GradientField, cloud: PointCloud, i: int, j: int
) -> float:
    """Midpoint estimate of F_j - F_i: average endpoint gradient dotted with
    the displacement x_j - x_i. Antisymmetric in (i, j) by construction."""
    r = cloud.points[j] - cloud.points[i]
    return float(0.5 * (gradients.g[i] + gradients.g[j]) @ r)


def directional_delta_f(
    gradients: GradientField, cloud: PointCloud, i: int, j: int, which: int
) -> tuple[float, float]:
    """One-endpoint estimate of F_j - F_i using only the gradient at `which`.

    Returns (value, std) where value = g_w . (x_j - x_i) and
    std = sqrt((x_j - x_i)^T var[g_w] (x_j - x_i)).
    """
    if which not in (i, j):
        raise ParameterError(f"which = {which} must be one of the endpoints {i}, {j}")
    r = cloud.points[j] - cloud.points[i]
    value = float(gradients.g[which] @ r)
    q = float(r @ gradients.var_g[which] @ r)
    scale = float(np.trace(gradients.var_g[which])) * float(r @ r)
    if q < -_QFORM_RTOL * max(scale, 1.0):
        raise DataError(f"covariance of point {which} is not PSD along the edge")
    return value, float(np.sqrt(max(q, 0.0)))


def edge_correlation(
    graph: NeighborGraph,
    gradients: GradientField,
    cloud: PointCloud,
    i: int,
    j: int,
) -> float:
    """Model correlation between the two directional estimates of edge (i, j).

    p = r^T cov[m_i, m_j] r / sqrt(r^T var[m_i] r * r^T var[m_j] r), with
    r = x_j - x_i. Zero when either projected variance vanishes (and when
    the neighbourhoods share no points); clipped to [-1, 1] against roundoff.
    """
    r = cloud.points[j] - cloud.points[i]
    var_i = gradients.var_g[i] / gradients.scale[i] ** 2
    var_j = gradients.var_g[j] / gradients.scale[j] ** 2
    cov = float(r @ shift_cross_covariance(graph, cloud, i, j) @ r)
    den = float(r @ var_i @ r) * float(r @ var_j @ r)
    if den <= 0.0:
        return 0.0
    return float(np.clip(cov / np.sqrt(den), -1.0, 1.0))


def delta_f_variance(eps_i: float, eps_j: float, pearson: float) -> float:
    """Variance of the midpoint estimate from its two directional halves:
    (eps_i^2 + eps_j^2 + 2 p eps_i eps_j) / 4, floored at EPS2_MIN."""
    if not -1.0 <= pearson <= 1.0:
        raise ParameterError(f"pearson must be in [-1, 1], got {pearson}")
    if eps_i < 0.0 or eps_j < 0.0:
        raise ParameterError("directional standard deviations must be >= 0")
    eps2 = 0.25 * (eps_i * eps_i + eps_j * eps_j + 2.0 * pearson * eps_i * eps_j)
    return max(eps2, EPS2_MIN)


# Laplacian system.


def laplacian_system(edges) -> tuple[np.ndarray, np.ndarray]:
    """Dense A and b of assemble_system, added up one edge at a time: edge
    (i, j) with weight w = 1/eps2 adds w to A_ii and A_jj, -w to A_ij and
    A_ji, w delta_f to b_j and -w delta_f to b_i."""
    n = edges.n_points
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, j, v, e2 in zip(edges.src, edges.dst, edges.delta_f, edges.eps2):
        w = 1.0 / e2
        A[i, i] += w
        A[j, j] += w
        A[i, j] -= w
        A[j, i] -= w
        b[j] += w * v
        b[i] -= w * v
    return A, b


def component_labels(n: int, src, dst) -> np.ndarray:
    """Weakly connected component of every point of a directed edge list, by
    union-find, numbered in the order of each component's lowest point."""
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        parent[root(i)] = root(j)
    numbers: dict[int, int] = {}
    return np.array([numbers.setdefault(root(i), len(numbers)) for i in range(n)])


# Edge dump.


def dump_edges_rows(edges, path, float_fmt: str = "%.17g") -> None:
    """The --dump-edges CSV, one csv.writer row per edge."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "delta_f", "eps2", "pearson"])
        src = edges.src
        for a in range(edges.n_edges):
            writer.writerow(
                [
                    int(src[a]),
                    int(edges.dst[a]),
                    float_fmt % edges.delta_f[a],
                    float_fmt % edges.eps2[a],
                    float_fmt % edges.pearson[a],
                ]
            )


# Parity export.


def parity_export_rows(predicted, truth, path) -> None:
    """evaluation.parity_export's CSV, one csv.writer row per point, for
    finite inputs of equal length."""
    p = np.asarray(predicted, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    offset = float((t - p).mean()) if p.size else 0.0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["F_true", "F_hat_aligned"])
        for ti, pi in zip(t, p + offset):
            writer.writerow([f"{ti:.17g}", f"{pi:.17g}"])


# Benchmark landscapes and their sampler.


def mueller_brown(x, y):
    """The four-term Mueller-Brown surface, added up one term at a time."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    u = np.zeros(np.broadcast(x, y).shape)
    with np.errstate(over="ignore"):
        for t in range(4):
            dx = x - _MB_CENTER[t, 0]
            dy = y - _MB_CENTER[t, 1]
            a, b, c = _MB_QUAD[t]
            u = u + _MB_COEF[t] * np.exp(a * dx * dx + b * dx * dy + c * dy * dy)
    return u if u.shape else float(u)


def glassy_density(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The glassy mixture's density, its narrow Gaussians on one
    (m, centres, 2) array of minimum-image differences."""
    pts = np.asarray(pts, dtype=np.float64)
    d1 = _min_image(pts - np.array([-1.0, 0.5]))
    u, v = d1[:, 0], d1[:, 1]
    t1 = 3.4 * np.exp(-6.5 * u * u + 11.0 * u * v - 6.5 * v * v)
    d2 = _min_image(pts - np.array([-0.5, -0.5]))
    t2 = 2.0 * np.exp(-d2[:, 0] ** 2 - 10.0 * d2[:, 1] ** 2)
    d3 = _min_image(pts - np.array([0.5, -1.0]))
    t3 = 4.0 * np.exp(-d3[:, 0] ** 2 - 10.0 * d3[:, 1] ** 2)
    rho = 0.6 * _GLASSY_BUMP_NORM * (t1 + t2 + t3)
    diff = _min_image(pts[:, None, :] - centers[None, :, :])
    q = (diff**2).sum(axis=2) / (2.0 * _GLASSY_GAUSS_SIGMA2)
    norm = _GLASSY_GAUSS_MASS / (2.0 * np.pi * _GLASSY_GAUSS_SIGMA2)
    rho = rho + norm * np.exp(-q).sum(axis=1)
    return rho + 0.22 / float(np.prod(_GLASSY_PERIOD))


def sample_mcmc(
    potential: Potential, n: int, seed: int = 0, events: dict | None = None
) -> PointCloud:
    """datasets.sample_mcmc for valid arguments, without its acceptance
    warning: every step allocates its proposal, checks the hard box on all
    axes and updates the walkers through boolean masks. When events is
    given, its "wrapped" and "left_box" entries are set to the numbers of
    proposals that the period wrapped and that fell outside the hard box."""
    walkers, burn_in, thinning = 32, 2000, 50
    counts = {"wrapped": 0, "left_box": 0}
    rng = np.random.default_rng(seed)
    dim = potential.dim
    beta = potential.beta
    blo, bhi = potential.bounds_low, potential.bounds_high
    period = potential.period
    low = potential.init_low

    x = rng.uniform(potential.init_low, potential.init_high, size=(walkers, dim))
    u = potential.evaluate(x)

    def sweep(n_steps: int, s: float) -> float:
        nonlocal x, u
        accepted = 0
        for _ in range(n_steps):
            prop = x + s * rng.standard_normal((walkers, dim))
            if period is not None:
                outside = (prop < low) | (prop >= low + period)
                counts["wrapped"] += int(outside.any(axis=1).sum())
                prop = low + (prop - low) % period
            u_prop = potential.evaluate(prop)
            with np.errstate(invalid="ignore"):
                take = np.log(rng.random(walkers)) < -beta * (u_prop - u)
            if blo is not None:
                inside = np.all((prop >= blo) & (prop <= bhi), axis=1)
                counts["left_box"] += int((~inside).sum())
                take &= inside
            x[take] = prop[take]
            u[take] = u_prop[take]
            accepted += int(take.sum())
        return accepted / float(n_steps * walkers)

    s = 0.25 * float(np.mean(potential.init_high - potential.init_low))
    s /= math.sqrt(dim)
    for _ in range(10):
        rate = sweep(burn_in // 10, s)
        s *= math.exp(2.0 * (rate - 0.4))

    blocks = -(-n // walkers)
    pts = np.empty((blocks * walkers, dim))
    energies = np.empty(blocks * walkers)
    for b in range(blocks):
        sweep(thinning, s)
        pts[b * walkers : (b + 1) * walkers] = x
        energies[b * walkers : (b + 1) * walkers] = u
    if events is not None:
        events.update(counts)
    return PointCloud(points=pts[:n], truth_F=beta * energies[:n])


# Stage memory.

# run_bmti's stage functions, by the name run_bmti calls them, and the stage
# each one is.
_STAGES = {
    "knn_query_all": "knn",
    "estimate_id_twonn": "twonn",
    "select_adaptive_k": "adaptive_k",
    "build_neighbor_graph": "graph",
    "compute_gradient_field": "gradients",
    "build_delta_f_edges": "edge_kernel",
    "assemble_system": "assembly",
    "solve_bmti": "solve",
}


def stage_peaks(cloud: PointCloud, config=None) -> tuple[dict, object]:
    """Traced peak bytes of each stage of one run_bmti call, and its result.

    run_bmti runs as it is, under tracemalloc, with its stage functions
    wrapped wherever a loaded bmti module holds them. A stage's peak counts
    everything the call holds while the stage runs, its inputs included;
    calls made inside a stage (adaptive k's kNN queries) count towards it.
    "whole_call" is the call's peak, the work between stages included. The
    cloud's points are allocated by the caller and not counted, as in the
    benchmark's peak_mem_mb.
    """
    if tracemalloc.is_tracing():
        raise RuntimeError("stage_peaks needs tracemalloc to be off")
    peaks = {"whole_call": 0}
    depth = 0

    def mark(stage: str | None = None) -> None:
        """Fold the peak since the last mark into the call's and stage's."""
        peak = tracemalloc.get_traced_memory()[1]
        peaks["whole_call"] = max(peaks["whole_call"], peak)
        if stage is not None:
            peaks[stage] = max(peaks.get(stage, 0), peak)
        tracemalloc.reset_peak()

    def wrapped(fn, stage):
        def call(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            mark()
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
                mark(stage)

        return call

    saved = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "bmti":
            continue
        for fn_name, stage in _STAGES.items():
            fn = vars(module).get(fn_name)
            if callable(fn):
                saved.append((module, fn_name, fn))
                setattr(module, fn_name, wrapped(fn, stage))
    gc.collect()
    tracemalloc.start()
    try:
        result = run_bmti(cloud, config)
        mark()
    finally:
        tracemalloc.stop()
        for module, fn_name, fn in saved:
            setattr(module, fn_name, fn)
    return peaks, result
