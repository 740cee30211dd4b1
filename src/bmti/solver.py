"""Global integration of edge differences into per-point log-densities.

The maximum-likelihood F solves a weighted graph-Laplacian system: each
directed edge (i, j) with difference estimate v and precision w = 1/eps2
contributes w to both diagonal entries, -w to both off-diagonal entries of A,
and (+w v, -w v) to (b_j, b_i). A is symmetric positive semidefinite with the
per-component constant vectors as kernel, so solutions are fixed to zero mean
per connected component. Below alpha = 1 the solve blends A F = b with a
pointwise kNN likelihood (knn_anchor), which makes the system positive
definite. solve_bmti is the one solver, at every alpha, of the one assembled
system, and the one place that warns when the graph has several components.

assemble_system reads the edge set's CSR edge list, in row order by
construction, and writes it straight into the CSR arrays of H: deg/2
first in each row, then -w at each of the row's edges. It builds A with one
sparse sum, A = H + H^T = diag(deg) - (W + W^T) for W the weights, taken a
block of rows at a time so that no buffer larger than A outlives a block.
deg and b are summed by np.bincount over the edge sources, made from the
row starts and freed once summed; the component labels, the only ones a
run computes, come from A's pattern. The CG loop updates its
iterates in place and takes its dot products with np.einsum, not BLAS,
whose threads slow it severalfold when another process keeps a core busy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .delta_f import DeltaFEdgeSet
from .exceptions import (
    CapabilityError,
    ConvergenceError,
    NumericalError,
    ParameterError,
    StateError,
    _integer,
)
from .geometry import PointCloud, unit_ball_volume
from .neighborhoods import NeighborGraph

UNCERTAINTY_CAP = 2000


@dataclass
class SolverSystem:
    """Assembled linear system A F = b with component bookkeeping."""

    A: sp.csr_matrix
    b: np.ndarray
    component_labels: np.ndarray

    @property
    def n_points(self) -> int:
        return self.b.shape[0]


@dataclass
class LogDensityEstimate:
    """Estimated F per point, optionally with variances and solve diagnostics."""

    F: np.ndarray
    var_F: np.ndarray | None
    method: str
    alpha: float
    cg_iterations: int
    residual: float


# Entries of H in one block of rows of the sum A = H + H^T. scipy allocates
# a sum for the entries of both operands, nearly twice what the mutual edges
# of a neighbour graph leave, so each block's sum is cut to its size before
# the next one is made.
_SUM_ENTRIES = 1 << 15


def _half_laplacian(
    indptr: np.ndarray, dst: np.ndarray, w: np.ndarray, deg: np.ndarray
) -> sp.csr_matrix:
    """H with H + H^T = diag(deg) - (W + W^T), W holding w[e] at edge e of
    the CSR edge list (indptr, dst): deg/2 first in each row, then -w at
    each of the row's edges in their order, written straight into CSR
    arrays. Duplicate edges stay separate entries, which the sum reads as
    their sum."""
    n = indptr.shape[0] - 1
    size = int(indptr[-1]) + n
    itype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    # Each row gains its diagonal entry in front.
    h_ptr = (indptr + np.arange(n + 1)).astype(itype)
    diag = h_ptr[:-1]
    off = np.ones(size, dtype=bool)
    off[diag] = False
    data = np.empty(size)
    data[diag] = -0.5 * deg
    data[off] = w
    np.negative(data, out=data)
    indices = np.empty(size, dtype=itype)
    indices[diag] = np.arange(n)
    indices[off] = dst
    return sp.csr_matrix((data, indices, h_ptr), shape=(n, n))


def _row_block(M: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo:hi of M, on views of its arrays."""
    a, b = M.indptr[lo], M.indptr[hi]
    return sp.csr_matrix(
        (M.data[a:b], M.indices[a:b], M.indptr[lo : hi + 1] - a),
        shape=(hi - lo, M.shape[1]),
    )


def assemble_system(edges: DeltaFEdgeSet) -> SolverSystem:
    """Build the PSD Laplacian system from the edge set, weighting each edge
    by its precision 1/eps2."""
    if edges.n_edges == 0:
        raise StateError("cannot assemble a system from an empty edge set")
    n = edges.n_points
    w = 1.0 / edges.eps2
    if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
        raise NumericalError("edge weights must be finite and positive")
    src, dst = edges.src, edges.dst
    deg = np.bincount(src, w, minlength=n) + np.bincount(dst, w, minlength=n)
    wv = w * edges.delta_f
    b = np.bincount(dst, wv, minlength=n) - np.bincount(src, wv, minlength=n)
    del wv, src
    H = _half_laplacian(edges.indptr, dst, w, deg)
    del w
    Ht = H.T.tocsr()

    # A = H + H^T. Entries (i, j) and (j, i) add the same two sums, so A is
    # symmetric to the bit; a zero sum (a point without edges) is dropped.
    step = max(1, n * _SUM_ENTRIES // H.nnz)
    parts = []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        S = _row_block(H, lo, hi) + _row_block(Ht, lo, hi)
        parts.append(
            (S.data[: S.nnz].copy(), S.indices[: S.nnz].copy(), np.diff(S.indptr))
        )
        del S
    del H, Ht
    indptr = np.zeros(n + 1, dtype=parts[0][1].dtype)
    np.cumsum(np.concatenate([p[2] for p in parts]), out=indptr[1:])
    data = np.concatenate([p[0] for p in parts])
    indices = np.concatenate([p[1] for p in parts])
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))

    # A's pattern is symmetric, so its strong components are the graph's
    # weak ones, found without a transposed copy. They are numbered in the
    # order of each component's lowest point.
    _, labels = connected_components(A, directed=True, connection="strong")
    _, first = np.unique(labels, return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return SolverSystem(A=A, b=b, component_labels=rank[labels])


def _center_per_component(x: np.ndarray, labels: np.ndarray) -> None:
    x -= (np.bincount(labels, weights=x) / np.bincount(labels))[labels]


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v summed by numpy's own loop, not BLAS, whose threads contend with
    any other busy process."""
    return float(np.einsum("i,i->", u, v))


def _pcg(
    A: sp.csr_matrix, b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG from x = 0, with no projection in the loop.

    A may be singular if b lies in its range: solve_bmti centres b per
    component before the call, and the returned x, a solution up to A's
    kernel, after it."""
    n = b.shape[0]
    diag = A.diagonal()
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 1.0)

    r = b.copy()
    b_norm = float(np.sqrt(_dot(r, r)))
    if b_norm == 0.0:
        return np.zeros(n), 0, 0.0

    x = np.zeros(n)
    z = inv_diag * r
    p = z.copy()
    step = np.empty(n)
    rz = _dot(r, z)
    res = 1.0
    it = 0
    while res > tol and it < max_iter:
        Ap = A @ p
        pAp = _dot(p, Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError("conjugate gradient broke down (p^T A p <= 0)")
        alpha = rz / pAp
        np.multiply(p, alpha, out=step)
        x += step
        Ap *= alpha
        r -= Ap
        np.multiply(inv_diag, r, out=z)
        rz_new = _dot(r, z)
        if not np.isfinite(rz_new):
            raise NumericalError("NaN in conjugate-gradient iterates")
        p *= rz_new / rz
        p += z
        rz = rz_new
        it += 1
        res = float(np.sqrt(_dot(r, r))) / b_norm
    if res > tol:
        raise ConvergenceError(
            f"CG stopped at relative residual {res:.3e} after {it} iterations "
            f"(tol {tol:.1e})"
        )
    return x, it, res


def solve_bmti(
    system: SolverSystem,
    tol: float = 1e-8,
    max_iter: int | None = None,
    alpha: float = 1.0,
    anchor: tuple[np.ndarray, np.ndarray] | None = None,
) -> LogDensityEstimate:
    """Solve the assembled system by preconditioned conjugate gradient.

    alpha = 1 solves A F = b. The constant vector per connected component
    spans the kernel of A, so F is fixed only up to one constant per
    component (the gauge). b is centred per component before the solve,
    which makes the system consistent, and F after it: returned F has zero
    mean over each component, and a graph of several components warns that
    their relative offsets are undetermined.

    alpha < 1 blends in the pointwise anchor = (F0, h) of knn_anchor, which
    it requires, and solves (alpha A + (1-alpha) diag(h)) F = alpha b +
    (1-alpha) h F0. For alpha > 0 that system is positive definite, needs no
    gauge, and the anchor supplies absolute normalization across
    components; alpha = 0 returns F0 exactly.

    Relative residual ||M F - rhs|| / ||rhs|| must reach tol, in (0, 1),
    within max_iter (an integer >= 1, default 10 n) iterations.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    # The iteration starts at relative residual 1.
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must be in (0, 1), got {tol}")
    if max_iter is not None and not (_integer(max_iter) and max_iter >= 1):
        raise ParameterError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    n = system.n_points
    if max_iter is None:
        max_iter = 10 * n
    if alpha == 1.0:
        n_comp = int(system.component_labels.max()) + 1
        if n_comp > 1:
            warnings.warn(
                f"neighbourhood graph has {n_comp} components; offsets between "
                "components are undetermined (consider alpha < 1)",
                stacklevel=2,
            )
        labels = system.component_labels
        b = system.b.copy()
        _center_per_component(b, labels)
        F, it, res = _pcg(system.A, b, tol, max_iter)
        _center_per_component(F, labels)
    else:
        if anchor is None:
            raise ParameterError("alpha < 1 needs the pointwise anchor (F0, h)")
        f0 = np.asarray(anchor[0], dtype=np.float64)
        h = np.asarray(anchor[1], dtype=np.float64)
        if f0.shape != (n,) or h.shape != (n,):
            raise ParameterError("anchor arrays must have one entry per point")
        if np.any(h <= 0.0):
            raise ParameterError("anchor curvatures must be positive")
        if alpha == 0.0:
            F, it, res = f0.copy(), 0, 0.0
        else:
            M = (alpha * system.A + sp.diags((1.0 - alpha) * h)).tocsr()
            rhs = alpha * system.b + (1.0 - alpha) * h * f0
            F, it, res = _pcg(M, rhs, tol, max_iter)
    return LogDensityEstimate(
        F=F, var_F=None, method="bmti", alpha=float(alpha),
        cg_iterations=it, residual=res,
    )


def estimate_uncertainties(system: SolverSystem, cap: int = UNCERTAINTY_CAP) -> np.ndarray:
    """Per-point variances: the diagonal of the pseudo-inverse of A.

    Dense computation, limited to n <= cap points. With diagonal edge
    precisions these are mildly optimistic since correlated edge errors are
    ignored off the diagonal.
    """
    n = system.n_points
    if n > cap:
        raise CapabilityError(
            f"uncertainty estimation is dense and capped at {cap} points, got {n}"
        )
    pinv = np.linalg.pinv(system.A.toarray(), hermitian=True)
    var = np.diag(pinv).copy()
    var[var < 0.0] = 0.0
    return var


def knn_anchor(
    graph: NeighborGraph, cloud: PointCloud, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise anchor (F0, h) of the solve below alpha = 1.

    F0_i = -log((k_i - 1) / (n omega_d r_i^d)) is the adaptive-neighbourhood
    density estimate; the curvature h_i = k_i is the second derivative of the
    Poisson neighbour-count log-likelihood at its maximum.
    """
    if not np.isfinite(d) or d <= 0:
        raise ParameterError(f"intrinsic dimension must be positive, got {d}")
    n = graph.n_points
    log_vol = np.log(unit_ball_volume(d)) + d * np.log(graph.radii)
    f0 = np.log(float(n)) + log_vol - np.log(graph.k - 1.0)
    h = graph.k.astype(np.float64)
    return f0, h
