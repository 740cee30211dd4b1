"""Synthetic benchmark landscapes with known ground-truth log-density.

Four analytic potentials (anisotropic Gaussian, Mueller-Brown, a 6-d double
bump with harmonic extra directions, and a glassy two-basin mixture on a
periodic box), a Metropolis sampler that records the exact negative
log-density of every sample, and a Swiss-roll map that hides a low-d cloud
inside 20 dimensions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NumericalError, ParameterError, _integer
from .geometry import PointCloud

# Mueller-Brown surface: sum of A exp(a dx^2 + b dx dy + c dy^2) terms with
# dx = x - x0, dy = y - y0.
_MB_COEF = np.array([15.0, -200.0, -100.0, -170.0])
_MB_QUAD = np.array(
    [
        [0.7, 0.6, 0.7],
        [-1.0, 0.0, -10.0],
        [-1.0, 0.0, -10.0],
        [-6.5, 11.0, -6.5],
    ]
)
_MB_CENTER = np.array([[-1.0, 1.0], [1.0, 0.0], [0.0, 0.5], [-0.5, 1.5]])

# Covariance of the 2-d Gaussian benchmark, and its precision.
GAUSS2D_SIGMA = np.array([[1.0, 0.4], [0.4, 0.2]])
_GAUSS2D_PRECISION = np.linalg.inv(GAUSS2D_SIGMA)

# Glassy mixture: 0.6 on three fixed anisotropic bumps, 0.18 spread over 90
# narrow isotropic Gaussians, 0.22 uniform background, all on a periodic box.
GLASSY_BOX_LOW = np.array([-4.0, -2.0])
GLASSY_BOX_HIGH = np.array([4.0, 2.0])
_GLASSY_PERIOD = GLASSY_BOX_HIGH - GLASSY_BOX_LOW
_GLASSY_N_GAUSS = 90
_GLASSY_GAUSS_SIGMA2 = 0.04
_GLASSY_GAUSS_MASS = 0.002
_GLASSY_CENTER_LOW = np.array([-3.6, -1.8])
_GLASSY_CENTER_HIGH = np.array([3.6, 1.8])
GLASSY_CENTER_SEED = 12345

# Sampling box for the 6-d potential: its first two coordinates feel a
# bounded bump, so without confinement the density is improper. The box
# covers both bumps with a generous flat margin.
SIXD_BOX_LOW = np.array([-2.5, -3.5])
SIXD_BOX_HIGH = np.array([4.0, 5.0])

# The sampler's setting: independent walkers, burn-in steps (ten tuning
# windows of _BURN_IN // 10 steps) and steps between recorded sweeps.
_WALKERS = 32
_BURN_IN = 2000
_THINNING = 50


@dataclass(frozen=True)
class Potential:
    """Analytic energy landscape plus the metadata its sampler needs.

    energy maps an (m, dim) array to (m,) energies; evaluate() additionally
    accepts a single point. beta is the inverse temperature multiplying U in
    the sampled density exp(-beta U). init_low/init_high bound the walker
    starting box, which must be finite; bounds_low/bounds_high, when set
    (both or neither), reject proposals outside a hard box that must contain
    the init box; period, when set (finite, positive), wraps coordinates
    into [init_low, init_low + period) per axis.
    """

    dim: int
    beta: float
    energy: Callable[[np.ndarray], np.ndarray]
    init_low: np.ndarray
    init_high: np.ndarray
    bounds_low: np.ndarray | None = None
    bounds_high: np.ndarray | None = None
    period: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("potential dimension must be >= 1")
        if not np.isfinite(self.beta) or self.beta <= 0.0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        for attr in ("init_low", "init_high", "bounds_low", "bounds_high", "period"):
            v = getattr(self, attr)
            if v is None:
                continue
            v = np.asarray(v, dtype=np.float64).ravel()
            if v.shape != (self.dim,):
                raise ParameterError(f"{attr} must have one entry per dimension")
            object.__setattr__(self, attr, v)
        finite = np.isfinite(self.init_low) & np.isfinite(self.init_high)
        if not np.all(finite & (self.init_high > self.init_low)):
            raise ParameterError("init box must be finite with positive extent")
        if self.period is not None and not np.all(
            np.isfinite(self.period) & (self.period > 0.0)
        ):
            raise ParameterError("period must be finite and positive")
        if (self.bounds_low is None) != (self.bounds_high is None):
            raise ParameterError("bounds_low and bounds_high must be given together")
        if self.bounds_low is not None:
            if not np.all(self.bounds_low < self.bounds_high):
                raise ParameterError("hard box must have bounds_low < bounds_high")
            if not (
                np.all(self.bounds_low <= self.init_low)
                and np.all(self.init_high <= self.bounds_high)
            ):
                raise ParameterError("init box must lie inside the hard box")

    def evaluate(self, x) -> float | np.ndarray:
        """Energy U(x) for one point (dim,) or a batch (m, dim)."""
        pts = np.asarray(x, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ParameterError(
                f"expected points of dimension {self.dim}, got shape {np.shape(x)}"
            )
        u = np.asarray(self.energy(pts), dtype=np.float64)
        return float(u[0]) if single else u


def mueller_brown(x, y):
    """Classical four-term Mueller-Brown surface at (x, y); broadcasts."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # The four terms along a trailing axis, added in term order so that the
    # sum does not depend on numpy's reduction order.
    dx = x[..., None] - _MB_CENTER[:, 0]
    dy = y[..., None] - _MB_CENTER[:, 1]
    a, b, c = _MB_QUAD.T
    # Large coordinates overflow the growing first term to inf, which is the
    # correct limit and must not warn.
    with np.errstate(over="ignore"):
        e = _MB_COEF * np.exp(a * dx * dx + b * dx * dy + c * dy * dy)
    u = ((e[..., 0] + e[..., 1]) + e[..., 2]) + e[..., 3]
    return u if u.shape else float(u)


def _gauss2d_energy(pts: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("mi,ij,mj->m", pts, _GAUSS2D_PRECISION, pts)


def _mb_energy(pts: np.ndarray) -> np.ndarray:
    return mueller_brown(pts[:, 0], pts[:, 1])


def _sixd_energy(pts: np.ndarray) -> np.ndarray:
    x1, x2 = pts[:, 0], pts[:, 1]
    bump = (
        2.0 * np.exp(-((x1 - 1.5) ** 2) - (x2 - 2.5) ** 2)
        + 3.0 * np.exp(-2.0 * x1 * x1 - 0.25 * x2 * x2)
    ) ** 3
    return bump + 0.5 * (pts[:, 2:] ** 2).sum(axis=1)


def glassy_centers() -> np.ndarray:
    """The 90 narrow-Gaussian centres, drawn from GLASSY_CENTER_SEED."""
    rng = np.random.default_rng(GLASSY_CENTER_SEED)
    return rng.uniform(
        _GLASSY_CENTER_LOW, _GLASSY_CENTER_HIGH, size=(_GLASSY_N_GAUSS, 2)
    )


def _min_image(delta: np.ndarray, period=_GLASSY_PERIOD) -> np.ndarray:
    return delta - period * np.round(delta / period)


# Exact normalizer of the three-bump component (the constant prints as 0.11):
# integral 3.4*pi/sqrt(12) + (2+4)*pi/sqrt(10) from the Gaussian quadratic forms.
_GLASSY_BUMP_NORM = 1.0 / (
    3.4 * np.pi / np.sqrt(12.0) + 6.0 * np.pi / np.sqrt(10.0)
)


def glassy_density(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Probability density of the glassy mixture, periodic on its box."""
    pts = np.asarray(pts, dtype=np.float64)
    # Three-bump component, weight 0.6, normalized in closed form.
    d1 = _min_image(pts - np.array([-1.0, 0.5]))
    u, v = d1[:, 0], d1[:, 1]
    t1 = 3.4 * np.exp(-6.5 * u * u + 11.0 * u * v - 6.5 * v * v)
    d2 = _min_image(pts - np.array([-0.5, -0.5]))
    t2 = 2.0 * np.exp(-d2[:, 0] ** 2 - 10.0 * d2[:, 1] ** 2)
    d3 = _min_image(pts - np.array([0.5, -1.0]))
    t3 = 4.0 * np.exp(-d3[:, 0] ** 2 - 10.0 * d3[:, 1] ** 2)
    rho = 0.6 * _GLASSY_BUMP_NORM * (t1 + t2 + t3)
    # 90 isotropic Gaussians carrying mass 0.002 each, on (m, 90) arrays one
    # coordinate at a time.
    dx = _min_image(pts[:, :1] - centers[:, 0], _GLASSY_PERIOD[0])
    dy = _min_image(pts[:, 1:2] - centers[:, 1], _GLASSY_PERIOD[1])
    q = (dx * dx + dy * dy) / (2.0 * _GLASSY_GAUSS_SIGMA2)
    norm = _GLASSY_GAUSS_MASS / (2.0 * np.pi * _GLASSY_GAUSS_SIGMA2)
    rho = rho + norm * np.exp(-q).sum(axis=1)
    # Uniform background, mass 0.22 over the box area.
    return rho + 0.22 / float(np.prod(_GLASSY_PERIOD))


def make_potential(name: str, beta: float | None = None) -> Potential:
    """Build one of the named benchmark potentials.

    gauss2d: U = x^T Sigma^-1 x / 2 with Sigma = GAUSS2D_SIGMA. mb2d: the
    Mueller-Brown surface, default beta 0.035. sixd: the cubed two-bump
    landscape on the first two coordinates (hard sampling box) plus unit
    harmonic wells on the other four. glassy2d: minus log of the glassy
    mixture on its periodic box.
    """
    if name == "gauss2d":
        width = 3.0 * np.sqrt(np.diag(GAUSS2D_SIGMA))
        return Potential(
            dim=2, beta=1.0 if beta is None else float(beta),
            energy=_gauss2d_energy, init_low=-width, init_high=width,
        )
    if name == "mb2d":
        return Potential(
            dim=2, beta=0.035 if beta is None else float(beta),
            energy=_mb_energy,
            init_low=np.array([-1.5, -0.2]), init_high=np.array([1.0, 1.8]),
        )
    if name == "sixd":
        low = np.concatenate([SIXD_BOX_LOW, np.full(4, -np.inf)])
        high = np.concatenate([SIXD_BOX_HIGH, np.full(4, np.inf)])
        return Potential(
            dim=6, beta=1.0 if beta is None else float(beta),
            energy=_sixd_energy,
            init_low=np.concatenate([SIXD_BOX_LOW, np.full(4, -2.0)]),
            init_high=np.concatenate([SIXD_BOX_HIGH, np.full(4, 2.0)]),
            bounds_low=low, bounds_high=high,
        )
    if name == "glassy2d":
        centers = glassy_centers()

        def energy(pts, _c=centers):
            return -np.log(glassy_density(pts, _c))

        return Potential(
            dim=2, beta=1.0 if beta is None else float(beta),
            energy=energy, init_low=GLASSY_BOX_LOW, init_high=GLASSY_BOX_HIGH,
            period=_GLASSY_PERIOD.copy(),
        )
    raise ParameterError(
        f"unknown potential {name!r}; expected gauss2d, mb2d, sixd or glassy2d"
    )


def sample_mcmc(potential: Potential, n: int, seed: int = 0) -> PointCloud:
    """Sample n points from exp(-beta U) with a Metropolis random walk.

    Runs _WALKERS (32) independent chains with isotropic Gaussian
    proposals. The proposal width is tuned during the _BURN_IN (2000)
    burn-in steps toward a 40% acceptance rate, in ten windows of 200
    steps. Every _THINNING-th (50th) sweep after that contributes one point
    per walker until n points exist. truth_F stores beta*U per point (the
    normalization constant is a gauge). Deterministic for a fixed seed.
    Warns when the production acceptance rate leaves [0.1, 0.9].
    """
    if not (_integer(n) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")

    rng = np.random.default_rng(seed)
    dim = potential.dim
    beta = potential.beta
    period = potential.period
    low = potential.init_low
    # Proposals are finite, so only the axes with a finite bound can fail the
    # hard box.
    box = blo = bhi = None
    if potential.bounds_low is not None:
        finite = np.isfinite(potential.bounds_low) | np.isfinite(potential.bounds_high)
        if finite.any():
            box = np.flatnonzero(finite)
            blo, bhi = potential.bounds_low[box], potential.bounds_high[box]

    x = rng.uniform(potential.init_low, potential.init_high, size=(_WALKERS, dim))
    u = potential.evaluate(x)

    def sweep(n_steps: int, s: float) -> float:
        accepted = 0
        # An inf - inf energy difference is NaN and rejects the proposal.
        with np.errstate(invalid="ignore"):
            for _ in range(n_steps):
                prop = rng.standard_normal((_WALKERS, dim))
                prop *= s
                prop += x
                if period is not None:
                    prop -= low
                    prop %= period
                    prop += low
                u_prop = potential.evaluate(prop)
                take = np.log(rng.random(_WALKERS)) < -beta * (u_prop - u)
                if box is not None:
                    side = prop[:, box]
                    take &= ((side >= blo) & (side <= bhi)).all(axis=1)
                np.copyto(x, prop, where=take[:, None])
                np.copyto(u, u_prop, where=take)
                accepted += np.count_nonzero(take)
        return accepted / float(n_steps * _WALKERS)

    s = 0.25 * float(np.mean(potential.init_high - potential.init_low))
    s /= math.sqrt(dim)
    for _ in range(10):
        rate = sweep(_BURN_IN // 10, s)
        s *= math.exp(2.0 * (rate - 0.4))

    blocks = -(-n // _WALKERS)
    pts = np.empty((blocks * _WALKERS, dim))
    energies = np.empty(blocks * _WALKERS)
    total_rate = 0.0
    for b in range(blocks):
        total_rate += sweep(_THINNING, s)
        pts[b * _WALKERS : (b + 1) * _WALKERS] = x
        energies[b * _WALKERS : (b + 1) * _WALKERS] = u
    rate = total_rate / blocks
    if not 0.1 <= rate <= 0.9:
        warnings.warn(
            f"acceptance rate {rate:.2f} outside [0.1, 0.9]", stacklevel=2
        )
    return PointCloud(points=pts[:n], truth_F=beta * energies[:n])


# Embedding dimension of the Swiss roll.
ROLL_DIM = 20


def rotation_matrix(rotation_seed: int) -> np.ndarray:
    """Haar-random orthogonal matrix of size ROLL_DIM, seeded by
    rotation_seed."""
    rng = np.random.default_rng(rotation_seed)
    m = rng.standard_normal((ROLL_DIM, ROLL_DIM))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if float(np.abs(q.T @ q - np.eye(ROLL_DIM)).max()) > 1e-10:
        raise NumericalError("rotation matrix failed the orthogonality check")
    return q


def swiss_roll_embed(cloud: PointCloud, rotation_seed: int) -> PointCloud:
    """Roll the first coordinate, zero-pad, rotate into ROLL_DIM (20).

    The first coordinate x becomes the pair (x cos x, x sin x); remaining
    coordinates are kept, the vector is padded with zeros to ROLL_DIM
    columns and rotated by rotation_matrix(rotation_seed), so a cloud may
    have at most ROLL_DIM - 1 columns. The roll is injective on the
    sampled range and stretches area by sqrt(1 + x^2) (the length of
    d/dx (x cos x, x sin x)); padding and rotation keep it. So the rolled
    cloud's density on its surface is rho / sqrt(1 + x^2), and the ground
    truth becomes truth_F + log1p(x^2) / 2.
    """
    base = cloud.embed_dim
    if base + 1 > ROLL_DIM:
        raise ParameterError(
            f"the {ROLL_DIM}-d roll cannot hold {base}+1 rolled coordinates"
        )
    pad = ROLL_DIM - (base + 1)
    x1 = cloud.points[:, 0]
    cols = [x1 * np.cos(x1), x1 * np.sin(x1), cloud.points[:, 1:]]
    if pad:
        cols.append(np.zeros((cloud.n_points, pad)))
    rolled = np.column_stack(cols)
    q = rotation_matrix(rotation_seed)
    truth = None
    if cloud.truth_F is not None:
        truth = cloud.truth_F + 0.5 * np.log1p(x1 * x1)
    return PointCloud(points=rolled @ q.T, truth_F=truth)


# Dataset tags: (default sample count, default beta, Swiss roll?).
DATASET_DEFAULTS = {
    "gauss2d": (2000, 1.0, False),
    "mb2d": (5000, 0.035, False),
    "sixd": (10000, 1.0, False),
    "glassy2d": (10000, 1.0, False),
    "mb2d-20d": (2000, 0.035, True),
    "glassy2d-20d": (10000, 1.0, True),
}


def generate_dataset(
    name: str,
    n: int | None = None,
    beta: float | None = None,
    seed: int = 0,
) -> PointCloud:
    """Sample one of the named benchmark datasets with ground truth.

    Tags ending in -20d sample the base potential and Swiss-roll the result
    into 20 dimensions with a rotation seeded by `seed`. n and beta default
    per tag; `seed` also seeds sample_mcmc, which has no other setting.
    """
    if name not in DATASET_DEFAULTS:
        known = ", ".join(sorted(DATASET_DEFAULTS))
        raise ParameterError(f"unknown dataset {name!r}; expected one of {known}")
    n_default, beta_default, rolled = DATASET_DEFAULTS[name]
    n = n_default if n is None else n
    beta = beta_default if beta is None else beta
    base = name[: -len("-20d")] if rolled else name
    potential = make_potential(base, beta=beta)
    cloud = sample_mcmc(potential, n, seed=seed)
    if rolled:
        cloud = swiss_roll_embed(cloud, seed)
    return cloud
