"""Tests for the benchmark potentials, the MCMC sampler and the embeddings."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy.spatial.distance import pdist

import oracles

from bmti.datasets import (
    DATASET_DEFAULTS,
    GAUSS2D_SIGMA,
    GLASSY_BOX_HIGH,
    GLASSY_BOX_LOW,
    Potential,
    generate_dataset,
    glassy_centers,
    glassy_density,
    make_potential,
    mueller_brown,
    rotation_matrix,
    sample_mcmc,
    swiss_roll_embed,
)
from bmti.exceptions import DataError, ParameterError

# Four-term surface parameters, repeated here so the tests do not depend on
# the module internals they are checking.
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


def _mb_gradient(p):
    x, y = p
    gx = gy = 0.0
    for t in range(4):
        dx, dy = x - _MB_CENTER[t, 0], y - _MB_CENTER[t, 1]
        a, b, c = _MB_QUAD[t]
        e = _MB_COEF[t] * np.exp(a * dx * dx + b * dx * dy + c * dy * dy)
        gx += e * (2.0 * a * dx + b * dy)
        gy += e * (b * dx + 2.0 * c * dy)
    return np.array([gx, gy])


def _mb_minima():
    """The three local minima, recovered by quasi-Newton descent."""
    out = []
    for start in [(-0.56, 1.44), (0.62, 0.03), (-0.05, 0.47)]:
        res = optimize.minimize(
            mueller_brown_wrapped, start, jac=_mb_gradient, method="BFGS", tol=1e-12
        )
        assert res.success or np.abs(_mb_gradient(res.x)).max() < 1e-6
        out.append((res.x, res.fun))
    return out


def mueller_brown_wrapped(p):
    return mueller_brown(p[0], p[1])


def test_mueller_brown_reference_value():
    # Frozen from an independent evaluation of the four published terms.
    assert mueller_brown(1.0, 0.0) == pytest.approx(-53.40700152001108, rel=1e-13)


def test_mueller_brown_broadcasts_and_returns_scalar():
    xs = np.array([1.0, 0.0, -0.5])
    ys = np.array([0.0, 0.5, 1.5])
    batch = mueller_brown(xs, ys)
    assert batch.shape == (3,)
    for i in range(3):
        assert batch[i] == pytest.approx(mueller_brown(xs[i], ys[i]), rel=1e-15)
    assert isinstance(mueller_brown(1.0, 0.0), float)


def test_mueller_brown_minima():
    minima = _mb_minima()
    depths = sorted(value for _, value in minima)
    assert depths[0] == pytest.approx(-146.69951720995402, abs=1e-6)
    assert depths[1] == pytest.approx(-108.1667241168524, abs=1e-6)
    assert depths[2] == pytest.approx(-80.76781812965905, abs=1e-6)
    # Deepest basin sits near (-0.558, 1.442).
    deepest = min(minima, key=lambda m: m[1])[0]
    assert deepest == pytest.approx([-0.558, 1.442], abs=2e-3)


def test_mueller_brown_saddle_and_barrier():
    res = optimize.root(_mb_gradient, [-0.82, 0.62], tol=1e-12)
    assert res.success
    saddle = res.x
    assert saddle == pytest.approx([-0.822, 0.624], abs=2e-3)
    u_saddle = mueller_brown_wrapped(saddle)
    assert u_saddle == pytest.approx(-40.6648435086574, abs=1e-6)
    # One descending direction: the Hessian is indefinite there.
    h = 1e-5
    hess = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        hess[:, i] = (_mb_gradient(saddle + e) - _mb_gradient(saddle - e)) / (2 * h)
    eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    assert eigs[0] < 0.0 < eigs[1]
    # Escape barrier from the deepest minimum at the benchmark temperature.
    u_min = min(value for _, value in _mb_minima())
    barrier = 0.035 * (u_saddle - u_min)
    assert barrier == pytest.approx(3.7112135795453822, abs=1e-6)
    assert 3.5 < barrier < 3.9


def test_mueller_brown_diverges_far_out():
    # The positive first term grows without bound away from the basins.
    assert mueller_brown(5.0, 5.0) > 1e6
    assert np.isinf(mueller_brown(100.0, 100.0))


def test_mueller_brown_matches_term_by_term_oracle():
    for x, y in [(1.0, 0.0), (-0.558, 1.442), (0.3, -0.7), (-1.5, 2.0)]:
        got = mueller_brown(x, y)
        assert isinstance(got, float)
        assert got == oracles.mueller_brown(x, y)
    rng = np.random.default_rng(3)
    for xs, ys in [
        (rng.uniform(-1.5, 1.0, (3, 1)), rng.uniform(-0.5, 2.0, (1, 4))),
        (0.25, rng.uniform(-0.5, 2.0, 5)),
        (rng.uniform(-1.5, 1.0, (2, 3, 2)), rng.uniform(-0.5, 2.0, 2)),
    ]:
        got = mueller_brown(xs, ys)
        assert got.shape == np.broadcast(xs, ys).shape
        assert np.array_equal(got, oracles.mueller_brown(xs, ys))
    # Far out, the first term overflows to inf without a warning.
    xs = np.array([100.0, -60.0, 1e3, 30.0, 1.0])
    ys = np.array([100.0, 80.0, 1e3, -40.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mueller_brown(xs, ys)
    assert np.isinf(got[:4]).all() and np.isfinite(got[4])
    assert np.array_equal(got, oracles.mueller_brown(xs, ys))


def test_gauss2d_energy_is_half_quadratic_form():
    pot = make_potential("gauss2d")
    # det = 1*0.2 - 0.4^2 = 0.04, so the precision is [[5, -10], [-10, 25]].
    prec = np.array([[5.0, -10.0], [-10.0, 25.0]])
    assert pot.evaluate([0.0, 0.0]) == 0.0
    assert pot.evaluate([1.0, 0.0]) == pytest.approx(2.5, rel=1e-12)
    assert pot.evaluate([0.0, 1.0]) == pytest.approx(12.5, rel=1e-12)
    assert pot.evaluate([2.0, 1.0]) == pytest.approx(2.5, rel=1e-12)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    expected = 0.5 * np.einsum("mi,ij,mj->m", pts, prec, pts)
    assert np.allclose(pot.evaluate(pts), expected, rtol=1e-11)


def test_gauss2d_default_sigma():
    pot = make_potential("gauss2d")
    prec = np.linalg.inv(GAUSS2D_SIGMA)
    # det = 1*0.2 - 0.4^2 = 0.04, so prec = [[5, -10], [-10, 25]].
    assert np.allclose(prec, [[5.0, -10.0], [-10.0, 25.0]], rtol=1e-12)
    assert pot.evaluate([1.0, 0.0]) == pytest.approx(2.5, rel=1e-12)


def test_potential_beta_validation():
    with pytest.raises(ParameterError):
        make_potential("gauss2d", beta=0.0)
    with pytest.raises(ParameterError):
        make_potential("mb2d", beta=-0.1)
    with pytest.raises(ParameterError):
        make_potential("sixd", beta=np.inf)


def test_unknown_potential_name():
    with pytest.raises(ParameterError, match="unknown potential"):
        make_potential("pentagon")


def test_evaluate_rejects_wrong_dimension():
    pot = make_potential("gauss2d")
    with pytest.raises(ParameterError):
        pot.evaluate([1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        pot.evaluate(np.zeros((4, 3)))


def test_sixd_energy_separates_additively():
    pot = make_potential("sixd")
    assert pot.dim == 6
    rng = np.random.default_rng(11)
    xy = rng.uniform(-2.0, 3.5, size=(30, 2))
    rest = rng.normal(size=(30, 4))
    flat = np.hstack([xy, np.zeros((30, 4))])
    full = np.hstack([xy, rest])
    bump = (
        2.0 * np.exp(-((xy[:, 0] - 1.5) ** 2) - (xy[:, 1] - 2.5) ** 2)
        + 3.0 * np.exp(-2.0 * xy[:, 0] ** 2 - 0.25 * xy[:, 1] ** 2)
    ) ** 3
    assert np.allclose(pot.evaluate(flat), bump, rtol=1e-12)
    harmonic = 0.5 * (rest**2).sum(axis=1)
    assert np.allclose(pot.evaluate(full) - pot.evaluate(flat), harmonic, rtol=1e-12)


def test_sixd_bounds_confine_first_two_axes_only():
    pot = make_potential("sixd")
    assert np.all(np.isinf(pot.bounds_low[2:]))
    assert np.all(np.isinf(pot.bounds_high[2:]))
    assert np.all(np.isfinite(pot.bounds_low[:2]))
    cloud = sample_mcmc(pot, 400, seed=1)
    inside = (cloud.points[:, :2] >= pot.bounds_low[:2]) & (
        cloud.points[:, :2] <= pot.bounds_high[:2]
    )
    assert inside.all()


def test_glassy_density_integrates_to_one():
    centers = glassy_centers()
    nx, ny = 800, 400
    xs = GLASSY_BOX_LOW[0] + (np.arange(nx) + 0.5) * 8.0 / nx
    ys = GLASSY_BOX_LOW[1] + (np.arange(ny) + 0.5) * 4.0 / ny
    cell = (8.0 / nx) * (4.0 / ny)
    mass = 0.0
    # Chunk the grid rows to bound the (points, centers) broadcast.
    for x0 in range(0, nx, 50):
        gx, gy = np.meshgrid(xs[x0 : x0 + 50], ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        mass += glassy_density(pts, centers).sum() * cell
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_glassy_density_matches_broadcast_oracle():
    centers = glassy_centers()
    pts = np.random.default_rng(8).uniform(-6.0, 6.0, (2000, 2))
    for chunk in (pts[:1], pts[1:33], pts[33:]):
        assert np.array_equal(
            glassy_density(chunk, centers), oracles.glassy_density(chunk, centers)
        )


def test_glassy_density_is_periodic():
    centers = glassy_centers()
    pts = np.array([[-3.9, -1.9], [0.3, 1.7], [3.95, 0.0]])
    shifted = pts + np.array([8.0, -4.0])
    assert np.allclose(
        glassy_density(pts, centers), glassy_density(shifted, centers), rtol=1e-12
    )


def test_glassy_energy_is_minus_log_density():
    pot = make_potential("glassy2d")
    pts = np.array([[0.0, 0.0], [-1.0, 0.5], [2.5, -1.2]])
    expected = -np.log(glassy_density(pts, glassy_centers()))
    assert np.allclose(pot.evaluate(pts), expected, rtol=1e-12)
    assert pot.period is not None
    assert np.allclose(pot.period, GLASSY_BOX_HIGH - GLASSY_BOX_LOW)


def test_glassy_centers_deterministic():
    a = glassy_centers()
    b = glassy_centers()
    assert np.array_equal(a, b)
    assert a.shape == (90, 2)


def _oracle_potential(name):
    """The named potential, its energy the oracle's for mb2d and glassy2d."""
    pot = make_potential(name)
    if name == "mb2d":
        return dataclasses.replace(
            pot, energy=lambda p: oracles.mueller_brown(p[:, 0], p[:, 1])
        )
    if name == "glassy2d":
        centers = glassy_centers()
        return dataclasses.replace(
            pot, energy=lambda p: -np.log(oracles.glassy_density(p, centers))
        )
    return pot


@pytest.mark.parametrize("name", ["gauss2d", "mb2d", "sixd", "glassy2d"])
@pytest.mark.parametrize(
    "kwargs",
    [
        # Three blocks of 32 walkers, the last cut short; one block cut
        # short; exactly one block; three blocks, one point of the last.
        dict(n=70, seed=11),
        dict(n=6, seed=11),
        dict(n=32, seed=3),
        dict(n=65, seed=0),
    ],
)
def test_sampler_matches_step_loop_oracle(name, kwargs):
    # Bit for bit: same draws in the same order, same arithmetic.
    got = sample_mcmc(make_potential(name), **kwargs)
    events = {}
    want = oracles.sample_mcmc(_oracle_potential(name), **kwargs, events=events)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.truth_F, want.truth_F)
    # The run takes the sixd hard box and the glassy2d period wrap.
    if name == "sixd":
        assert events["left_box"] > 0
    if name == "glassy2d":
        assert events["wrapped"] > 0


def test_sampler_burn_in_runs_every_step():
    # One energy call for the start, one per burn-in step, and 50 per
    # production block of 32 walkers.
    calls = []

    def energy(pts):
        calls.append(len(pts))
        return 0.5 * (pts * pts).sum(axis=1)

    pot = Potential(
        dim=1, beta=1.0, energy=energy,
        init_low=np.array([-1.0]), init_high=np.array([1.0]),
    )
    for n, blocks in [(2, 1), (32, 1), (33, 2), (70, 3)]:
        calls.clear()
        sample_mcmc(pot, n, seed=0)
        assert len(calls) == 1 + 2000 + 50 * blocks
        assert set(calls) == {32}


def test_potential_rejects_bad_boxes():
    base = dict(dim=1, beta=1.0, energy=lambda p: p[:, 0])
    for lo, hi in [(0.0, 0.0), (1.0, -1.0), (np.nan, 1.0), (-1.0, np.inf)]:
        with pytest.raises(ParameterError, match="finite with positive extent"):
            Potential(**base, init_low=[lo], init_high=[hi])
    for period in (0.0, -2.0, np.inf):
        with pytest.raises(ParameterError, match="period"):
            Potential(**base, init_low=[0.0], init_high=[0.5], period=[period])
    with pytest.raises(ParameterError, match="bounds_low < bounds_high"):
        Potential(**base, init_low=[0.0], init_high=[0.5],
                  bounds_low=[1.0], bounds_high=[-1.0])
    for lo, hi in [(5.0, 6.0), (-2.0, 0.0), (0.5, 1.5)]:
        with pytest.raises(ParameterError, match="inside the hard box"):
            Potential(**base, init_low=[lo], init_high=[hi],
                      bounds_low=[-1.0], bounds_high=[1.0])
    with pytest.raises(ParameterError, match="together"):
        Potential(**base, init_low=[0.0], init_high=[0.5], bounds_low=[-1.0])
    # An init box equal to the hard box is valid, as in sixd.
    Potential(**base, init_low=[-1.0], init_high=[1.0],
              bounds_low=[-1.0], bounds_high=[1.0])
    sixd = make_potential("sixd")
    assert np.array_equal(sixd.init_low[:2], sixd.bounds_low[:2])
    assert np.array_equal(sixd.init_high[:2], sixd.bounds_high[:2])


def test_sampler_matches_gaussian_covariance():
    cloud = sample_mcmc(make_potential("gauss2d"), 10000, seed=0)
    cov = np.cov(cloud.points.T)
    for i in range(2):
        for j in range(2):
            assert cov[i, j] == pytest.approx(GAUSS2D_SIGMA[i, j], rel=0.1)
    assert abs(cloud.points.mean(axis=0)).max() < 0.1


def test_sampler_truth_is_beta_times_energy():
    pot = make_potential("mb2d", beta=0.035)
    cloud = sample_mcmc(pot, 300, seed=7)
    assert cloud.truth_F is not None
    recomputed = 0.035 * pot.evaluate(cloud.points)
    assert np.allclose(cloud.truth_F, recomputed, rtol=1e-12)


def test_sampler_populates_all_three_basins():
    cloud = sample_mcmc(make_potential("mb2d"), 5000, seed=0)
    minima = np.array([pos for pos, _ in _mb_minima()])
    d2 = ((cloud.points[:, None, :] - minima[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    counts = np.bincount(nearest, minlength=3)
    assert (counts >= 50).all()


def test_sampler_deterministic_per_seed():
    pot = make_potential("gauss2d")
    a = sample_mcmc(pot, 128, seed=3)
    b = sample_mcmc(pot, 128, seed=3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.truth_F, b.truth_F)
    c = sample_mcmc(pot, 128, seed=4)
    assert not np.array_equal(a.points, c.points)


def test_sampler_warns_on_poor_acceptance():
    # A flat energy accepts every proposal, however wide the tuning makes it.
    pot = Potential(
        dim=2, beta=1.0, energy=lambda p: np.zeros(len(p)),
        init_low=np.zeros(2), init_high=np.ones(2),
    )
    with pytest.warns(UserWarning, match="acceptance rate 1.00"):
        sample_mcmc(pot, 64, seed=0)


def test_sampler_count_validation():
    pot = make_potential("gauss2d")
    # The package's one integer rule: bools and whole floats are refused.
    for n in (0, -3, 2.5, 100.0, True, np.inf):
        with pytest.raises(ParameterError, match="n must be an integer"):
            sample_mcmc(pot, n)
    # A single point cannot form a cloud.
    with pytest.raises(DataError):
        sample_mcmc(pot, 1)


def test_rotation_matrix_orthogonal_and_seeded():
    q = rotation_matrix(0)
    assert q.shape == (20, 20)
    assert np.abs(q.T @ q - np.eye(20)).max() < 1e-10
    assert np.array_equal(q, rotation_matrix(0))
    assert not np.array_equal(q, rotation_matrix(1))


def test_swiss_roll_coordinates():
    from bmti.geometry import PointCloud

    pts = np.array([[0.0, 0.0], [np.pi, 1.0], [1.0, -2.0]])
    cloud = PointCloud(points=pts, truth_F=np.array([0.1, 0.2, 0.3]))
    out = swiss_roll_embed(cloud, 2)
    assert out.points.shape == (3, 20)
    unrotated = out.points @ rotation_matrix(2)
    # x=0 rolls to the origin of the spiral plane.
    assert abs(unrotated[0, 0]) < 1e-12 and abs(unrotated[0, 1]) < 1e-12
    # x=pi rolls to (-pi, ~0).
    assert unrotated[1, 0] == pytest.approx(-np.pi, rel=1e-12)
    assert abs(unrotated[1, 1]) < 1e-12
    assert unrotated[1, 2] == pytest.approx(1.0, rel=1e-12)
    assert unrotated[2, 0] == pytest.approx(np.cos(1.0), rel=1e-12)
    assert unrotated[2, 1] == pytest.approx(np.sin(1.0), rel=1e-12)
    assert unrotated[2, 2] == pytest.approx(-2.0, rel=1e-12)
    # The padding columns stay zero up to the rotation's roundoff.
    assert np.abs(unrotated[:, 3:]).max() < 1e-12
    assert np.array_equal(out.truth_F, cloud.truth_F + 0.5 * np.log1p(pts[:, 0] ** 2))


def test_swiss_roll_truth_adds_the_log_area_stretch():
    # The rolled density on the surface is rho / sqrt(det J^T J), J the
    # Jacobian of the whole map (roll, padding, rotation) from the base
    # coordinates; J here comes from central differences of the map itself.
    from bmti.geometry import PointCloud

    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(-12.0, 12.0, 240), rng.normal(size=240)])
    added = swiss_roll_embed(PointCloud(points=pts, truth_F=np.zeros(240)), 3)
    h = 1e-5
    jac = np.stack(
        [
            (
                swiss_roll_embed(PointCloud(points=pts + h * step), 3).points
                - swiss_roll_embed(PointCloud(points=pts - h * step), 3).points
            ) / (2.0 * h)
            for step in np.eye(2)
        ],
        axis=2,
    )
    _, logdet = np.linalg.slogdet(np.einsum("nka,nkb->nab", jac, jac))
    np.testing.assert_allclose(added.truth_F, 0.5 * logdet, rtol=0, atol=1e-6)


def test_swiss_roll_rotation_preserves_distances():
    from bmti.geometry import PointCloud

    rng = np.random.default_rng(9)
    pts = rng.uniform(0.5, 3.0, size=(40, 2))
    cloud = PointCloud(points=pts)
    out = swiss_roll_embed(cloud, 0)
    assert out.points.shape == (40, 20)
    x1 = pts[:, 0]
    rolled = np.column_stack(
        [x1 * np.cos(x1), x1 * np.sin(x1), pts[:, 1:], np.zeros((40, 17))]
    )
    assert np.allclose(pdist(out.points), pdist(rolled), rtol=1e-10)


def test_swiss_roll_target_dim_validation():
    from bmti.geometry import PointCloud

    pts = np.random.default_rng(0).normal(size=(10, 20))
    with pytest.raises(ParameterError, match="cannot hold"):
        swiss_roll_embed(PointCloud(points=pts), 0)
    out = swiss_roll_embed(PointCloud(points=pts[:, :19]), 0)
    assert out.points.shape == (10, 20)


def test_dataset_defaults_table():
    assert DATASET_DEFAULTS["gauss2d"] == (2000, 1.0, False)
    assert DATASET_DEFAULTS["mb2d"] == (5000, 0.035, False)
    assert DATASET_DEFAULTS["sixd"] == (10000, 1.0, False)
    assert DATASET_DEFAULTS["glassy2d"] == (10000, 1.0, False)
    assert DATASET_DEFAULTS["mb2d-20d"] == (2000, 0.035, True)
    assert DATASET_DEFAULTS["glassy2d-20d"] == (10000, 1.0, True)


def test_generate_dataset_basic():
    cloud = generate_dataset("gauss2d", n=64, seed=2)
    assert cloud.points.shape == (64, 2)
    assert cloud.truth_F.shape == (64,)
    with pytest.raises(ParameterError, match="unknown dataset"):
        generate_dataset("spiral9")


def test_generate_dataset_rolled_matches_manual_embedding():
    base = generate_dataset("mb2d", n=50, seed=4)
    rolled = generate_dataset("mb2d-20d", n=50, seed=4)
    manual = swiss_roll_embed(base, 4)
    assert rolled.points.shape == (50, 20)
    assert np.array_equal(rolled.points, manual.points)
    assert np.array_equal(rolled.truth_F, manual.truth_F)
