import numpy as np
import pytest

from conftest import make_inplateau_dataset
from robustbo.gp import gp_fit
from robustbo.rcgp import RcgpPosterior, deviation_schur, rcgp_fit
from robustbo.weights import ZERO_CENTER, build_corrections, pimq_params_for_noise

GRID = np.linspace(0.0, 1.0, 101)


def test_no_data_prior(rbf):
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 1.0)
    post = rcgp_fit([], [], rbf, 1.0, params)
    mean, var = post.predict(0.5)
    assert mean[0] == 0.0 and var[0] == rbf.outputscale
    assert post.corrections.jw.shape == (0,)  # always a WeightCorrections, even empty


def test_single_inplateau_point_matches_plain_gp():
    from robustbo.kernels import KernelSpec

    spec = KernelSpec("rbf", 1.0, 1.0)
    params = pimq_params_for_noise(ZERO_CENTER, 2.0, 1.0, 1.0)
    post = rcgp_fit([0.0], [1.0], spec, 1.0, params)
    mean, var = post.predict(0.0)
    assert mean[0] == pytest.approx(0.5, abs=1e-12)
    assert var[0] == pytest.approx(0.5, abs=1e-12)


def test_plateau_equivalence_bitwise(rng, rbf):
    X, y, params = make_inplateau_dataset(rng, 12)
    plain = gp_fit(X, y, rbf, 0.25)
    robust = rcgp_fit(X, y, rbf, 0.25, params)
    pm, pv = plain.predict(GRID)
    rm, rv = robust.predict(GRID)
    assert np.array_equal(pm, rm)
    assert np.array_equal(pv, rv)


def test_robust_fit_is_gp_fit_on_the_kept_points(rng, rbf):
    # corrections, drop the rejected point, then the one gp_fit
    X = rng.uniform(0, 1, size=7)
    y = np.append(rng.normal(0, 0.5, size=6), 1e9)
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 0.25)
    robust = rcgp_fit(X, y, rbf, 0.25, params)
    assert isinstance(robust, RcgpPosterior) and robust.X.shape == (6, 1)
    expected = gp_fit(X[:6], y[:6], rbf, 0.25, build_corrections(params, 0.25, X[:6], y[:6]))
    for a, b in zip(robust.predict(GRID), expected.predict(GRID)):
        assert np.array_equal(a, b)


def test_variance_bounds(rng, rbf):
    X = rng.uniform(0, 1, size=10)
    y = np.concatenate([rng.normal(size=8), [30.0, -30.0]])
    params = pimq_params_for_noise(ZERO_CENTER, 2.0, 1.0, 0.25)
    _, var = rcgp_fit(X, y, rbf, 0.25, params).predict(GRID)
    assert np.all(var >= 0.0) and np.all(var <= rbf.outputscale + 1e-10)


def test_huge_outlier_barely_moves_posterior(rng, rbf):
    Xc = rng.uniform(0, 1, size=6)
    yc = rng.normal(0, 0.5, size=6)
    params = pimq_params_for_noise(ZERO_CENTER, 3.0, 1.0, 0.25)
    clean = gp_fit(Xc, yc, rbf, 0.25)
    full = rcgp_fit(np.append(Xc, 0.5), np.append(yc, 1e9), rbf, 0.25, params)
    cm, _ = clean.predict(GRID)
    fm, _ = full.predict(GRID)
    assert np.max(np.abs(cm - fm)) < 1e-3


def test_outlier_magnitude_insensitivity(rng, rbf):
    X = rng.uniform(0, 1, size=8)
    y = rng.normal(0, 0.5, size=8)
    params = pimq_params_for_noise(ZERO_CENTER, 3.0, 1.0, 0.25)
    means = []
    for mag in (1e6, 1e9, 1e12):
        yy = y.copy()
        yy[3] = mag
        means.append(rcgp_fit(X, yy, rbf, 0.25, params).predict(GRID)[0])
    assert np.max(np.abs(means[0] - means[1])) < 1e-4
    assert np.max(np.abs(means[1] - means[2])) < 1e-6  # converges as magnitude grows


def _random_split_instance(rng, rbf, n_clean=5, n_corrupt=2, noise_var=0.25):
    Xu = rng.uniform(0, 1, size=n_clean)
    yu = rng.normal(0, 0.4, size=n_clean)
    Xc = rng.uniform(0, 1, size=n_corrupt)
    yc = rng.uniform(5, 20, size=n_corrupt) * rng.choice([-1, 1], size=n_corrupt)
    params = pimq_params_for_noise(ZERO_CENTER, 2.0, 1.0, noise_var)
    return (Xu, yu), (Xc, yc), params


def test_deviation_matches_direct_difference(rng, rbf):
    for _ in range(25):
        clean, corrupt, params = _random_split_instance(rng, rbf)
        X = np.concatenate([clean[0], corrupt[0]])
        y = np.concatenate([clean[1], corrupt[1]])
        full_mean, _ = rcgp_fit(X, y, rbf, 0.25, params).predict(GRID)
        clean_mean, _ = gp_fit(*clean, rbf, 0.25).predict(GRID)
        dev = deviation_schur(clean, corrupt, rbf, 0.25, params, GRID)
        np.testing.assert_allclose(dev, full_mean - clean_mean, atol=1e-8)


def test_deviation_zero_for_consistent_targets(rng, rbf):
    clean, corrupt, params = _random_split_instance(rng, rbf)
    Xc = corrupt[0]
    mu_uc, _ = gp_fit(*clean, rbf, 0.25).predict(Xc)
    # in-plateau corrupt targets have zero mean-shift, so y = mu_uc zeroes the gap
    yc = mu_uc.copy()
    dev = deviation_schur(clean, (Xc, yc), rbf, 0.25, params, GRID)
    np.testing.assert_allclose(dev, 0.0, atol=1e-10)


def test_deviation_requires_corrupt_points(rng, rbf):
    clean, _, params = _random_split_instance(rng, rbf)
    with pytest.raises(ValueError):
        deviation_schur(clean, (np.empty(0), np.empty(0)), rbf, 0.25, params, 0.5)
