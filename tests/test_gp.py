import numpy as np
import pytest

from robustbo.gp import gp_fit
from robustbo.kernels import KernelSpec
from robustbo.weights import WeightCorrections


def test_empty_data_returns_prior(rbf):
    post = gp_fit([], [], rbf, 1.0)
    mean, var = post.predict(0.3)
    assert mean[0] == 0.0
    assert var[0] == rbf.outputscale


def test_single_point_posterior_by_hand():
    spec = KernelSpec("rbf", 1.0, 1.0)
    post = gp_fit([0.0], [1.0], spec, 1.0)
    mean, var = post.predict(0.0)
    assert mean[0] == pytest.approx(0.5, abs=1e-12)
    assert var[0] == pytest.approx(0.5, abs=1e-12)


def test_far_from_data_reverts_to_prior():
    spec = KernelSpec("rbf", 0.1, 1.3)
    post = gp_fit([0.0], [5.0], spec, 0.5)
    mean, var = post.predict(50.0)
    assert abs(mean[0]) < 1e-6
    assert var[0] == pytest.approx(1.3, abs=1e-6)


def test_duplicate_observation_shrinks_variance(rbf):
    one = gp_fit([0.2], [1.0], rbf, 0.5)
    two = gp_fit([0.2, 0.2], [1.0, 1.0], rbf, 0.5)
    assert two.predict(0.2)[1][0] < one.predict(0.2)[1][0]


def test_variance_bounds(rng, rbf):
    X = rng.uniform(0, 1, size=15)
    y = rng.normal(size=15)
    post = gp_fit(X, y, rbf, 0.3)
    _, var = post.predict(np.linspace(0, 1, 101))
    assert np.all(var >= 0.0)
    assert np.all(var <= rbf.outputscale + 1e-10)


def test_permutation_invariance(rng, rbf):
    X = rng.uniform(0, 1, size=10)
    y = rng.normal(size=10)
    perm = rng.permutation(10)
    grid = np.linspace(0, 1, 31)
    m1, v1 = gp_fit(X, y, rbf, 0.4).predict(grid)
    m2, v2 = gp_fit(X[perm], y[perm], rbf, 0.4).predict(grid)
    np.testing.assert_allclose(m1, m2, atol=1e-10)
    np.testing.assert_allclose(v1, v2, atol=1e-10)


def test_interpolation_as_noise_vanishes(rng, rbf):
    X = np.array([0.1, 0.4, 0.8])
    y = np.array([1.0, -0.5, 0.3])
    post = gp_fit(X, y, rbf, 1e-10)
    mean, _ = post.predict(X)
    np.testing.assert_allclose(mean, y, atol=1e-4)


def test_adding_point_never_increases_variance(rng, rbf):
    grid = np.linspace(0, 1, 51)
    for _ in range(10):
        n = rng.integers(2, 12)
        X = rng.uniform(0, 1, size=n)
        y = rng.normal(size=n)
        _, v_before = gp_fit(X[:-1], y[:-1], rbf, 0.3).predict(grid)
        _, v_after = gp_fit(X, y, rbf, 0.3).predict(grid)
        assert np.all(v_after <= v_before + 1e-8)


def test_rejects_mismatched_lengths(rbf):
    with pytest.raises(ValueError):
        gp_fit([0.0, 1.0], [1.0], rbf, 1.0)


def test_rejects_nonpositive_noise(rbf):
    with pytest.raises(ValueError):
        gp_fit([0.0], [1.0], rbf, 0.0)


def test_identity_corrections_run_the_plain_fit(rng, rbf):
    # J_w = I and m_w = 0 passed explicitly give the plain fit's factor and weights bit for bit
    X = rng.uniform(0, 1, size=9)
    y = rng.normal(size=9)
    plain = gp_fit(X, y, rbf, 0.3)
    ident = gp_fit(X, y, rbf, 0.3, WeightCorrections(np.ones(9), np.ones(9), np.zeros(9)))
    assert plain.corrections is None
    assert np.array_equal(plain.chol[0], ident.chol[0])
    assert np.array_equal(plain.alpha, ident.alpha)


def test_predict_mean_is_predicts_mean(rng, rbf):
    # the mean-only path skips the variance solve and returns predict's mean bit for bit
    X = rng.uniform(0, 1, size=12)
    y = rng.normal(size=12)
    jw = np.where(np.arange(12) % 3 == 0, 4.0, 1.0)
    grid = np.linspace(0, 1, 57)
    for post in (gp_fit([], [], rbf, 0.3), gp_fit(X, y, rbf, 0.3),
                 gp_fit(X, y, rbf, 0.3, WeightCorrections(np.ones(12), jw, -0.1 * (jw - 1.0)))):
        assert np.array_equal(post.predict_mean(grid), post.predict(grid)[0])
