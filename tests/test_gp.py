import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from conftest import assert_same_posterior
from robustbo.gp import gp_fit
from robustbo.kernels import KernelSpec, cross_matrix
from robustbo.weights import PimqParams, WeightCorrections, build_corrections


def test_empty_data_returns_prior():
    # a (0, m) cross-covariance gives a mean of exactly 0 and kappa - 0 variance
    for spec, Xq in (
        (KernelSpec("rbf", 0.3, 2.5), np.linspace(0.0, 1.0, 7).reshape(-1, 1)),
        (KernelSpec("matern52", [0.3, 1.2], 0.7), np.random.default_rng(0).uniform(-1.0, 1.0, (9, 2))),
    ):
        post = gp_fit([], [], spec, 1.0)
        mean, var = post.predict(Xq)
        assert np.array_equal(mean, np.zeros(len(Xq)))
        assert np.array_equal(var, np.full(len(Xq), spec.outputscale))
        assert np.array_equal(post.predict_mean(Xq), np.zeros(len(Xq)))


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
    # J_w = I and m_w = 0 passed explicitly give the plain fit's factor and weights bit for bit,
    # and the plain fit carries the in-plateau corrections, the weights build_corrections gives in-plateau points
    X = rng.uniform(0, 1, size=9)
    y = rng.normal(size=9)
    plain = gp_fit(X, y, rbf, 0.3)
    ident = gp_fit(X, y, rbf, 0.3, WeightCorrections(np.ones(9), np.ones(9), np.zeros(9)))
    want = WeightCorrections.in_plateau(9, 0.3)
    for name in ("weights", "jw", "mw"):
        assert np.array_equal(getattr(plain.corrections, name), getattr(want, name))
    assert np.all(plain.corrections.weights == build_corrections(PimqParams(0.0, 1.0, 1.0), 0.3, X, 0.0 * y).weights)
    assert np.all(plain.corrections.weights == math.sqrt(0.3 / 2.0))
    assert np.array_equal(plain.L, ident.L)
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


# -- extending by one point ---------------------------------------------------

GRID = np.linspace(0.0, 1.0, 201).reshape(-1, 1)


def _extended(X, y, spec, noise_var, n0, grid=None):
    """gp_fit on the first n0 points, then one extend per further point."""
    post = gp_fit(X[:n0], y[:n0], spec, noise_var, grid=grid)
    for x, v in zip(X[n0:], y[n0:]):
        post = post.extend(x, v)
    return post


@given(
    seed=st.integers(0, 2**32 - 1),
    n0=st.integers(0, 6),
    k=st.integers(1, 10),
    lengthscale=st.floats(0.05, 0.5),
    noise_var=st.floats(0.01, 1.0),
    on_grid=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_extend_matches_the_refit(seed, n0, k, lengthscale, noise_var, on_grid):
    rng = np.random.default_rng(seed)
    spec = KernelSpec("rbf", lengthscale, 1.0)
    X = rng.uniform(0, 1, size=(n0 + k, 1))
    y = rng.normal(0, 1.0, size=n0 + k)
    grid = GRID if on_grid else None
    got = _extended(X, y, spec, noise_var, n0, grid)
    want = gp_fit(X, y, spec, noise_var, grid=grid)
    assert_same_posterior(got, want, rng.uniform(0, 1, size=17))


def _assert_alpha_is_cho_solve(post):
    """alpha's slow twin: scipy's cho_solve on (L, lower), two solves from y - m_w, to 1e-10 relative."""
    want = cho_solve((post.L, True), post.y - post.corrections.mw)
    assert np.linalg.norm(post.alpha - want) <= 1e-10 * np.linalg.norm(want)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 10),
    t=st.integers(1, 4),
    family=st.sampled_from(["rbf", "matern52"]),
    robust=st.booleans(),
    on_grid=st.booleans(),
    jittered=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_alpha_is_the_cholesky_solve(seed, n, t, family, robust, on_grid, jittered):
    # alpha = L^-T w, one back-substitution on the kept w, against the full solve
    # with the factor: after gp_fit, after extend by t rows, and on every head
    rng = np.random.default_rng(seed)
    spec = KernelSpec(family, rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0))
    X, y = rng.uniform(0, 1, size=(n + t, 1)), rng.normal(0, 1.0, size=n + t)
    noise_var = 0.3
    if jittered:  # three observations of one point with almost no noise: the factor needs jitter
        n, noise_var = n + 3, 1e-20
        X, y = np.vstack([np.repeat(X[:1], 3, axis=0), X]), np.concatenate([rng.normal(0, 1.0, size=3), y])
    corr = WeightCorrections.in_plateau(n + t, noise_var)
    if robust:
        jw = np.where(rng.random(n + t) < 0.4, rng.uniform(1.0, 50.0, n + t), 1.0)
        corr = WeightCorrections(np.sqrt(noise_var / 2.0 / jw), jw, np.where(jw != 1.0, rng.normal(size=n + t), 0.0))
    post = gp_fit(X[:n], y[:n], spec, noise_var, corr[:n], GRID if on_grid else None)
    assert (post.jitter > 0) == jittered
    _assert_alpha_is_cho_solve(post)
    extended = post.extend(X[n:], y[n:], corr[n:])
    assert (extended is None) == jittered  # a jittered factor is refit, never bordered
    for k in range(n + t + 1) if extended is not None else ():
        _assert_alpha_is_cho_solve(extended.head(k))


def test_grid_predictions_are_predict_on_the_grid(rng, rbf):
    X = rng.uniform(0, 1, size=9)
    y = rng.normal(size=9)
    points = GRID.copy()  # equal values, another array: predict computes them
    for post in (gp_fit(X, y, rbf, 0.3, grid=GRID), gp_fit([], [], rbf, 0.3, grid=GRID)):
        mean, var = post.predict(points)
        assert np.array_equal(post.grid.mean, mean) and np.array_equal(post.grid.var, var)
    post = _extended(X, y, rbf, 0.3, 0, GRID)  # from the prior, one point at a time
    for a, b in zip((post.grid.mean, post.grid.var), post.predict(points)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_predict_on_the_fit_grid_returns_the_kept_predictions(rng, rbf):
    post = gp_fit(rng.uniform(0, 1, size=5), rng.normal(size=5), rbf, 0.3, grid=GRID)
    mean, var = post.predict(GRID)
    assert mean is post.grid.mean and var is post.grid.var
    with pytest.raises(ValueError, match="read-only"):
        mean[0] = 0.0


def test_extend_refuses_a_jittered_factor():
    # three copies of one point with almost no noise: K + noise is singular to
    # working precision, so the factorization needs jitter and is neither
    # extended nor cut to a head (its leading block factors A + jitter*I)
    spec = KernelSpec("rbf", 0.3, 1.0)
    post = gp_fit([0.5, 0.5, 0.5], [1.0, 1.0, 1.0], spec, 1e-20)
    assert post.jitter > 0
    assert post.extend(0.2, 0.0) is None
    assert post.head(2) is None and post.head(3) is None
    assert gp_fit([0.5], [1.0], spec, 0.1).jitter == 0.0


def test_extend_refuses_a_vanishing_pivot():
    # a repeated point with almost no noise leaves a pivot of about the noise,
    # far below MIN_PIVOT_RATIO of the diagonal
    spec = KernelSpec("rbf", 0.3, 1.0)
    post = gp_fit([0.2, 0.7], [1.0, -1.0], spec, 1e-14)
    assert post.jitter == 0.0
    assert post.extend(0.7, -1.0) is None
    assert post.extend(0.45, 0.0) is not None


def test_extend_rejects_non_finite_targets_like_the_fit(rbf):
    post = gp_fit([0.2, 0.7], [1.0, -1.0], rbf, 0.1)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            post.extend(0.4, bad)
        with pytest.raises(ValueError, match="finite"):
            gp_fit([0.2, 0.7, 0.4], [1.0, -1.0, bad], rbf, 0.1)


def _fields(post):
    return (post.X, post.y, post.corrections.weights, post.corrections.jw, post.corrections.mw, post.L,
            post.w, post.alpha, post.grid.V, post.grid.mean, post.grid.var)


def test_extend_without_corrections_is_extend_with_in_plateau_ones(rng, rbf):
    # the left-out corrections are the in-plateau ones, bit for bit, on a plain and on a robust
    # posterior, for one row and for several
    jw = np.where(np.arange(6) % 2 == 0, 5.0, 1.0)
    robust = WeightCorrections(np.sqrt(0.05 / jw), jw, np.where(jw != 1.0, -0.3, 0.0))
    for t in (1, 3):
        X, y = rng.uniform(0, 1, size=6 + t), rng.normal(size=6 + t)
        for post in (gp_fit(X[:6], y[:6], rbf, 0.1, grid=GRID), gp_fit(X[:6], y[:6], rbf, 0.1, robust, GRID)):
            got = post.extend(X[6:], y[6:])
            want = post.extend(X[6:], y[6:], WeightCorrections.in_plateau(t, 0.1))
            for a, b in zip(_fields(got), _fields(want)):
                assert np.array_equal(a, b)


# -- bordering several rows after a head --------------------------------------


def _one_row_border(post, x, y, jw=1.0, mw=0.0):
    """A single new row bordered onto post: l = L^-1 k(X, x), d = sqrt(kappa + nv*jw - l.l),
    the new entry of w and row of V divided by d.  Returns (L, w, V, grid mean, grid variance)."""
    L, n, spec = post.L, post.X.shape[0], post.spec
    l = solve_triangular(L, cross_matrix(spec, post.X, x)[:, 0], lower=True, check_finite=False)
    d = math.sqrt(spec.outputscale + post.noise_var * jw - l @ l)
    L1 = np.zeros((n + 1, n + 1))
    L1[:n, :n] = L
    L1[n, :n] = l
    L1[n, n] = d
    w_new = (float(y) - mw - l @ post.w) / d
    v = (cross_matrix(spec, x, post.grid.points)[0] - l @ post.grid.V) / d
    return (L1, np.append(post.w, w_new), np.vstack([post.grid.V, v]), post.grid.mean + v * w_new,
            np.maximum(post.grid.var - v * v, 0.0))


@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("robust", [False, True])
def test_a_one_row_border_is_the_one_row_formula_bit_for_bit(n, robust, rng):
    for _ in range(10):
        spec = KernelSpec("rbf", rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0))
        X = rng.uniform(0, 1, size=(n + 1, 1))
        y = rng.normal(size=n + 1)
        corr = None
        if robust:
            jw = np.where(rng.random(n + 1) < 0.4, rng.uniform(1.0, 50.0, n + 1), 1.0)
            corr = WeightCorrections(np.ones(n + 1), jw, np.where(jw != 1.0, rng.normal(size=n + 1), 0.0))
        post = gp_fit(X[:n], y[:n], spec, 0.3, None if corr is None else corr[:n], GRID)
        got = post.extend(X[n:], y[n:], None if corr is None else corr[n:])
        want = _one_row_border(post, X[n], y[n], *((corr.jw[n], corr.mw[n]) if robust else ()))
        for a, b in zip((got.L, got.w, got.grid.V, got.grid.mean, got.grid.var), want):
            assert np.array_equal(a, b)


def test_head_of_every_row_is_the_posterior_itself(rng, rbf):
    X, y = rng.uniform(0, 1, size=9), rng.normal(size=9)
    for post in (gp_fit(X, y, rbf, 0.3), gp_fit(X, y, rbf, 0.3, grid=GRID), gp_fit([], [], rbf, 0.3, grid=GRID)):
        assert post.head(post.y.shape[0]) is post


@pytest.mark.parametrize("X2", [[0.7, 0.35, 0.9], [0.35, 0.7, 0.9], [0.35, 0.5, 0.2], [0.35, 0.35, 0.9],
                                [0.35, 0.9, 0.35]],
                         ids=["old-first", "old-second", "old-last", "new-twice", "new-again-last"])
def test_a_failed_pivot_anywhere_in_the_block_returns_none(X2):
    # with almost no noise a repeated point, old or new, leaves a pivot of
    # about the noise, far below MIN_PIVOT_RATIO of its diagonal entry
    spec = KernelSpec("rbf", 0.3, 1.0)
    post = gp_fit([0.2, 0.7], [1.0, -1.0], spec, 1e-14, grid=GRID)
    assert post.extend(X2, [0.0, 0.5, -0.5]) is None
    assert post.extend([0.35, 0.5, 0.9], [0.0, 0.5, -0.5]) is not None
