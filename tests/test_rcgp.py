from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import assert_same_posterior, make_inplateau_dataset
from oracles import deviation_schur
from robustbo.gp import GpPosterior, gp_fit
from robustbo.rcgp import rcgp_data, rcgp_fit
from robustbo.weights import ZERO_CENTER, PimqParams, build_corrections

GRID = np.linspace(0.0, 1.0, 101)


def test_no_data_prior(rbf):
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    post = rcgp_fit([], [], rbf, 1.0, params)
    mean, var = post.predict(0.5)
    assert mean[0] == 0.0 and var[0] == rbf.outputscale
    assert post.corrections.jw.shape == (0,)  # always a WeightCorrections, even empty


def test_single_inplateau_point_matches_plain_gp():
    from robustbo.kernels import KernelSpec

    spec = KernelSpec("rbf", 1.0, 1.0)
    params = PimqParams(ZERO_CENTER, 2.0, 1.0)
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
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    robust = rcgp_fit(X, y, rbf, 0.25, params)
    assert isinstance(robust, GpPosterior) and robust.X.shape == (6, 1)
    expected = gp_fit(X[:6], y[:6], rbf, 0.25, build_corrections(params, 0.25, y[:6]))
    for a, b in zip(robust.predict(GRID), expected.predict(GRID)):
        assert np.array_equal(a, b)


def test_variance_bounds(rng, rbf):
    X = rng.uniform(0, 1, size=10)
    y = np.concatenate([rng.normal(size=8), [30.0, -30.0]])
    params = PimqParams(ZERO_CENTER, 2.0, 1.0)
    _, var = rcgp_fit(X, y, rbf, 0.25, params).predict(GRID)
    assert np.all(var >= 0.0) and np.all(var <= rbf.outputscale + 1e-10)


def test_huge_outlier_barely_moves_posterior(rng, rbf):
    Xc = rng.uniform(0, 1, size=6)
    yc = rng.normal(0, 0.5, size=6)
    params = PimqParams(ZERO_CENTER, 3.0, 1.0)
    clean = gp_fit(Xc, yc, rbf, 0.25)
    full = rcgp_fit(np.append(Xc, 0.5), np.append(yc, 1e9), rbf, 0.25, params)
    cm, _ = clean.predict(GRID)
    fm, _ = full.predict(GRID)
    assert np.max(np.abs(cm - fm)) < 1e-3


def test_outlier_magnitude_insensitivity(rng, rbf):
    X = rng.uniform(0, 1, size=8)
    y = rng.normal(0, 0.5, size=8)
    params = PimqParams(ZERO_CENTER, 3.0, 1.0)
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
    params = PimqParams(ZERO_CENTER, 2.0, 1.0)
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


# -- extending by one point ---------------------------------------------------

_OUTLIER = {"clean": 0.0, "downweighted": 6.0, "dropped": 1e9, "nan": np.nan}


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(sorted(_OUTLIER)), min_size=1, max_size=14),
    n0=st.integers(0, 5),
    on_grid=st.booleans(),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extending_by_the_kept_points_matches_the_refit(seed, kinds, n0, on_grid, rbf):
    # identity corrections, downweighted and dropped points, on and off a grid:
    # rcgp_fit on a prefix, then one extend per later kept point with its corrections
    rng = np.random.default_rng(seed)
    n0 = min(n0, len(kinds) - 1)
    X = rng.uniform(0, 1, size=(len(kinds), 1))
    y = rng.normal(0, 0.4, size=len(kinds)) + np.array([_OUTLIER[k] for k in kinds]) * rng.choice([-1, 1], len(kinds))
    params = PimqParams(ZERO_CENTER, 1.5, 1.0)
    grid = GRID.reshape(-1, 1) if on_grid else None
    post = rcgp_fit(X[:n0], y[:n0], rbf, 0.25, params, grid)
    Xk, yk, corr, _ = rcgp_data(X, y, rbf, 0.25, params)
    for i in range(post.y.shape[0], yk.shape[0]):  # rcgp_data keeps the order, so the prefix's kept points come first
        post = post.extend(Xk[i], yk[i], corr[i:i + 1])
    want = rcgp_fit(X, y, rbf, 0.25, params, grid)
    assert_same_posterior(post, want, rng.uniform(0, 1, size=13))
    for name in ("weights", "jw", "mw"):
        assert np.array_equal(getattr(post.corrections, name), getattr(want.corrections, name))


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["clean", "downweighted", "nan"]), min_size=2, max_size=16),
    k=st.integers(1, 15),
    t=st.integers(1, 8),
    plain=st.booleans(),
    on_grid=st.booleans(),
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_head_then_extend_matches_the_refit_on_the_same_rows(seed, kinds, k, t, plain, on_grid, rbf):
    # a posterior on n rows keeps its first k and borders t rows after them,
    # some of its own later rows and some new ones, in any order; identity,
    # downweighted and (through rcgp_data) NaN-dropped points
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(len(kinds), 1))
    outliers = np.array([_OUTLIER[kind] for kind in kinds]) * rng.choice([-1, 1], len(kinds))
    y = rng.normal(0, 0.4, size=len(kinds)) + outliers
    params = PimqParams(ZERO_CENTER, 1.5, 1.0)
    Xk, yk, corr, _ = rcgp_data(X, y, rbf, 0.25, params)
    N = yk.shape[0]
    assume(N >= 2)
    t = min(t, N - 1)
    k = min(k, N - t)
    n = int(rng.integers(k + 1, N + 1))  # the posterior's rows: the head and n - k more
    perm = rng.permutation(N)  # rows in any order, not the data's
    Xk, yk, corr = Xk[perm], yk[perm], None if plain else corr[perm]
    grid = GRID.reshape(-1, 1) if on_grid else None
    post = gp_fit(Xk[:n], yk[:n], rbf, 0.25, None if plain else corr[:n], grid)
    border = k + rng.permutation(N - k)[:t]
    got = post.head(k).extend(Xk[border], yk[border], None if plain else corr[border])
    rows = np.concatenate([np.arange(k), border])
    want = gp_fit(Xk[rows], yk[rows], rbf, 0.25, None if plain else corr[rows], grid)
    assert_same_posterior(got, want, rng.uniform(0, 1, size=13))
    if not plain:
        for name in ("weights", "jw", "mw"):
            assert np.array_equal(getattr(got.corrections, name), getattr(want.corrections, name))


def test_rcgp_data_is_what_rcgp_fit_factors(rbf):
    params = PimqParams(ZERO_CENTER, 1.5, 1.0)
    X, y = np.array([0.1, 0.5, 0.9, 0.3]), np.array([0.2, 1e9, -0.1, 6.0])
    Xk, yk, corr, kept = rcgp_data(X, y, rbf, 0.25, params)
    post = rcgp_fit(X, y, rbf, 0.25, params)
    assert np.array_equal(Xk, post.X) and np.array_equal(yk, [0.2, -0.1, 6.0])
    assert np.array_equal(kept, [0, 2, 3])
    assert np.array_equal(corr.jw, post.corrections.jw) and corr.jw[-1] > 1.0  # 6.0 is downweighted, kept
    for Xbad, plateau in product((X[:3], np.append(X, 0.7)), (params, None)):  # rejected before X[kept]
        with pytest.raises(ValueError, match="equal length"):
            rcgp_data(Xbad, y, rbf, 0.25, plateau)
