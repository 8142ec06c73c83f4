import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustbo.kernels import (
    FactorizationError,
    KernelSpec,
    cross_matrix,
    gram_matrix,
    info_gain,
    jittered_cho_factor,
)


def k(spec, x, y):
    return cross_matrix(spec, x, y)[0, 0]


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", 1.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("rbf", 1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("rbf", [1.0, bad])
    with pytest.raises(ValueError):
        KernelSpec("cubic", 1.0)
    for bad in (True, "0.15", None):  # not a number: not read as 1.0 or 0.15
        with pytest.raises(ValueError, match="lengthscale"):
            KernelSpec("rbf", bad)
        with pytest.raises(ValueError, match="outputscale"):
            KernelSpec("rbf", 1.0, bad)
    assert KernelSpec("rbf", [1, 2], 3).lengthscale.dtype == np.float64  # integers are read as floats


def test_specs_compare_and_hash_by_value():
    # a multi-dimensional lengthscale compares as values, not as an ambiguous array truth value
    assert KernelSpec("rbf", [1.0, 2.0]) == KernelSpec("rbf", [1.0, 2.0])
    assert KernelSpec("rbf", 0.1) == KernelSpec("rbf", [0.1], 1)
    assert hash(KernelSpec("rbf", 0.1)) == hash(KernelSpec("rbf", [0.1], 1))
    for other in (KernelSpec("rbf", [1.0, 3.0]), KernelSpec("matern52", [1.0, 2.0]),
                  KernelSpec("rbf", [1.0, 2.0], 2.0), KernelSpec("rbf", 1.0)):
        assert KernelSpec("rbf", [1.0, 2.0]) != other
    assert len({KernelSpec("rbf", 0.1), KernelSpec("rbf", [0.1]), KernelSpec("matern52", 0.1)}) == 2
    # the value a hash was taken on cannot change: the spec keeps a read-only copy of the lengthscale
    given = np.array([1.0, 2.0])
    spec = KernelSpec("rbf", given)
    given[0] = 3.0
    assert spec == KernelSpec("rbf", [1.0, 2.0])
    with pytest.raises(ValueError):
        spec.lengthscale[0] = 3.0


def test_rbf_diagonal_is_outputscale():
    spec = KernelSpec("rbf", 1.0, 1.0)
    assert k(spec, 0.3, 0.3) == 1.0


def test_rbf_unit_distance():
    spec = KernelSpec("rbf", 1.0, 1.0)
    assert k(spec, 0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_matern_diagonal_is_outputscale():
    spec = KernelSpec("matern52", 0.7, 2.5)
    assert k(spec, 0.4, 0.4) == 2.5


@given(
    x=st.floats(-5, 5), y=st.floats(-5, 5),
    ls=st.floats(0.05, 3.0), os_=st.floats(0.1, 4.0),
    family=st.sampled_from(["rbf", "matern52"]),
)
@settings(max_examples=60, deadline=None)
def test_symmetry_and_bound(x, y, ls, os_, family):
    spec = KernelSpec(family, ls, os_)
    kxy = k(spec, x, y)
    assert kxy == k(spec, y, x)
    # nonnegative, not strictly positive: exp underflows to 0 at large distances
    assert 0.0 <= kxy <= os_ + 1e-12


def test_gram_single_point():
    spec = KernelSpec("rbf", 1.0, 3.0)
    assert gram_matrix(spec, [0.2]).tolist() == [[3.0]]


def test_gram_duplicate_points():
    spec = KernelSpec("rbf", 1.0, 1.0)
    np.testing.assert_allclose(gram_matrix(spec, [0.0, 0.0]), np.ones((2, 2)))


def test_gram_two_points():
    spec = KernelSpec("rbf", 1.0, 1.0)
    K = gram_matrix(spec, [0.0, 1.0])
    expected = math.exp(-0.5)
    np.testing.assert_allclose(K, [[1.0, expected], [expected, 1.0]], atol=1e-12)


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(KernelSpec("rbf", 1.0), np.empty((0, 1)))


def test_dimension_mismatch():
    spec = KernelSpec("rbf", [1.0, 1.0])
    with pytest.raises(ValueError):
        cross_matrix(spec, np.zeros((3, 3)), np.zeros((3, 3)))


def test_gram_factorizes_with_bounded_jitter(rng):
    for _ in range(20):
        spec = KernelSpec("rbf", rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0))
        X = rng.uniform(0, 1, size=rng.integers(2, 25))
        A = gram_matrix(spec, X)
        L, jitter = jittered_cho_factor(A, spec.outputscale)
        assert 0.0 <= jitter <= 1e-6 * spec.outputscale
        L = np.tril(L)  # the upper triangle keeps A's entries
        np.testing.assert_allclose(L @ L.T, A + jitter * np.eye(len(X)), rtol=0, atol=1e-12)


def test_jitter_gives_up_on_indefinite_matrix():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(FactorizationError):
        jittered_cho_factor(A, 1.0)


def test_info_gain_empty_is_zero(rbf):
    assert info_gain(rbf, np.empty((0, 1)), 1.0) == 0.0


def test_info_gain_single_point():
    spec = KernelSpec("rbf", 1.0, 1.0)
    assert info_gain(spec, [0.3], 1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_info_gain_monotone_in_points(rng, rbf):
    X = list(rng.uniform(0, 1, size=12))
    gains = [info_gain(rbf, X[:k], 0.5) for k in range(len(X) + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


def test_info_gain_requires_positive_noise(rbf):
    with pytest.raises(ValueError):
        info_gain(rbf, [0.0], 0.0)
