import numpy as np
import pytest

from robustbo.kernels import KernelSpec
from robustbo.weights import ZERO_CENTER, pimq_params_for_noise


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rbf():
    return KernelSpec("rbf", 0.3, 1.0)


def make_inplateau_dataset(rng, n, noise_var=0.25, width=10.0):
    """Random 1-D dataset whose targets all sit inside a zero-centered plateau."""
    X = rng.uniform(0.0, 1.0, size=n)
    y = rng.normal(0.0, 0.5, size=n)
    params = pimq_params_for_noise(ZERO_CENTER, width, 1.0, noise_var)
    return X, y, params


def assert_same_posterior(got, want, points, atol=1e-10):
    """Same data; predictions, grid predictions and alpha (relative to its size) within atol."""
    assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
    for a, b in zip(got.predict(points), want.predict(points)):
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)
    np.testing.assert_allclose(got.alpha, want.alpha, rtol=0, atol=atol * max(1.0, np.max(np.abs(want.alpha), initial=0)))
    if want.grid is not None:
        for a, b in ((got.grid.mean, want.grid.mean), (got.grid.var, want.grid.var)):
            np.testing.assert_allclose(a, b, rtol=0, atol=atol)
        np.testing.assert_allclose(got.grid.V, want.grid.V, rtol=0, atol=atol)
