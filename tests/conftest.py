import numpy as np
import pytest

from robustbo.adversary import CorruptionBudget, NoCorruption
from robustbo.algorithms import BoState
from robustbo.kernels import KernelSpec
from robustbo.objectives import make_objective
from robustbo.schedules import FiniteDomain
from robustbo.search import DomainSpec
from robustbo.weights import ZERO_CENTER, PimqParams


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
    params = PimqParams(ZERO_CENTER, width, 1.0)
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


def make_state(algorithm, seed=0, horizon=20, policy=None, budget_count=0, grid=201, **kw):
    """A BoState on the 1-D Forrester objective, uncorrupted unless a policy is given; kw overrides any field."""
    obj = make_objective("forrester", 1.0)
    domain = DomainSpec.from_bounds(obj.bounds, grid)
    defaults = dict(
        algorithm=algorithm,
        objective=obj,
        policy=policy if policy is not None else NoCorruption(),
        budget=CorruptionBudget("fixed_count", horizon, count=budget_count),
        spec=KernelSpec("rbf", 0.15, 1.0),
        domain=domain,
        case=FiniteDomain(grid),
        delta=0.1,
        b_f=8.0,
        horizon=horizon,
        noise_rng=np.random.default_rng(seed),
        standardize="initial",
    )
    defaults.update(kw)
    return BoState(**defaults)
