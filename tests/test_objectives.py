import math

import numpy as np
import pytest

from robustbo.objectives import forrester, make_objective, observe


def test_forrester_values():
    assert forrester(0.5) == pytest.approx(-math.sin(2.0), abs=1e-12)
    assert forrester(1.0 / 3.0) == pytest.approx(0.0, abs=1e-12)


def test_forrester_grid_optimum():
    grid = np.linspace(0.0, 1.0, 10001)
    vals = np.array([forrester(x) for x in grid])
    i = int(np.argmax(vals))
    assert grid[i] == pytest.approx(0.7572, abs=2e-4)
    assert vals[i] == pytest.approx(6.0207, abs=1e-3)


def test_registry_and_validation():
    obj = make_objective("forrester", 1.0)
    assert obj.dim == 1
    assert make_objective("branin", 0.5).dim == 2
    with pytest.raises(ValueError):
        make_objective("rosenbrock", 1.0)
    with pytest.raises(ValueError):
        make_objective("forrester", -1.0)


def test_observe_noiseless_is_exact():
    obj = make_objective("forrester", 0.0)
    rng = np.random.default_rng(0)
    assert observe(obj, 0.5, rng) == obj.evaluate(np.array([0.5]))


def test_observe_out_of_domain_is_error():
    obj = make_objective("forrester", 1.0)
    with pytest.raises(ValueError):
        observe(obj, 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        observe(obj, -0.01, np.random.default_rng(0))


def test_observe_noise_moments():
    obj = make_objective("sinusoid", 0.49)
    rng = np.random.default_rng(7)
    draws = np.array([observe(obj, 0.25, rng) for _ in range(100_000)])
    truth = obj.evaluate(np.array([0.25]))
    assert abs(draws.mean() - truth) < 3.0 * 0.7 / math.sqrt(100_000)
    assert abs(draws.var() - 0.49) < 0.05 * 0.49


def test_noise_stream_determinism():
    obj = make_objective("forrester", 1.0)
    a = [observe(obj, 0.3, np.random.default_rng(42)) for _ in range(3)]
    b = [observe(obj, 0.3, np.random.default_rng(42)) for _ in range(3)]
    assert a == b


def test_branin_known_optimum_region():
    obj = make_objective("branin", 0.0)
    # classic minimizers of the un-negated function; value 0.397887 -> -0.397887 here
    for x in ([-math.pi, 12.275], [math.pi, 2.275], [9.42478, 2.475]):
        assert obj.evaluate(np.asarray(x)) == pytest.approx(-0.397887, abs=1e-4)
