import pytest

from robustbo.adversary import (
    CorruptionBudget,
    EagerBudget,
    GreedyClairvoyant,
    NoCorruption,
    budget_from_horizon,
    corrupt,
)


def test_budget_from_horizon_values():
    assert budget_from_horizon(100, 1.0 / 3.0) == 5
    assert budget_from_horizon(50, 0.0) == 1
    assert budget_from_horizon(50, 1.0) == 50
    with pytest.raises(ValueError):
        budget_from_horizon(0, 0.5)
    with pytest.raises(ValueError):
        budget_from_horizon(10, 1.5)


def test_budget_modes():
    b = CorruptionBudget("time_budget", 100, alpha=1.0 / 3.0)
    assert b.count == 5 and b.remaining == 5
    b2 = CorruptionBudget("fixed_count", 10, count=2)
    assert b2.remaining == 2
    with pytest.raises(ValueError):
        CorruptionBudget("fixed_count", 10)
    with pytest.raises(ValueError):
        CorruptionBudget("whenever", 10, count=1)
    # a value the mode never reads: time_budget's count is ceil(T**alpha)
    with pytest.raises(ValueError, match="no count"):
        CorruptionBudget("time_budget", 100, count=3, alpha=1.0 / 3.0)
    with pytest.raises(ValueError, match="no alpha"):
        CorruptionBudget("fixed_count", 10, count=2, alpha=0.5)


def test_none_policy_passthrough():
    budget = CorruptionBudget("fixed_count", 5, count=5)
    for t in range(1, 6):
        y, flag = corrupt(NoCorruption(), budget, 0.3, 1.25, t)
        assert y == 1.25 and flag is False
    assert budget.spent == 0


def test_greedy_near_and_far_values():
    policy = GreedyClairvoyant(0.7572, 0.1, 0.4, -10.0, 25.0)
    budget = CorruptionBudget("fixed_count", 10, count=10)
    y, flag = corrupt(policy, budget, 0.71, 4.0, 1)  # distance 0.047 < 0.1
    assert (y, flag) == (-10.0, True)
    y, flag = corrupt(policy, budget, 0.0, -3.0, 2)  # distance 0.757 > 0.4
    assert (y, flag) == (25.0, True)


def test_greedy_annulus_untouched():
    policy = GreedyClairvoyant(0.7572, 0.1, 0.4, -10.0, 25.0)
    budget = CorruptionBudget("fixed_count", 100, count=100)
    for x in (0.36, 0.5, 0.65, 0.86, 1.0):
        y, flag = corrupt(policy, budget, x, 2.0, 1)
        assert flag is False and y == 2.0
    assert budget.spent == 0


def test_greedy_threshold_validation():
    with pytest.raises(ValueError):
        GreedyClairvoyant(0.5, 0.4, 0.1, -1.0, 1.0)


def test_eager_spends_budget_first():
    policy = EagerBudget(-99.0)
    budget = CorruptionBudget("fixed_count", 5, count=2)
    flags = [corrupt(policy, budget, 0.0, 1.0, t)[1] for t in range(1, 6)]
    assert flags == [True, True, False, False, False]
    assert budget.spent == 2


def test_corruption_values_bit_exact():
    policy = EagerBudget(25.0)
    budget = CorruptionBudget("fixed_count", 1, count=1)
    y, _ = corrupt(policy, budget, 0.0, 1.234, 1)
    assert y == 25.0


def test_budget_never_exceeded_over_full_run():
    policy = GreedyClairvoyant(0.5, 0.1, 0.2, -1.0, 1.0)
    budget = CorruptionBudget("time_budget", 100, alpha=1.0 / 3.0)
    import numpy as np

    rng = np.random.default_rng(0)
    n = sum(corrupt(policy, budget, rng.uniform(), 0.0, t)[1] for t in range(1, 101))
    assert n == budget.spent <= 5


def test_step_beyond_horizon_rejected():
    budget = CorruptionBudget("fixed_count", 3, count=1)
    with pytest.raises(ValueError):
        corrupt(NoCorruption(), budget, 0.0, 1.0, 4)
