"""Frequency-constrained corruption channel and concrete adversary policies.

The adversary sees the queried point before choosing whether to corrupt the
observation; magnitudes are unconstrained but the total number of corrupted
observations is capped by the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "CorruptionBudget",
    "NoCorruption",
    "GreedyClairvoyant",
    "EagerBudget",
    "AdversaryPolicy",
    "budget_from_horizon",
    "corrupt",
]


def budget_from_horizon(horizon: int, alpha: float) -> int:
    """ceil(T^alpha) corruptions allowed over a horizon of T steps."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return int(math.ceil(horizon**alpha))


@dataclass
class CorruptionBudget:
    """Mutable spend counter against a fixed-count or T^alpha allowance."""

    mode: str  # "fixed_count" | "time_budget"
    horizon: int
    count: Optional[int] = None
    alpha: Optional[float] = None
    spent: int = 0

    def __post_init__(self):
        if self.mode == "fixed_count":
            if self.count is None or self.count < 0 or self.alpha is not None:
                raise ValueError(f"fixed_count budget requires a nonnegative count and no alpha, got {self!r}")
        elif self.mode == "time_budget":
            if self.alpha is None or self.count is not None:  # the count is ceil(horizon**alpha)
                raise ValueError(f"time_budget requires alpha and no count, got {self!r}")
            self.count = budget_from_horizon(self.horizon, self.alpha)
        else:
            raise ValueError(f"unknown budget mode {self.mode!r}")

    @property
    def remaining(self) -> int:
        return self.count - self.spent

    def spend(self) -> None:
        if self.remaining <= 0:
            raise RuntimeError("corruption budget exhausted")
        self.spent += 1


@dataclass(frozen=True)
class NoCorruption:
    """Pass-through policy; never corrupts."""

    def proposal(self, x, y_clean, t):
        return None


@dataclass(frozen=True)
class GreedyClairvoyant:
    """Knows the optimum: low value near it, high value far from it.

    Queries in the annulus [near_thresh, far_thresh] are left alone.
    Eligible queries are corrupted eagerly (earliest first) until the
    budget runs out.
    """

    x_star: np.ndarray
    near_thresh: float
    far_thresh: float
    low_value: float
    high_value: float

    def __post_init__(self):
        if not self.near_thresh < self.far_thresh:
            raise ValueError("near_thresh must be < far_thresh")
        object.__setattr__(self, "x_star", np.atleast_1d(np.asarray(self.x_star, dtype=float)))

    def proposal(self, x, y_clean, t):
        dist = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float)) - self.x_star))
        if dist < self.near_thresh:
            return self.low_value
        if dist > self.far_thresh:
            return self.high_value
        return None


@dataclass(frozen=True)
class EagerBudget:
    """Spends the budget as fast as possible, regardless of the query."""

    corruption_value: float

    def proposal(self, x, y_clean, t):
        return self.corruption_value


AdversaryPolicy = Union[NoCorruption, GreedyClairvoyant, EagerBudget]


def corrupt(policy: AdversaryPolicy, budget: CorruptionBudget, x, y_clean: float, t: int):
    """Pass one observation through the corruption channel.

    Returns (y_observed, was_corrupted).  The clean value passes through
    whenever the policy declines or the budget is exhausted.
    """
    if t > budget.horizon:
        raise ValueError(f"step {t} exceeds the horizon {budget.horizon}")
    if budget.remaining > 0:
        value = policy.proposal(x, y_clean, t)
        if value is not None:
            budget.spend()
            return float(value), True
    return float(y_clean), False
