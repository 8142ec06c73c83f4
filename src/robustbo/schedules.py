"""Confidence-width schedules: beta sequences, noise bounds, plateau widths,
and the running corruption-count estimator.

Three assumption regimes are supported, mirroring the classic GP-UCB cases:
a finite domain, a compact convex domain with smoothness constants, and an
RKHS-norm-bounded objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "FiniteDomain",
    "CompactConvex",
    "Rkhs",
    "AssumptionCase",
    "beta_prime",
    "noise_bound",
    "anchor_width",
    "wrench_width_fixed",
    "wrench_width_adaptive",
    "robust_beta",
    "estimate_tc",
]


@dataclass(frozen=True)
class FiniteDomain:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("domain size must be >= 1")


@dataclass(frozen=True)
class CompactConvex:
    a: float
    b: float
    r: float
    d: int

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.a, self.b, self.r)) or self.d < 1:  # each on its own: NaN fails
            raise ValueError("compact-convex constants must be positive and finite")


@dataclass(frozen=True)
class Rkhs:
    b_f: float

    def __post_init__(self):
        if not self.b_f > 0:
            raise ValueError("RKHS norm bound must be positive")


AssumptionCase = Union[FiniteDomain, CompactConvex, Rkhs]


def beta_prime(case: AssumptionCase, t: int, delta: float, gamma_t: float = 0.0) -> float:
    """Standard UCB confidence parameter for step t at failure budget delta.

    The RKHS case consumes the running information gain; the other cases
    ignore it.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if isinstance(case, FiniteDomain):
        return 2.0 * math.log(case.size * t * t * math.pi**2 / (6.0 * delta))
    if isinstance(case, CompactConvex):
        first = 2.0 * math.log(t * t * 2.0 * math.pi**2 / (3.0 * delta))
        second = 2.0 * case.d * math.log(
            t * t * case.d * case.b * case.r * math.sqrt(math.log(4.0 * case.d * case.a / delta))
        )
        return first + second
    if isinstance(case, Rkhs):
        return 2.0 * case.b_f + 300.0 * gamma_t * math.log(t / delta) ** 3
    raise TypeError(f"unknown assumption case {case!r}")


def noise_bound(case: AssumptionCase, sigma_noise: float, horizon: int, delta: float) -> float:
    """High-probability bound on the noise magnitude over the whole run."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if isinstance(case, Rkhs):
        # Noise assumed bounded by sigma_noise almost surely.
        return sigma_noise
    return sigma_noise * math.sqrt(2.0 * math.log(horizon / delta))


def anchor_width(b_f: float, kappa: float, n_t_val: float) -> float:
    """Fixed plateau half-width: objective bound plus the noise bound."""
    return b_f * math.sqrt(kappa) + n_t_val


def wrench_width_fixed(beta_anchor: float, kappa: float, n_t_val: float) -> float:
    """Adaptive-model half-width with the variance term at its prior maximum."""
    return math.sqrt(beta_anchor) * math.sqrt(kappa) + n_t_val


def wrench_width_adaptive(beta_anchor: float, sigma_proxy_at_x, n_t_val: float):
    """Per-point adaptive-model half-width using a posterior-std proxy."""
    proxy = np.asarray(sigma_proxy_at_x, dtype=float)
    if np.any(proxy < 0):
        raise ValueError("sigma proxy must be nonnegative")
    out = math.sqrt(beta_anchor) * proxy + n_t_val
    return float(out) if out.ndim == 0 else out


def robust_beta(beta_prime_val: float, c_w: float, tc_estimate: int) -> float:
    """Inflated confidence parameter (sqrt(beta') + c_w * sqrt(tc))^2.

    Returns beta' itself when tc is zero, so the zero-corruption reduction
    is exact (not merely up to a sqrt round-trip).
    """
    if tc_estimate < 0 or c_w < 0:
        raise ValueError("c_w and tc_estimate must be nonnegative")
    if tc_estimate == 0 or c_w == 0.0:
        return beta_prime_val
    return (math.sqrt(beta_prime_val) + c_w * math.sqrt(tc_estimate)) ** 2


def estimate_tc(residuals, widths) -> int:
    """Count of observations whose residual magnitude exceeds its plateau width (NaN counts)."""
    r = np.abs(np.asarray(residuals, dtype=float))
    w = np.asarray(widths, dtype=float)
    if w.ndim and r.shape != w.shape:  # a scalar width broadcasts
        raise ValueError("residuals and widths must have equal length")
    return int(np.count_nonzero(~(r <= w)))

