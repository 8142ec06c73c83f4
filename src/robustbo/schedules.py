"""Confidence-width schedules: beta sequences, noise bounds and plateau widths.

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
    "plateau_width",
    "robust_beta",
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


def plateau_width(multiplier: float, std, n_t: float):
    """P-IMQ plateau half-width multiplier * std + n_t: the anchor's b_f * sqrt(kappa) + n_t,
    and the wrench's sqrt(beta) * std + n_t at the prior std sqrt(kappa) or per point at
    the anchor's posterior std (an array in, an array out)."""
    std = np.asarray(std, dtype=float)
    if np.any(std < 0):
        raise ValueError("std must be nonnegative")
    out = multiplier * std + n_t
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

