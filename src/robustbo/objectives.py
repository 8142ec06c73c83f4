"""Synthetic benchmark objectives with seeded Gaussian observation noise.

All objectives are posed as maximization problems; classic minimization
benchmarks are negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Objective", "forrester", "make_objective", "observe"]


@dataclass(frozen=True)
class Objective:
    name: str
    bounds: np.ndarray  # (d, 2)
    evaluate: Callable[[np.ndarray], float]  # noiseless
    noise_var: float

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if b.shape[1] != 2 or np.any(b[:, 0] >= b[:, 1]):
            raise ValueError("bounds must be (d, 2) with lower < upper")
        object.__setattr__(self, "bounds", b)
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    def in_domain(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x >= self.bounds[:, 0]) and np.all(x <= self.bounds[:, 1]))


def forrester(x: float) -> float:
    """Negated Forrester function on [0, 1]: -(6x-2)^2 sin(12x-4)."""
    return -((6.0 * x - 2.0) ** 2) * math.sin(12.0 * x - 4.0)


def _forrester_eval(x: np.ndarray) -> float:
    return forrester(float(np.atleast_1d(x)[0]))


def _sinusoid_eval(x: np.ndarray) -> float:
    v = float(np.atleast_1d(x)[0])
    return math.sin(3.0 * math.pi * v) + 0.5 * v


def _branin_eval(x: np.ndarray) -> float:
    # Negated Branin on [-5, 10] x [0, 15].
    x1, x2 = float(x[0]), float(x[1])
    a, b, c = 1.0, 5.1 / (4.0 * math.pi**2), 5.0 / math.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * math.pi)
    val = a * (x2 - b * x1 * x1 + c * x1 - r) ** 2 + s * (1.0 - t) * math.cos(x1) + s
    return -val


_REGISTRY = {
    "forrester": (_forrester_eval, [[0.0, 1.0]]),
    "sinusoid": (_sinusoid_eval, [[0.0, 1.0]]),
    "branin": (_branin_eval, [[-5.0, 10.0], [0.0, 15.0]]),
}


def make_objective(name: str, noise_var: float) -> Objective:
    if name not in _REGISTRY:
        raise ValueError(f"unknown objective {name!r}; known: {sorted(_REGISTRY)}")
    fn, bounds = _REGISTRY[name]
    return Objective(name, np.asarray(bounds), fn, float(noise_var))


def observe(obj: Objective, x, rng: np.random.Generator) -> float:
    """Noisy observation at x; out-of-domain queries are an error, never clipped."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not obj.in_domain(x):
        raise ValueError(f"query {x} outside the domain of {obj.name}")
    noise = rng.standard_normal() * math.sqrt(obj.noise_var)
    return obj.evaluate(x) + noise
