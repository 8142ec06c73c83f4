"""Stationary covariance kernels, Gram matrices, and the information gain of a point set.

Points are 1-D float arrays of shape (d,); point sets are (n, d) arrays.
Scalars are accepted for 1-D problems and promoted internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "KernelSpec",
    "cross_matrix",
    "gram_matrix",
    "info_gain",
    "jittered_cho_factor",
    "FactorizationError",
]

_FAMILIES = ("rbf", "matern52")


class FactorizationError(RuntimeError):
    """Cholesky factorization failed even after jitter escalation."""


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A stationary kernel: family, per-dimension lengthscale, outputscale.

    k(x, x) == outputscale for every x, so the kernel bound is simply the
    outputscale.  Two specs are equal, and hash alike, when their family,
    lengthscale values and outputscale are.
    """

    family: str
    lengthscale: np.ndarray
    outputscale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}")
        ls, os_ = np.array(self.lengthscale, ndmin=1), np.asarray(self.outputscale)  # real numbers: not True or "0.1"
        if ls.dtype.kind not in "iuf" or ls.ndim != 1 or not np.all((ls > 0) & (ls < np.inf)):  # a NaN fails too
            raise ValueError(f"lengthscale must be positive and finite numbers, got {self.lengthscale!r}")
        if os_.dtype.kind not in "iuf" or os_.ndim != 0 or not 0 < os_ < np.inf:
            raise ValueError(f"outputscale must be a positive and finite number, got {self.outputscale!r}")
        ls = ls.astype(float, copy=False)  # still np.array's copy, made read-only: the hash reads it
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscale", ls)
        object.__setattr__(self, "outputscale", float(self.outputscale))

    def _key(self) -> tuple:
        return self.family, tuple(self.lengthscale.tolist()), self.outputscale

    def __eq__(self, other):
        return isinstance(other, KernelSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self) -> int:
        return self.lengthscale.shape[0]


def _as_points(x, dim: int) -> np.ndarray:
    """Promote x to an (n, d) array and check the dimension."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # Ambiguity: a (d,) single point vs n scalar points in 1-D.
        arr = arr.reshape(1, -1) if arr.shape[0] == dim and dim > 1 else arr.reshape(-1, 1)
    if arr.shape[-1] != dim:
        raise ValueError(f"point dimension {arr.shape[-1]} does not match lengthscale dimension {dim}")
    return arr


def _scaled_sqdist(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, m) matrix of squared distances after lengthscale scaling."""
    As = A / spec.lengthscale
    Bs = B / spec.lengthscale
    d2 = np.sum(As * As, axis=1)[:, None] + np.sum(Bs * Bs, axis=1)[None, :]
    d2 -= 2.0 * As @ Bs.T
    return np.maximum(d2, 0.0, out=d2)


def cross_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Kernel matrix k(A, B) of shape (len(A), len(B)).  Built in the distance
    buffer, in the order of outputscale * exp(-0.5 d2) and
    outputscale * (1 + r + r r / 3) * exp(-r), so the bits are those formulas'."""
    A = _as_points(A, spec.dim)
    B = _as_points(B, spec.dim)
    k = _scaled_sqdist(spec, A, B)
    if spec.family == "rbf":
        k *= -0.5
        np.exp(k, out=k)
        k *= spec.outputscale
        return k
    # Matern 5/2, with r = sqrt(5 d2) in k's buffer
    k *= 5.0
    np.sqrt(k, out=k)
    decay = np.negative(k)
    np.exp(decay, out=decay)
    quad = k * k
    quad /= 3.0
    k += 1.0
    k += quad
    k *= spec.outputscale
    k *= decay
    return k


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric PSD kernel matrix of a point set, exact outputscale diagonal."""
    X = _as_points(X, spec.dim)
    if X.shape[0] == 0:
        raise ValueError("gram_matrix requires a nonempty point set")
    K = cross_matrix(spec, X, X)
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, spec.outputscale)
    return K


def jittered_cho_factor(A: np.ndarray, outputscale: float):
    """Cholesky with escalating diagonal jitter: (L, jitter added), L the lower
    factor of A + jitter*I (its upper triangle keeps A's entries).

    Starts at zero jitter, then 1e-10 escalating x10 up to 1e-6 * outputscale.
    Raises FactorizationError once the cap is exceeded.
    """
    cap = 1e-6 * outputscale
    jitter = 0.0
    n = A.shape[0]
    while True:
        try:
            M = A if jitter == 0.0 else A + jitter * np.eye(n)
            return cho_factor(M, lower=True)[0], jitter
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > cap:
                raise FactorizationError(
                    f"Cholesky failed after jitter escalation to {jitter:g}"
                ) from None


def info_gain(spec: KernelSpec, X, noise_var: float) -> float:
    """Information gain 0.5 * logdet(I + K / noise_var) of the points X.

    A computable, monotone surrogate for the maximum information gain used
    by the RKHS-case confidence schedule.  Each call factorizes I + K / noise_var
    over all of X anew, O(n^3); nothing is carried between calls.
    """
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return 0.0
    K = gram_matrix(spec, X)
    M = np.eye(K.shape[0]) + K / noise_var
    L, _ = jittered_cho_factor(M, 1.0 + spec.outputscale / noise_var)
    return float(np.sum(np.log(np.diag(L))))


def solve_cho(chol, b: np.ndarray) -> np.ndarray:
    """cho_solve with a (factor, lower) pair.  A tracer-only binding: no
    library path calls it, since every solve is a triangular one with a
    posterior's lower factor L; perfbench's tracer still wraps it here and in
    gp, rcgp and algorithms."""
    return cho_solve(chol, b)
