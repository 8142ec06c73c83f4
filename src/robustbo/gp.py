"""Standard conjugate GP posterior with Cholesky-based solves.

Also serves as the idealized uncorrupted-posterior oracle in the
robustness tests, so the prediction path is shared (bit-for-bit) with
the robust posterior in :mod:`robustbo.rcgp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, _as_points, cross_matrix, gram_matrix, jittered_cho_factor, solve_cho

__all__ = ["GpPosterior", "gp_fit"]


def _predict_core(spec: KernelSpec, X: np.ndarray, chol, alpha: np.ndarray, Xq: np.ndarray):
    """Shared posterior prediction: mean k'a, var k(x,x) - k' A^-1 k."""
    if X.shape[0] == 0:
        mean = np.zeros(Xq.shape[0])
        var = np.full(Xq.shape[0], spec.outputscale)
        return mean, var
    Kq = cross_matrix(spec, X, Xq)  # (n, m)
    mean = Kq.T @ alpha
    var = spec.outputscale - np.sum(Kq * solve_cho(chol, Kq), axis=0)
    var[var < 0.0] = 0.0  # negative only through round-off
    return mean, var


@dataclass(frozen=True)
class GpPosterior:
    """Immutable fitted GP: training data plus the factorized K + noise_var*I."""

    X: np.ndarray
    y: np.ndarray
    spec: KernelSpec
    noise_var: float
    chol: object = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    def predict(self, Xq):
        """Vectorized posterior mean and variance at query points (m, d)."""
        Xq = _as_points(Xq, self.spec.dim)
        return _predict_core(self.spec, self.X, self.chol, self.alpha, Xq)


def gp_fit(X, y, spec: KernelSpec, noise_var: float) -> GpPosterior:
    """Fit the conjugate GP posterior via Cholesky of K + noise_var*I."""
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] == 0:
        X = np.empty((0, spec.dim))
        return GpPosterior(X, y, spec, noise_var, None, np.empty(0))
    X = _as_points(X, spec.dim)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have equal length")
    A = gram_matrix(spec, X)
    A[np.diag_indices_from(A)] += noise_var
    chol = jittered_cho_factor(A, spec.outputscale)
    alpha = solve_cho(chol, y)
    return GpPosterior(X, y, spec, float(noise_var), chol, alpha)
