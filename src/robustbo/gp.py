"""The one conjugate GP posterior, plain or robust, with Cholesky-based solves.

The robust posterior (:mod:`robustbo.rcgp`) is this fit with K + noise_var*J_w
and targets y - m_w; the plain GP is J_w = I, m_w = 0 on the same lines, so an
all-in-plateau robust fit is bit-identical to the plain fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import KernelSpec, _as_points, cross_matrix, gram_matrix, jittered_cho_factor, solve_cho
from .weights import WeightCorrections

__all__ = ["GpPosterior", "gp_fit"]


@dataclass(frozen=True)
class GpPosterior:
    """Immutable fitted GP: data, corrections (None: plain GP), factorized K + noise_var*J_w."""

    X: np.ndarray
    y: np.ndarray
    spec: KernelSpec
    noise_var: float
    corrections: Optional[WeightCorrections]
    chol: object = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    def predict(self, Xq):
        """Vectorized posterior mean k'a and variance k(x,x) - k' A^-1 k at query points (m, d)."""
        mean, Kq = self._mean(Xq)
        if Kq is None:
            return mean, np.full(mean.shape[0], self.spec.outputscale)
        var = self.spec.outputscale - np.sum(Kq * solve_cho(self.chol, Kq), axis=0)
        var[var < 0.0] = 0.0  # negative only through round-off
        return mean, var

    def predict_mean(self, Xq):
        """predict's mean alone, without the n x n solve of the variance."""
        return self._mean(Xq)[0]

    def _mean(self, Xq):
        """Posterior mean at query points (m, d) and its cross-covariance (None without data)."""
        Xq = _as_points(Xq, self.spec.dim)
        if self.X.shape[0] == 0:
            return np.zeros(Xq.shape[0]), None
        Kq = cross_matrix(self.spec, self.X, Xq)  # (n, m)
        return Kq.T @ self.alpha, Kq


def gp_fit(X, y, spec: KernelSpec, noise_var: float,
           corrections: Optional[WeightCorrections] = None) -> GpPosterior:
    """Fit the conjugate GP posterior via Cholesky of K + noise_var*J_w on y - m_w.

    corrections=None is the plain GP (J_w = I, m_w = 0); otherwise it holds
    one (jw, mw) entry per point.  The only place the noise diagonal is added
    to a Gram matrix.
    """
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] == 0:
        return GpPosterior(np.empty((0, spec.dim)), y, spec, noise_var, corrections, None, np.empty(0))
    X = _as_points(X, spec.dim)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have equal length")
    # noise_var * 1.0 and y - 0.0 are exact, so identity corrections give the plain fit's bits.
    jw, mw = (1.0, 0.0) if corrections is None else (corrections.jw, corrections.mw)
    A = gram_matrix(spec, X)
    A[np.diag_indices_from(A)] += noise_var * jw
    chol = jittered_cho_factor(A, spec.outputscale)
    alpha = solve_cho(chol, y - mw)
    return GpPosterior(X, y, spec, float(noise_var), corrections, chol, alpha)
