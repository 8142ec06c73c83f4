"""The one conjugate GP posterior, plain or robust, with Cholesky-based solves.

The robust posterior (:mod:`robustbo.rcgp`) is this fit with K + noise_var*J_w
and targets y - m_w; the plain GP is J_w = I, m_w = 0 on the same lines, so an
all-in-plateau robust fit is bit-identical to the plain fit.

A fit keeps the lower factor L of A = K + noise_var*J_w and w = L^-1 (y - m_w),
so one more point borders L by one row (:meth:`GpPosterior.extend`) instead
of refactoring A.  On a fixed point set (the 1-D acquisition grid) it also
keeps V = L^-1 K(X, points) and the predictions there, which grow by one row
of V per point as well.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import KernelSpec, _as_points, cross_matrix, gram_matrix, jittered_cho_factor, solve_cho
from .weights import WeightCorrections

__all__ = ["GpPosterior", "GridPredictions", "gp_fit"]

# A bordered factor is trusted only when its new pivot d^2 exceeds this
# fraction of the new diagonal entry of A; below it, gp_fit refactors A with
# jittered_cho_factor instead.
MIN_PIVOT_RATIO = 1e-10


@dataclass(frozen=True)
class GridPredictions:
    """Posterior mean and variance on a fixed point set, with V = L^-1 K(X, points)."""

    points: np.ndarray  # (m, d)
    V: np.ndarray = field(repr=False)  # (n, m)
    mean: np.ndarray = field(repr=False)
    var: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.mean, self.var):  # predict hands these out; no caller may change them
            a.flags.writeable = False


@dataclass(frozen=True)
class GpPosterior:
    """Immutable fitted GP: data, corrections (None: plain GP), factorized K + noise_var*J_w.

    chol is (L, True) with L the lower factor (its upper triangle is unused),
    w = L^-1 (y - m_w) and alpha = A^-1 (y - m_w).  jitter is the diagonal jitter the
    factorization needed; grid holds the predictions on the point set the
    posterior was fit for, or None.
    """

    X: np.ndarray
    y: np.ndarray
    spec: KernelSpec
    noise_var: float
    corrections: Optional[WeightCorrections]
    chol: object = field(repr=False)
    w: np.ndarray = field(repr=False)
    jitter: float = 0.0
    grid: Optional[GridPredictions] = field(default=None, repr=False)

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        """A^-1 (y - m_w), solved on first use: an extended posterior needs it only off its grid."""
        return solve_cho(self.chol, self.y if self.corrections is None else self.y - self.corrections.mw)

    def predict(self, Xq):
        """Vectorized posterior mean k'a and variance k(x,x) - |L^-1 k|^2 at query points (m, d).

        Asked for the grid the posterior was fit for (that same array), it
        returns the kept grid predictions, read-only.
        """
        if self.grid is not None and Xq is self.grid.points:
            return self.grid.mean, self.grid.var
        mean, Kq = self._mean(Xq)
        if Kq is None:
            return mean, np.full(mean.shape[0], self.spec.outputscale)
        return mean, self._variance(solve_triangular(self.chol[0], Kq, lower=True, check_finite=False))

    def predict_mean(self, Xq):
        """predict's mean alone, without the triangular solve of the variance."""
        return self._mean(Xq)[0]

    def _mean(self, Xq):
        """Posterior mean at query points (m, d) and its cross-covariance (None without data)."""
        Xq = _as_points(Xq, self.spec.dim)
        if self.X.shape[0] == 0:
            return np.zeros(Xq.shape[0]), None
        Kq = cross_matrix(self.spec, self.X, Xq)  # (n, m)
        return Kq.T @ self.alpha, Kq

    def _variance(self, V):
        var = self.spec.outputscale - np.sum(V * V, axis=0)
        var[var < 0.0] = 0.0  # negative only through round-off
        return var

    def extend(self, x, y: float, corrections: Optional[WeightCorrections] = None) -> Optional["GpPosterior"]:
        """The posterior with one more point (x, y), by bordering the factor.

        corrections holds the new point's (weight, jw, mw), None for the plain
        GP.  Costs O(n^2 + n*m) on m grid points against gp_fit's
        O(n^3 + n^2*m), and agrees with gp_fit on the extended data up to
        round-off.  Returns None when the bordered factor is not to be
        trusted: this factor needed jitter, or the new pivot is not finite
        and clearly positive; the caller refits with gp_fit then.
        """
        if (corrections is None) != (self.corrections is None):
            raise ValueError("extend a plain posterior without corrections, a robust one with them")
        if self.jitter:
            return None
        x = _as_points(x, self.spec.dim)
        jw, mw = (1.0, 0.0) if corrections is None else (float(corrections.jw[0]), float(corrections.mw[0]))
        L, n = self.chol[0], self.X.shape[0]
        l = solve_triangular(L, cross_matrix(self.spec, self.X, x)[:, 0], lower=True, check_finite=False)
        diag = self.spec.outputscale + self.noise_var * jw  # gram_matrix's exact diagonal, plus the noise
        d2 = diag - l @ l
        if not (math.isfinite(d2) and d2 > MIN_PIVOT_RATIO * diag):
            return None
        d = math.sqrt(d2)
        L1 = np.zeros((n + 1, n + 1))
        L1[:n, :n] = L
        L1[n, :n] = l
        L1[n, n] = d
        w_new = (float(y) - mw - l @ self.w) / d
        if not math.isfinite(w_new):
            raise ValueError("targets must be finite")
        grid = self.grid
        if grid is not None:
            v = (cross_matrix(self.spec, x, grid.points)[0] - l @ grid.V) / d  # the new row of V
            var = np.maximum(grid.var - v * v, 0.0)  # negative only through round-off
            grid = GridPredictions(grid.points, np.vstack([grid.V, v]), grid.mean + v * w_new, var)
        if corrections is not None:
            corrections = WeightCorrections(*(np.append(getattr(self.corrections, f), getattr(corrections, f))
                                              for f in ("weights", "jw", "mw")))
        return GpPosterior(np.vstack([self.X, x]), np.append(self.y, y), self.spec, self.noise_var,
                           corrections, (L1, True), np.append(self.w, w_new), 0.0, grid)


def gp_fit(X, y, spec: KernelSpec, noise_var: float,
           corrections: Optional[WeightCorrections] = None, grid=None) -> GpPosterior:
    """Fit the conjugate GP posterior via Cholesky of K + noise_var*J_w on y - m_w.

    corrections=None is the plain GP (J_w = I, m_w = 0); otherwise it holds
    one (jw, mw) entry per point.  The only place the noise diagonal is added
    to a Gram matrix.  With grid points (m, d) the posterior also keeps its
    predictions there.
    """
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    y = np.asarray(y, dtype=float).reshape(-1)
    X = _as_points(X, spec.dim) if y.shape[0] else np.empty((0, spec.dim))
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have equal length")
    # noise_var * 1.0 and y - 0.0 are exact, so identity corrections give the plain fit's bits.
    jw, mw = (1.0, 0.0) if corrections is None else (corrections.jw, corrections.mw)
    if not np.all(np.isfinite(y - mw)):
        raise ValueError("targets must be finite")
    L, jitter = np.empty((0, 0)), 0.0
    if y.shape[0]:
        A = gram_matrix(spec, X)
        A[np.diag_indices_from(A)] += noise_var * jw
        (L, _), jitter = jittered_cho_factor(A, spec.outputscale)
    w = solve_triangular(L, y - mw, lower=True, check_finite=False)
    post = GpPosterior(X, y, spec, float(noise_var), corrections, (L, True), w, jitter)
    if grid is None:
        return post
    grid = _as_points(grid, spec.dim)
    Kg = cross_matrix(spec, X, grid)
    V = solve_triangular(L, Kg, lower=True, check_finite=False)
    return dataclasses.replace(post, grid=GridPredictions(grid, V, Kg.T @ post.alpha, post._variance(V)))
