"""The one conjugate GP posterior, with Cholesky-based solves.

The robust posterior (:mod:`robustbo.rcgp`) fits K + noise_var*J_w on y - m_w
with P-IMQ corrections; the plain GP is the same fit with in-plateau ones
(J_w = I, m_w = 0), so an all-in-plateau robust fit equals it in every field.

A fit keeps the lower factor L of A = K + noise_var*J_w and w = L^-1 (y - m_w);
every other quantity is a triangular solve with L: alpha = L^-T w and the
variances |L^-1 k|^2.  So t more points border L by t rows
(:meth:`GpPosterior.extend`) instead of refactoring A, and the posterior of
its first k rows is the leading block (:meth:`GpPosterior.head`).  On a fixed
point set (the 1-D acquisition grid) it also keeps V = L^-1 K(X, points) and
the predictions there, which grow by one row of V per point as well.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import KernelSpec, _as_points, cross_matrix, gram_matrix, jittered_cho_factor
# Tracer-only: unused here; perfbench's tracer wraps this binding of this module.
from .kernels import solve_cho  # noqa: F401
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
    """Immutable fitted GP: data, corrections (in-plateau for the plain GP), factorized K + noise_var*J_w.

    L is the lower factor of A (its upper triangle is unused: cho_factor
    leaves A's entries there), w = L^-1 (y - m_w) and alpha = A^-1 (y - m_w)
    = L^-T w.  jitter is the diagonal jitter the factorization needed;
    grid holds the predictions on the point set the posterior was fit for,
    or None.  The rows (X, y, corrections, L, w, V) are in the order the
    points were factored, which for a bordered model may differ from the
    order they were observed in.
    """

    X: np.ndarray
    y: np.ndarray
    spec: KernelSpec
    noise_var: float
    corrections: WeightCorrections
    L: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    jitter: float = 0.0
    grid: Optional[GridPredictions] = field(default=None, repr=False)

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        """A^-1 (y - m_w) = L^-T w, solved on first use: an extended posterior needs it only off its grid."""
        return solve_triangular(self.L, self.w, lower=True, trans="T")

    def predict(self, Xq):
        """Vectorized posterior mean k'a and variance k(x,x) - |L^-1 k|^2 at query points (m, d).

        Asked for the grid the posterior was fit for (that same array), it
        returns the kept grid predictions, read-only.
        """
        if self.grid is not None and Xq is self.grid.points:
            return self.grid.mean, self.grid.var
        Kq = cross_matrix(self.spec, self.X, Xq)  # (n, m); without data (0, m), so the prior
        return Kq.T @ self.alpha, self._variance(solve_triangular(self.L, Kq, lower=True, check_finite=False))

    def predict_mean(self, Xq):
        """predict's mean alone, without the triangular solve of the variance."""
        return cross_matrix(self.spec, self.X, Xq).T @ self.alpha

    def _variance(self, V):
        var = self.spec.outputscale - np.sum(V * V, axis=0)
        var[var < 0.0] = 0.0  # negative only through round-off
        return var

    def head(self, k: int) -> Optional["GpPosterior"]:
        """The posterior of the first k rows: L[:k, :k], w[:k] and, on a grid, V[:k].

        Costs O(k*m) for the grid mean and variance.  Returns None when the
        factor needed jitter, since its leading block then factors A + jitter*I.
        """
        if self.jitter:
            return None
        if k == self.y.shape[0]:
            return self
        w, grid = self.w[:k], self.grid
        if grid is not None:
            V = grid.V[:k]
            grid = GridPredictions(grid.points, V, w @ V, self._variance(V))
        return GpPosterior(self.X[:k], self.y[:k], self.spec, self.noise_var, self.corrections[:k],
                           self.L[:k, :k], w, 0.0, grid)

    def extend(self, X2, y2, corrections: Optional[WeightCorrections] = None) -> Optional["GpPosterior"]:
        """The posterior with t more points (X2, y2) after its own, by bordering the factor.

        corrections holds the new points' (weight, jw, mw); left out, they
        are in-plateau, as in gp_fit.  With B = L^-1 K(X, X2) the new block
        of the factor is the Cholesky factor L22 of the Schur complement
        A22 - B'B, and the new rows of w and V are L22^-1 (y2 - m_w2 - B'w) and
        L22^-1 (K(X2, points) - B'V).  Costs O(t*n^2 + t*n*m) on m grid
        points against gp_fit's O(n^3 + n^2*m), and agrees with gp_fit on
        the extended data up to round-off.  The t x t block is factored and
        solved row by row, dividing by each pivot, so one point (t = 1) is
        bordered with exactly the arithmetic of a single new row.  Returns
        None when the bordered factor is not to be trusted: this factor
        needed jitter, or a new pivot is not finite and clearly positive; the
        caller refits with gp_fit then.
        """
        if self.jitter:
            return None
        spec, L, n = self.spec, self.L, self.X.shape[0]
        X2 = _as_points(X2, spec.dim)
        y2 = np.asarray(y2, dtype=float).reshape(-1)
        t = y2.shape[0]
        corrections = WeightCorrections.in_plateau(t, self.noise_var) if corrections is None else corrections
        B = solve_triangular(L, cross_matrix(spec, self.X, X2), lower=True, check_finite=False)  # (n, t)
        # The Schur complement A22 - B'B; its diagonal kappa + nv*jw - b'b is
        # formed as a single new row forms it (gram_matrix's exact diagonal,
        # plus the noise).  An in-plateau point's jw = 1 and mw = 0 drop out exactly.
        diag = spec.outputscale + self.noise_var * corrections.jw
        S = np.diag(diag) - B.T @ B
        if t > 1:  # the covariances among the new points
            K22 = cross_matrix(spec, X2, X2)
            np.fill_diagonal(K22, 0.0)
            S += K22
        grid = self.grid
        w2 = y2 - corrections.mw - B.T @ self.w  # becomes the new entries of w
        if grid is not None:
            V2 = cross_matrix(spec, X2, grid.points) - B.T @ grid.V  # becomes the new rows of V
            mean, var = grid.mean, grid.var
        L1 = np.zeros((n + t, n + t))
        L1[:n, :n] = L
        L1[n:, :n] = B.T
        L22 = L1[n:, n:]
        for i in range(t):  # right-looking Cholesky of S; row i of w2 and V2 is solved as row i of L22 completes
            d2 = S[i, i]
            if not (math.isfinite(d2) and d2 > MIN_PIVOT_RATIO * diag[i]):
                return None
            L22[i, i] = d = math.sqrt(d2)
            if i:  # forward substitution: take off the rows above
                l = L22[i, :i]
                w2[i] -= l @ w2[:i]
                if grid is not None:
                    V2[i] -= l @ V2[:i]
            w2[i] /= d
            if not math.isfinite(w2[i]):
                raise ValueError("targets must be finite")
            if grid is not None:
                v = V2[i]
                v /= d
                mean, var = mean + v * w2[i], var - v * v
            if i + 1 < t:  # the Schur complement of row i in the rows below
                c = L22[i + 1:, i] = S[i + 1:, i] / d
                S[i + 1:, i + 1:] -= np.outer(c, c)
        if grid is not None:  # a variance is negative only through round-off
            grid = GridPredictions(grid.points, np.concatenate((grid.V, V2)), mean, np.maximum(var, 0.0))
        return GpPosterior(np.concatenate((self.X, X2)), np.concatenate((self.y, y2)), spec, self.noise_var,
                           self.corrections + corrections, L1, np.concatenate((self.w, w2)), 0.0, grid)


def gp_fit(X, y, spec: KernelSpec, noise_var: float,
           corrections: Optional[WeightCorrections] = None, grid=None) -> GpPosterior:
    """Fit the conjugate GP posterior via Cholesky of K + noise_var*J_w on y - m_w.

    corrections holds a (weight, jw, mw) entry per point, in-plateau ones
    (J_w = I, m_w = 0: the plain GP) when left out.  noise_var*jw is formed
    here and, for the rows it borders, in GpPosterior.extend, the same way.
    With grid points (m, d) the posterior also keeps its predictions there.
    """
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    y = np.asarray(y, dtype=float).reshape(-1)
    X = _as_points(X, spec.dim) if y.shape[0] else np.empty((0, spec.dim))
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have equal length")
    corrections = WeightCorrections.in_plateau(y.shape[0], noise_var) if corrections is None else corrections
    jw, mw = corrections.jw, corrections.mw
    if not np.all(np.isfinite(y - mw)):
        raise ValueError("targets must be finite")
    L, jitter = np.empty((0, 0)), 0.0
    if y.shape[0]:
        A = gram_matrix(spec, X)
        A[np.diag_indices_from(A)] += noise_var * jw
        L, jitter = jittered_cho_factor(A, spec.outputscale)
    w = solve_triangular(L, y - mw, lower=True, check_finite=False)
    post = GpPosterior(X, y, spec, float(noise_var), corrections, L, w, jitter)
    if grid is None:
        return post
    grid = _as_points(grid, spec.dim)
    Kg = cross_matrix(spec, X, grid)
    V = solve_triangular(L, Kg, lower=True, check_finite=False)
    return dataclasses.replace(post, grid=GridPredictions(grid, V, Kg.T @ post.alpha, post._variance(V)))
