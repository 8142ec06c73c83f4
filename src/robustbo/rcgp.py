"""Robust conjugate GP posterior and the Schur-complement deviation oracle.

The robust posterior is :func:`robustbo.gp.gp_fit` with the P-IMQ
corrections: K + noise_var*J_w and targets shifted by m_w.  When every
residual sits inside the weight plateau, the corrections are the plain GP's
(WeightCorrections.in_plateau), so the two fits are equal in every field.
"""

from __future__ import annotations

import numpy as np

from .gp import GpPosterior, gp_fit
from .kernels import KernelSpec, _as_points, cross_matrix, jittered_cho_factor, solve_cho
# Tracer-only: unused here; perfbench's tracer wraps this binding of this module.
from .kernels import gram_matrix  # noqa: F401
from .weights import NEGLIGIBLE_WEIGHT_RATIO, PimqParams, build_corrections, plateau_cap

__all__ = ["rcgp_fit", "rcgp_data", "deviation_schur"]

# An alias of GpPosterior read only by perfbench's tracer, for its rcgp.predict span.
RcgpPosterior = GpPosterior


def rcgp_data(X, y, spec: KernelSpec, noise_var: float, params: PimqParams):
    """The data rcgp_fit factors: the kept points, their targets and their
    corrections, and the indices of the kept points in X.  A point is dropped
    when its weight is below NEGLIGIBLE_WEIGHT_RATIO of the cap,
    plateau_cap(noise_var)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    X = _as_points(X, spec.dim) if y.shape[0] else np.empty((0, spec.dim))
    corr = build_corrections(params, noise_var, X, y)
    kept = np.flatnonzero(corr.weights > NEGLIGIBLE_WEIGHT_RATIO * plateau_cap(noise_var))
    return X[kept], y[kept], corr[kept], kept


def rcgp_fit(X, y, spec: KernelSpec, noise_var: float, params: PimqParams, grid=None) -> GpPosterior:
    """Fit the robust posterior: P-IMQ corrections, drop the rejected points, then gp_fit.

    The result always carries a WeightCorrections, empty when no point is
    kept.  grid is passed on to gp_fit.
    """
    X, y, corr, _ = rcgp_data(X, y, spec, noise_var, params)
    return gp_fit(X, y, spec, noise_var, corr, grid)


def deviation_schur(clean, corrupt, spec: KernelSpec, noise_var: float, params: PimqParams, x):
    """Predicted gap between the full robust mean and the clean-only GP mean.

    Test-only oracle: requires ground-truth corruption labels, and assumes the
    clean residuals all lie inside the weight plateau (the caller asserts
    this).  Returns the deviation at each query point.

    clean and corrupt are (X, y) pairs; corrupt must be nonempty.
    """
    if np.size(corrupt[1]) == 0:
        raise ValueError("corrupt subset must be nonempty")
    Xq = _as_points(x, spec.dim)

    uc = gp_fit(*clean, spec, noise_var)

    def cov_uc(A, B):
        # Posterior covariance conditioned on the clean subset.
        Ka = cross_matrix(spec, uc.X, A)
        Kb = cross_matrix(spec, uc.X, B)
        return cross_matrix(spec, A, B) - Ka.T @ solve_cho(uc.chol, Kb)  # without clean data, K(A, B) - 0

    Xc, yc, corr_c, _ = rcgp_data(*corrupt, spec, noise_var, params)
    if yc.shape[0] == 0:
        dev = np.zeros(Xq.shape[0])
        return dev if Xq.shape[0] > 1 else float(dev[0])
    S = cov_uc(Xc, Xc) + noise_var * np.diag(corr_c.jw)
    S = 0.5 * (S + S.T)
    chol_s, _ = jittered_cho_factor(S, spec.outputscale + noise_var * float(np.max(corr_c.jw)))
    mu_uc_c, _ = uc.predict(Xc)
    rhs = solve_cho(chol_s, yc - corr_c.mw - mu_uc_c)
    dev = cov_uc(Xc, Xq).T @ rhs
    return dev if Xq.shape[0] > 1 else float(dev[0])
