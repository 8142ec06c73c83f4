"""Robust conjugate GP posterior and the Schur-complement deviation oracle.

The robust posterior is :func:`robustbo.gp.gp_fit` with the P-IMQ
corrections: K + noise_var*J_w and targets shifted by m_w.  When every
residual sits inside the weight plateau, J_w is the identity and m_w is
zero, so the fit runs the plain GP's arithmetic on the plain GP's numbers.
"""

from __future__ import annotations

import numpy as np

from .gp import GpPosterior, gp_fit
# gram_matrix is unused here; perfbench's tracer wraps it in this module.
from .kernels import KernelSpec, _as_points, cross_matrix, gram_matrix, jittered_cho_factor, solve_cho  # noqa: F401
from .weights import NEGLIGIBLE_WEIGHT_RATIO, PimqParams, WeightCorrections, build_corrections

__all__ = ["RcgpPosterior", "rcgp_fit", "deviation_schur"]

# The robust posterior is the GP posterior with corrections; the name stays for callers.
RcgpPosterior = GpPosterior


def _drop_negligible(params: PimqParams, X, y, corr: WeightCorrections):
    """Remove the points whose weight is below NEGLIGIBLE_WEIGHT_RATIO of the cap."""
    keep = corr.weights > NEGLIGIBLE_WEIGHT_RATIO * params.w_max
    if np.all(keep):
        return X, y, corr
    return X[keep], y[keep], WeightCorrections(corr.weights[keep], corr.jw[keep], corr.mw[keep])


def rcgp_fit(X, y, spec: KernelSpec, noise_var: float, params: PimqParams) -> GpPosterior:
    """Fit the robust posterior: P-IMQ corrections, drop the rejected points, then gp_fit.

    The result always carries a WeightCorrections, empty when no point is kept.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = _as_points(X, spec.dim) if y.shape[0] else np.empty((0, spec.dim))
    X, y, corr = _drop_negligible(params, X, y, build_corrections(params, noise_var, X, y))
    return gp_fit(X, y, spec, noise_var, corr)


def deviation_schur(clean, corrupt, spec: KernelSpec, noise_var: float, params: PimqParams, x):
    """Predicted gap between the full robust mean and the clean-only GP mean.

    Test-only oracle: requires ground-truth corruption labels, and assumes the
    clean residuals all lie inside the weight plateau (the caller asserts
    this).  Returns the deviation at each query point.

    clean and corrupt are (X, y) pairs; corrupt must be nonempty.
    """
    Xu, yu = clean
    Xc, yc = corrupt
    Xc = _as_points(Xc, spec.dim)
    yc = np.asarray(yc, dtype=float).reshape(-1)
    if yc.shape[0] == 0:
        raise ValueError("corrupt subset must be nonempty")
    Xq = _as_points(x, spec.dim)

    uc = gp_fit(Xu, yu, spec, noise_var)

    def cov_uc(A, B):
        # Posterior covariance conditioned on the clean subset.
        Kab = cross_matrix(spec, A, B)
        if uc.X.shape[0] == 0:
            return Kab
        Ka = cross_matrix(spec, uc.X, A)
        Kb = cross_matrix(spec, uc.X, B)
        return Kab - Ka.T @ solve_cho(uc.chol, Kb)

    Xc, yc, corr_c = _drop_negligible(params, Xc, yc, build_corrections(params, noise_var, Xc, yc))
    if yc.shape[0] == 0:
        dev = np.zeros(Xq.shape[0])
        return dev if Xq.shape[0] > 1 else float(dev[0])
    S = cov_uc(Xc, Xc) + noise_var * np.diag(corr_c.jw)
    S = 0.5 * (S + S.T)
    chol_s = jittered_cho_factor(S, spec.outputscale + noise_var * float(np.max(corr_c.jw)))
    mu_uc_c, _ = uc.predict(Xc)
    rhs = solve_cho(chol_s, yc - corr_c.mw - mu_uc_c)
    dev = cov_uc(Xc, Xq).T @ rhs
    return dev if Xq.shape[0] > 1 else float(dev[0])
