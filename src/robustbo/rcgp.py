"""Robust conjugate GP posterior.

The robust posterior is :func:`robustbo.gp.gp_fit` with the P-IMQ
corrections: K + noise_var*J_w and targets shifted by m_w.  When every
residual sits inside the weight plateau, the corrections are the plain GP's
(WeightCorrections.in_plateau), so the two fits are equal in every field;
without a plateau (params None) the robust fit is the plain GP.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .gp import GpPosterior, gp_fit
from .kernels import KernelSpec, _as_points
# Tracer-only: unused here; perfbench's tracer wraps these bindings of this module.
from .kernels import cross_matrix, gram_matrix, jittered_cho_factor, solve_cho  # noqa: F401
from .weights import NEGLIGIBLE_WEIGHT_RATIO, PimqParams, WeightCorrections, build_corrections, plateau_cap

__all__ = ["rcgp_fit", "rcgp_data"]

# An alias of GpPosterior read only by perfbench's tracer, for its rcgp.predict span.
RcgpPosterior = GpPosterior


def rcgp_data(X, y, spec: KernelSpec, noise_var: float, params: Optional[PimqParams] = None):
    """The data rcgp_fit factors: the kept points, their targets and their
    corrections, and the indices of the kept points in X.  Without a plateau
    (params None: the plain GP) every point is kept, in-plateau.  Otherwise a
    point is dropped when its weight is below NEGLIGIBLE_WEIGHT_RATIO of the
    cap, plateau_cap(noise_var)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    X = _as_points(X, spec.dim) if y.shape[0] else np.empty((0, spec.dim))
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have equal length")
    if params is None:
        return X, y, WeightCorrections.in_plateau(y.shape[0], noise_var), np.arange(y.shape[0])
    corr = build_corrections(params, noise_var, y)
    kept = np.flatnonzero(corr.weights > NEGLIGIBLE_WEIGHT_RATIO * plateau_cap(noise_var))
    return X[kept], y[kept], corr[kept], kept


def rcgp_fit(X, y, spec: KernelSpec, noise_var: float, params: Optional[PimqParams], grid=None) -> GpPosterior:
    """Fit the robust posterior: P-IMQ corrections, drop the rejected points, then gp_fit.

    params None is the plain GP.  The result always carries a WeightCorrections,
    empty when no point is kept.  grid is passed on to gp_fit.
    """
    X, y, corr, _ = rcgp_data(X, y, spec, noise_var, params)
    return gp_fit(X, y, spec, noise_var, corr, grid)
