"""Robust weight functions and the posterior correction terms they induce.

The plateau-IMQ weight is constant at its cap within a residual band of
half-width L around a center g, and decays like an inverse multi-quadric
outside it.  The fit only reads g and L at the weighted points, so both are
plain values there: one float for every point or one entry per point.  The cap is tied to the noise level
(W_max = sigma_noise / sqrt(2)) so that in-plateau points reproduce the
standard GP update exactly: their diagonal correction is exactly 1 and
their mean correction exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PimqParams",
    "WeightCorrections",
    "pimq_params_for_noise",
    "pimq_weight",
    "NEGLIGIBLE_WEIGHT_RATIO",
    "pimq_mw",
    "build_corrections",
    "c1_bound",
    "cw_from_c1",
]

ZERO_CENTER = 0.0


# Weight ratio below which a point is treated as fully rejected.  Its residual
# pull on the posterior mean is at most ~shape_c times this ratio; dropping the
# point makes the infinite-outlier limit exact in floating point instead of
# merely approached, so runs differing only in outlier magnitude coincide.
NEGLIGIBLE_WEIGHT_RATIO = 1e-4


@dataclass(frozen=True)
class PimqParams:
    """Plateau-IMQ weight parameters.

    center and half_width are the plateau's center and half-width at the
    weighted points: a float for every point, or a 1-D array with one entry
    per point (an adaptive plateau).  w_max must equal sigma_noise / sqrt(2)
    for the model it corrects.
    """

    center: Union[float, np.ndarray]
    half_width: Union[float, np.ndarray]
    shape_c: float
    w_max: float

    def __post_init__(self):
        if not self.shape_c > 0:
            raise ValueError("shape_c must be positive")
        if not self.w_max > 0:
            raise ValueError("w_max must be positive")
        if np.any(np.asarray(self.half_width) < 0):
            raise ValueError("half_width must be nonnegative")


def pimq_params_for_noise(center, half_width, shape_c, noise_var) -> PimqParams:
    """Build P-IMQ params with the cap pinned to sqrt(noise_var / 2)."""
    return PimqParams(center, half_width, float(shape_c), math.sqrt(noise_var / 2.0))


@dataclass(frozen=True)
class WeightCorrections:
    """Per-point weights and the induced diagonal/vector posterior corrections."""

    weights: np.ndarray
    jw: np.ndarray  # diagonal of J_w; entry 1 iff the point is in-plateau
    mw: np.ndarray  # mean correction; entry 0 iff the point is in-plateau

    @staticmethod
    def in_plateau(n: int, noise_var: float) -> "WeightCorrections":
        """The corrections of n in-plateau points: pimq_params_for_noise's cap, jw 1, mw 0; the plain GP."""
        return WeightCorrections(np.full(n, math.sqrt(noise_var / 2.0)), np.ones(n), np.zeros(n))

    def __getitem__(self, index) -> "WeightCorrections":
        """The corrections of the indexed points (a slice or a mask)."""
        return WeightCorrections(self.weights[index], self.jw[index], self.mw[index])


def build_corrections(params: PimqParams, noise_var: float, X, y) -> WeightCorrections:
    """Weights, J_w diagonal noise_var/(2 w^2), and m_w vector for a dataset.

    The one implementation of the P-IMQ formula.  X is only checked against
    y's length; the plateau is read from params.  In-plateau entries are
    forced to exactly (w_max, 1, 0) so the robust update is bit-identical to
    the standard GP there.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    g, L = np.asarray(params.center, dtype=float), np.asarray(params.half_width, dtype=float)
    n_x = np.shape(X)[0] if np.ndim(X) else 1
    if n_x != y.shape[0] or any(v.ndim and v.shape != y.shape for v in (g, L)):
        raise ValueError("X, y and any per-point center or half_width must have equal length")
    resid = y - g
    z = np.abs(resid) - L  # residual excess over the plateau edge
    w = np.full(z.shape, params.w_max)
    jw = np.ones(z.shape)
    mw = np.zeros(z.shape)
    outside = ~(z <= 0)  # a NaN observation counts as outside
    if np.any(outside):
        c2 = params.shape_c**2
        zo = np.where(np.isnan(z[outside]), np.inf, z[outside])
        # q = inf is the infinite-outlier limit (|y| huge, infinite or NaN):
        # the weight is 0 and rcgp_fit drops the point, so the overflow in
        # zo * zo and the inf/inf of m_w are expected; finite q keeps its bits.
        with np.errstate(over="ignore", invalid="ignore"):
            q = 1.0 + zo * zo / c2  # (w_max / w)^2
            w[outside] = params.w_max / np.sqrt(q)
            jw[outside] = noise_var / (2.0 * params.w_max**2) * q
            mw[outside] = -2.0 * noise_var * (zo * np.sign(resid[outside]) / c2) / q
    return WeightCorrections(w, jw, mw)


def pimq_weights(params: PimqParams, X, y) -> np.ndarray:
    """Vectorized P-IMQ weights; exactly w_max on/inside the plateau boundary."""
    return build_corrections(params, 1.0, X, y).weights  # weights do not depend on noise_var


def pimq_weight(params: PimqParams, x, y: float) -> float:
    return float(pimq_weights(params, x, [y])[0])


def pimq_mw(params: PimqParams, noise_var: float, x, y: float) -> float:
    """Mean-correction term of one point; exactly 0 on/inside the plateau."""
    return float(build_corrections(params, noise_var, x, [y]).mw[0])


def c1_bound(params: PimqParams, noise_var: float, sup_delta: float) -> float:
    """Closed-form upper bound on the weighted-influence constant.

    sup_delta bounds the gap between the center and the clean posterior mean
    over the domain.  Requires a scalar plateau width.
    """
    if sup_delta < 0:
        raise ValueError("sup_delta must be nonnegative")
    L = params.half_width
    if np.ndim(L) != 0:
        raise ValueError("c1_bound requires a scalar plateau width")
    c = params.shape_c
    c_m = 4.0 * noise_var / (3.0 * math.sqrt(3.0) * c)
    return params.w_max * (math.sqrt(L * L + c * c) + sup_delta + c_m)


def cw_from_c1(c1: float, noise_var: float) -> float:
    """Deviation-bound multiplier sqrt(2) * C1 / noise_var."""
    if c1 < 0 or not noise_var > 0:
        raise ValueError("c1 must be nonnegative and noise_var positive")
    return math.sqrt(2.0) * c1 / noise_var
