"""Robust weight functions and the posterior correction terms they induce.

The plateau-IMQ weight is constant at its cap within a residual band of
half-width L around a center g, and decays like an inverse multi-quadric
outside it.  The fit only reads g and L at the weighted points, so both are
plain values there: one float for every point or one entry per point.  The cap
is read from the corrected fit's noise (plateau_cap: sigma_noise / sqrt(2)) so
that in-plateau points reproduce the standard GP update exactly: their
diagonal correction is exactly 1 and their mean correction exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PimqParams",
    "WeightCorrections",
    "plateau_cap",
    "NEGLIGIBLE_WEIGHT_RATIO",
    "build_corrections",
    "estimate_tc",
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
    per point (an adaptive plateau).  shape_c is stored as a float.  The cap
    is the corrected fit's plateau_cap(noise_var), at any noise level.
    """

    center: Union[float, np.ndarray]
    half_width: Union[float, np.ndarray]
    shape_c: float

    def __post_init__(self):
        c = float(self.shape_c)
        if not (c > 0 and 0 < c * c < math.inf):  # build_corrections divides by the square; ** raises on overflow
            raise ValueError(f"shape_c must be positive with a nonzero finite square, got {self.shape_c!r}")
        if not np.all(np.asarray(self.half_width) >= 0):  # a NaN width fails too
            raise ValueError("half_width must be nonnegative")
        object.__setattr__(self, "shape_c", c)


def plateau_cap(noise_var: float) -> float:
    """The P-IMQ weight's cap sqrt(noise_var / 2), at which J_w is exactly 1 and m_w exactly 0."""
    return math.sqrt(noise_var / 2.0)


@dataclass(frozen=True)
class WeightCorrections:
    """Per-point weights and the induced diagonal/vector posterior corrections."""

    weights: np.ndarray  # the cap in-plateau, and can round to it just past the edge
    jw: np.ndarray  # diagonal of J_w; 1 in-plateau, and can round to 1 just past the edge
    mw: np.ndarray  # mean correction; 0 in-plateau (membership is estimate_tc's test alone)

    @staticmethod
    def in_plateau(n: int, noise_var: float) -> "WeightCorrections":
        """The corrections of n in-plateau points: weight plateau_cap(noise_var), jw 1, mw 0; the plain GP."""
        return WeightCorrections(np.full(n, plateau_cap(noise_var)), np.ones(n), np.zeros(n))

    def __getitem__(self, index) -> "WeightCorrections":
        """The corrections of the indexed points (a slice or a mask)."""
        return WeightCorrections(self.weights[index], self.jw[index], self.mw[index])

    def __add__(self, other: "WeightCorrections") -> "WeightCorrections":
        """The corrections of self's points followed by other's."""
        return WeightCorrections(np.concatenate((self.weights, other.weights)),
                                 np.concatenate((self.jw, other.jw)), np.concatenate((self.mw, other.mw)))

    def same(self, other: "WeightCorrections") -> np.ndarray:
        """Per point: whether other's weight, jw and mw, aligned with self's points, equal self's."""
        return (self.weights == other.weights) & (self.jw == other.jw) & (self.mw == other.mw)


def _excess(params: PimqParams, y):
    """The residuals y - g, their excess |y - g| - L over the plateau edge, and
    the plateau test: a point is outside unless its excess is <= 0, so a NaN
    (a NaN observation, or inf - inf at an infinite width) counts as outside."""
    y = np.asarray(y, dtype=float).reshape(-1)
    g, L = np.asarray(params.center, dtype=float), np.asarray(params.half_width, dtype=float)
    if any(v.ndim and v.shape != y.shape for v in (g, L)):
        raise ValueError("y and any per-point center or half_width must have equal length")
    with np.errstate(invalid="ignore"):
        resid = y - g
        z = np.abs(resid) - L
    return resid, z, ~(z <= 0)


def estimate_tc(params: PimqParams, y) -> int:
    """The number of observations y outside the plateau of params: the points the fit downweights."""
    return int(np.count_nonzero(_excess(params, y)[2]))


def build_corrections(params: PimqParams, noise_var: float, y) -> WeightCorrections:
    """Weights, J_w diagonal noise_var/(2 w^2), and m_w vector for observations y.

    The one implementation of the P-IMQ formula.  The plateau is read from
    params, the cap from noise_var (> 0).  In-plateau entries are exactly
    (plateau_cap(noise_var), 1, 0) so the robust update is bit-identical to
    the standard GP there.
    """
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    cap = plateau_cap(noise_var)
    resid, z, outside = _excess(params, y)
    corr = WeightCorrections.in_plateau(z.shape[0], noise_var)  # the outside points' entries follow
    if np.any(outside):
        c2 = params.shape_c**2
        zo = np.where(np.isnan(z[outside]), np.inf, z[outside])
        # q = inf is the infinite-outlier limit (|y| huge, infinite or NaN):
        # the weight is 0 and rcgp_fit drops the point, so the overflow in
        # zo * zo and the inf/inf of m_w are expected; finite q keeps its bits.
        with np.errstate(over="ignore", invalid="ignore"):
            q = 1.0 + zo * zo / c2  # (cap / w)^2
            corr.weights[outside] = cap / np.sqrt(q)
            corr.jw[outside] = noise_var / (2.0 * cap**2) * q
            corr.mw[outside] = -2.0 * noise_var * (zo * np.sign(resid[outside]) / c2) / q
    return corr


def c1_bound(half_width: float, shape_c: float, noise_var: float, sup_delta: float) -> float:
    """Closed-form upper bound on the weighted-influence constant of a P-IMQ weight of scalar
    half_width and shape shape_c; sup_delta bounds the gap between the center and the clean
    posterior mean over the domain."""
    if sup_delta < 0:
        raise ValueError("sup_delta must be nonnegative")
    if np.ndim(half_width) != 0:
        raise ValueError("c1_bound requires a scalar plateau width")
    c_m = 4.0 * noise_var / (3.0 * math.sqrt(3.0) * shape_c)
    return plateau_cap(noise_var) * (math.sqrt(half_width * half_width + shape_c * shape_c) + sup_delta + c_m)


def cw_from_c1(c1: float, noise_var: float) -> float:
    """Deviation-bound multiplier sqrt(2) * C1 / noise_var."""
    if c1 < 0 or not noise_var > 0:
        raise ValueError("c1 must be nonnegative and noise_var positive")
    return math.sqrt(2.0) * c1 / noise_var
