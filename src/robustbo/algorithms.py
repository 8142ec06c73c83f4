"""Bayesian-optimization loops: the standard UCB baseline, the fixed-center
robust variant, and the two-model anchor/adapt robust variant.

One BoState owns one single-threaded loop.  Targets are standardized before
every fit (the standardizer is configurable), acquisition is computed in
standardized space, and the caller accounts regret in raw space.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .adversary import AdversaryPolicy, CorruptionBudget, corrupt
from .gp import GpPosterior, gp_fit
from .kernels import FactorizationError, KernelSpec, info_gain
# Tracer-only, like build_corrections below: unused here, but perfbench's tracer wraps these bindings.
from .kernels import gram_matrix, jittered_cho_factor, solve_cho  # noqa: F401
from .objectives import Objective, observe
from .rcgp import rcgp_data, rcgp_fit
from .schedules import (
    AssumptionCase,
    Rkhs,
    anchor_width,
    beta_prime,
    estimate_tc,
    noise_bound,
    robust_beta,
    wrench_width_adaptive,
    wrench_width_fixed,
)
# step calls maximize_acquisition through this module's binding, which perfbench's tracer wraps.
from .search import DomainSpec, maximize_acquisition
from .weights import ZERO_CENTER, PimqParams, WeightCorrections, c1_bound, cw_from_c1, plateau_cap
from .weights import build_corrections  # noqa: F401

__all__ = [
    "BoState",
    "StepRecord",
    "Plan",
    "step",
    "run_loop",
    "fit_hyperparameters_loo",
    "standardize_targets",
]

ALGORITHMS = ("gp_ucb", "fc", "a2")
TC_MODES = ("estimate", "force_zero")
A2_WIDTH_MODES = ("fixed", "adaptive")
PIMQ_POLICIES = ("schedule", "heuristic", "manual")
STANDARDIZE_MODES = ("robust", "zscore", "none", "initial")

# Consistency factor making the median absolute deviation estimate the
# standard deviation under Gaussian data.
_MAD_SCALE = 1.4826
_FLOAT_MAX = float(np.finfo(float).max)


def standardize_targets(y, mode: str) -> tuple[float, float]:
    """Location/scale for target standardization.

    "robust" uses median and the scaled median absolute deviation, so a few
    corrupted observations cannot move the constants no matter how extreme
    they are.  "zscore" uses mean/std; "none" is the identity.  Only the
    finite observations count: a ±inf or NaN one is the infinite-outlier
    limit, which the robust fits drop, so it must not make loc or scale
    non-finite.
    """
    if mode == "none":
        return 0.0, 1.0
    y = np.asarray(y, dtype=float)
    y = y[np.isfinite(y)]
    if y.size == 0:
        return 0.0, 1.0
    # Values of 2**500 or more are first scaled by a power of two, which is
    # exact, so no difference, square or midpoint overflows; smaller values
    # keep np.mean/np.std/np.median's bits.
    e = max(0, math.frexp(float(np.max(np.abs(y))))[1] - 500)
    u = np.ldexp(y, -e)
    if mode == "zscore":
        loc, scale = float(np.mean(u)), float(np.std(u))
    elif mode == "robust":
        loc = float(np.median(u))
        scale = _MAD_SCALE * float(np.median(np.abs(u - loc)))
        if not scale > 0:
            scale = float(np.std(u))
    else:
        raise ValueError(f"unknown standardize mode {mode!r}")
    if not scale > 0:
        return loc * 2.0**e, 1.0
    # A scale beyond the largest float (a spread of order 1e308) is capped there.
    return loc * 2.0**e, min(scale * 2.0**e, _FLOAT_MAX)


@dataclass(frozen=True)
class StepRecord:
    t: int
    x: np.ndarray
    y_clean: float
    y_observed: float
    corrupted: bool
    beta_t: float
    tc_estimate: int


@dataclass(frozen=True)
class Plan:
    """Step t's record: its data and schedule, then the fits built on them.

    ys and nv are in standardized space (targets shifted by loc and divided
    by scale).  model is the posterior the acquisition queries; tc is the
    corruption-count estimate recorded for the step.  anchor is a2's
    fixed-center model and None for the other algorithms.
    """

    t: int
    loc: float
    scale: float
    X: np.ndarray
    ys: np.ndarray
    nv: float
    gamma_t: float  # information gain; 0.0 outside the rkhs case
    bp: float  # beta' at step t
    n_t: float  # noise bound over the horizon
    # BoState._step_inputs leaves these to the algorithm's builder; BoState.plan() returns only complete plans.
    model: Optional[GpPosterior] = None
    beta: float = math.nan
    tc: int = 0
    anchor: Optional[GpPosterior] = None

    def ucb(self, Xq: np.ndarray) -> np.ndarray:
        """The upper-confidence acquisition mean + sqrt(beta)*std of model at the points Xq."""
        mean, var = self.model.predict(Xq)
        return mean + math.sqrt(self.beta) * np.sqrt(var)


@dataclass
class BoState:
    """Everything one optimization run owns: config, data, schedule, rng."""

    algorithm: str
    objective: Objective
    policy: AdversaryPolicy
    budget: CorruptionBudget
    spec: KernelSpec
    domain: DomainSpec
    case: AssumptionCase
    delta: float
    b_f: float
    horizon: int
    noise_rng: np.random.Generator
    tc_mode: str = "estimate"  # "estimate" | "force_zero"
    a2_width_mode: str = "fixed"  # "fixed" | "adaptive"
    # "initial" fixes location/scale on the seed observations, which the
    # corruption channel cannot touch (add_initial sets them); the running
    # modes re-estimate each step from all observations.
    standardize: str = "robust"  # "robust" | "zscore" | "none" | "initial"
    pimq_policy: str = "schedule"  # "schedule" | "heuristic" | "manual"
    pimq_c: float = 1.0
    pimq_half_width: float = 1.96  # used by the "manual" policy (standardized units)
    heuristic_quantile: float = 0.95
    hyperfit_every: int = 5
    hyperfit_space: Optional[dict] = None  # the LOO search space; hyperfit runs exactly when one is given
    # The last hyperparameter refit's noise variance, in standardized units like its kernel; None until one.
    fitted_noise_var: Optional[float] = field(default=None, init=False)

    # Run data (raw space unless noted).
    X: list = field(default_factory=list)
    y_obs: list = field(default_factory=list)
    records: list = field(default_factory=list)  # one StepRecord per step: clean value, corruption flag
    t: int = 0
    _plan: Optional[Plan] = field(default=None, repr=False)
    _seed_std: tuple = field(default=(0.0, 1.0), repr=False)  # "initial"'s location/scale
    # The last model of each plan role and the data indices of its rows, for the next plan; see _fit.
    _fits: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name, allowed in (
            ("algorithm", ALGORITHMS),
            ("tc_mode", TC_MODES),
            ("a2_width_mode", A2_WIDTH_MODES),
            ("pimq_policy", PIMQ_POLICIES),
            ("standardize", STANDARDIZE_MODES),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; expected one of {allowed}")
        if self.a2_width_mode == "adaptive" and self.pimq_policy != "schedule":  # its width reads the schedule
            raise ValueError(f"a2_width_mode 'adaptive' needs pimq_policy 'schedule', got {self.pimq_policy!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not 0.0 <= self.b_f < math.inf:
            raise ValueError(f"b_f must be finite and >= 0, got {self.b_f!r}")
        PimqParams(ZERO_CENTER, self.pimq_half_width, self.pimq_c)  # checks shape_c and the manual width
        if not 0.0 <= self.heuristic_quantile <= 1.0:
            raise ValueError(f"heuristic_quantile must lie in [0, 1], got {self.heuristic_quantile!r}")
        if self.hyperfit_every < 1:
            raise ValueError(f"hyperfit_every must be >= 1, got {self.hyperfit_every!r}")
        if not self.spec.dim == self.domain.dim == self.objective.dim:
            raise ValueError(f"kernel lengthscale dimension {self.spec.dim}, domain dimension {self.domain.dim} "
                             f"and objective dimension {self.objective.dim} must be equal")
        if self.hyperfit_space is not None:
            _search_grids(self.hyperfit_space, self.spec.dim)

    # -- data management -------------------------------------------------

    def add_initial(self, X0: np.ndarray) -> None:
        """Seed observations: never corrupted, drawn from the shared noise stream."""
        for x in np.atleast_2d(X0):
            self._append(x, observe(self.objective, x, self.noise_rng))
        # The seed observations bypass the corruption channel, so the plain
        # mean/std is already outlier-proof here and is far better
        # conditioned than median/MAD on a handful of points.
        self._seed_std = standardize_targets(self.y_obs, "zscore")

    def _append(self, x, y: float) -> None:
        # The only place the data change, so the only place the plan goes stale.
        self.X.append(np.atleast_1d(np.asarray(x, dtype=float)))
        self.y_obs.append(y)
        self._plan = None

    def _data(self):
        n = len(self.X)
        X = np.array(self.X, dtype=float).reshape(n, self.objective.dim)
        return X, np.asarray(self.y_obs, dtype=float)

    # -- per-step model preparation ---------------------------------------

    def _location_scale(self, y_raw: np.ndarray) -> tuple[float, float]:
        return self._seed_std if self.standardize == "initial" else standardize_targets(y_raw, self.standardize)

    def plan(self) -> Plan:
        """The upcoming step's data, schedule, fitted model(s) and beta, cached until the data change."""
        if self._plan is None:
            self._plan = _PLAN_BUILDERS[self.algorithm](self, self._step_inputs())
        return self._plan

    def _step_inputs(self) -> Plan:
        """The data-and-schedule part of every plan: standardize, refit hyperparameters, schedule."""
        t = self.t + 1
        X, y_raw = self._data()
        loc, scale = self._location_scale(y_raw)
        with np.errstate(over="ignore"):  # a gap beyond the float range is the infinite-outlier limit: ±inf
            ys = (y_raw - loc) / scale
        try:
            scale2 = scale**2
        except OverflowError:  # a scale above 1e154 (finite values near 1e308), against which the noise vanishes
            scale2 = math.inf
        nv = self.objective.noise_var / scale2 if self.fitted_noise_var is None else self.fitted_noise_var
        if nv <= 0:
            nv = 1e-12  # noiseless objectives still need a proper Gram regularizer
        sigma = math.sqrt(nv)

        if self.hyperfit_space is not None and len(ys) >= 3 and (t - 1) % self.hyperfit_every == 0:
            wp = None
            if self.algorithm != "gp_ucb":
                n_t = noise_bound(self.case, sigma, self.horizon, self.delta / 2.0)
                wp = PimqParams(ZERO_CENTER, self._plateau_width(ys, n_t), self.pimq_c)
            self.spec, self.fitted_noise_var = fit_hyperparameters_loo((X, ys), wp, self.hyperfit_space)
            nv = self.fitted_noise_var
            sigma = math.sqrt(nv)

        gamma_t = info_gain(self.spec, X, nv) if isinstance(self.case, Rkhs) else 0.0
        return Plan(t, loc, scale, X, ys, nv, gamma_t, bp=beta_prime(self.case, t, self.delta / 2.0, gamma_t),
                    n_t=noise_bound(self.case, sigma, self.horizon, self.delta / 2.0))

    def _plateau_width(self, ys: np.ndarray, n_t: float) -> float:
        """Half-width of the zero-centred plateau (fc's model, a2's anchor, the LOO weights)."""
        if self.pimq_policy == "heuristic" and len(ys):
            # 95% quantile of |y - median| on standardized targets, taken at the
            # next-lowest order statistic so a sub-5% corrupted fraction cannot
            # inflate it.
            return float(np.quantile(np.abs(ys - np.median(ys)), self.heuristic_quantile, method="lower"))
        if self.pimq_policy == "manual":
            return self.pimq_half_width
        return anchor_width(self.b_f, self.spec.outputscale, n_t)

    def _effective_tc(self, tc: int) -> int:
        return 0 if self.tc_mode == "force_zero" else tc


def _fit(state: BoState, role: str, s: Plan, params=None) -> GpPosterior:
    """The plain (params None: every point, in-plateau) or robust posterior on
    the step's data, and on the grid for the "model" role, the only one the
    acquisition scans.

    The rule reads the data.  A row of the previous plan's model for the
    same role is unchanged when its point is still kept with the same
    target and corrections, bit for bit.  The model keeps its rows up to the
    first changed one and borders after them the unchanged later rows, in
    their previous order, then the changed and new kept points, in insertion
    order; so the points whose corrections keep moving (the ones a2's
    wrench downweights) sink to the end, and the next step re-borders only
    them.  The usual step, one new point after an unchanged model, is one
    extend on head(n), the model itself.  A moved standardization changes
    every old target, a hyperparameter refit the kernel object; those steps,
    a changed first row, no kept point and a border the factor cannot take
    refit with gp_fit on the kept data.
    """
    if params is None:
        X, y, corr, kept = s.X, s.ys, WeightCorrections.in_plateau(len(s.ys), s.nv), np.arange(len(s.ys))
    else:
        X, y, corr, kept = rcgp_data(s.X, s.ys, state.spec, s.nv, params)
    grid = state.domain.grid if role == "model" else None
    prev, rows = state._fits.get(role, (None, None))
    model = None
    if (prev is not None and y.shape[0] and prev.spec is state.spec and prev.noise_var == s.nv
            and (None if prev.grid is None else prev.grid.points) is grid):
        model, rows = _bordered(prev, rows, X, y, corr, kept, s.ys.shape[0])
    if model is None:
        model, rows = gp_fit(X, y, state.spec, s.nv, corr, grid), kept
    state._fits[role] = (model, rows)
    return model


def _unchanged(post: GpPosterior, y, corr) -> np.ndarray:
    """Per row of post: whether y and corr, aligned with its rows, are its target and corrections, bit for bit."""
    same = post.y == y
    for f in ("weights", "jw", "mw"):
        same &= getattr(post.corrections, f) == getattr(corr, f)
    return same


def _bordered(prev: GpPosterior, rows, X, y, corr, kept, n: int):
    """_fit's rule on prev, whose rows are the data points rows: the new model
    and the data indices of its rows, or (None, None) when the step must
    refit.  X, y and corr are the kept data, kept their indices among the n
    points."""
    m = rows.shape[0]
    at = np.full(n, -1)
    at[kept] = np.arange(kept.shape[0])
    at = at[rows]  # each previous row's position in the kept data; -1 once dropped
    pos = np.maximum(at, 0)
    same = (at >= 0) & _unchanged(prev, y[pos], corr[pos])
    k = m if same.all() else int(np.argmin(same))
    head = prev.head(k) if k else None
    if head is None:
        return None, None
    fresh = np.ones(kept.shape[0], dtype=bool)
    fresh[at[same]] = False
    order = np.concatenate([at[k:][same[k:]], np.flatnonzero(fresh)])  # the kept data's rows to border
    model = head.extend(X[order], y[order], corr[order]) if order.shape[0] else head
    return model, np.concatenate([rows[:k], kept[order]])


def _plan_gp_ucb(state: BoState, s: Plan) -> Plan:
    return dataclasses.replace(s, model=_fit(state, "model", s), beta=s.bp)


def _zero_centered_fit(state: BoState, s: Plan, role: str):
    """fc's model, also a2's anchor: (params, model, tc estimate, c_w)."""
    params = PimqParams(ZERO_CENTER, state._plateau_width(s.ys, s.n_t), state.pimq_c)
    model = _fit(state, role, s, params)
    tc = estimate_tc(s.ys, params.half_width)
    # Computable stand-in for the center-to-clean-mean gap in the C1 bound.
    sup_delta = math.sqrt(state.spec.outputscale) * (math.sqrt(s.bp) + state.b_f)
    c_w = cw_from_c1(c1_bound(params, s.nv, sup_delta), s.nv)
    return params, model, tc, c_w


def _plan_fc(state: BoState, s: Plan) -> Plan:
    _, model, tc, c_w = _zero_centered_fit(state, s, "model")
    return dataclasses.replace(s, model=model, beta=robust_beta(s.bp, c_w, state._effective_tc(tc)), tc=tc)


def _plan_a2(state: BoState, s: Plan) -> Plan:
    """The anchor first, then the wrench, whose plateau center (and adaptive
    width) is one anchor predict at the data, shared by the fit and tc."""
    anchor_params, anchor, tc_anchor, c_w_a = _zero_centered_fit(state, s, "anchor")
    tc_eff = state._effective_tc(tc_anchor)
    kappa = state.spec.outputscale
    if state.pimq_policy in ("heuristic", "manual"):
        width_bound = anchor_params.half_width
    else:
        bp_end = beta_prime(state.case, state.horizon, state.delta / 2.0, s.gamma_t)
        width_bound = wrench_width_fixed(robust_beta(bp_end, c_w_a, tc_eff), kappa, s.n_t)  # scalar, for C1
    if state.a2_width_mode == "adaptive":  # BoState allows it only under the schedule policy
        center, var = anchor.predict(s.X)  # the adaptive width is the only reader of the variance
        width = wrench_width_adaptive(robust_beta(s.bp, c_w_a, tc_eff), np.sqrt(var), s.n_t)
    else:
        center, width = anchor.predict_mean(s.X), width_bound
    wrench_params = PimqParams(center, width, state.pimq_c)
    wrench = _fit(state, "model", s, wrench_params)
    tc = estimate_tc(s.ys - center, width)
    tc_eff = state._effective_tc(tc)
    # C1 for the wrench uses the scalar width bound and the anchor's
    # certified deviation as the center gap.
    sup_delta_w = c_w_a * math.sqrt(tc_eff) * math.sqrt(kappa)
    c_w_w = cw_from_c1(c1_bound(dataclasses.replace(wrench_params, half_width=width_bound), s.nv, sup_delta_w), s.nv)
    return dataclasses.replace(s, model=wrench, beta=robust_beta(s.bp, c_w_w, tc_eff), tc=tc, anchor=anchor)


_PLAN_BUILDERS = {"gp_ucb": _plan_gp_ucb, "fc": _plan_fc, "a2": _plan_a2}


def step(state: BoState) -> tuple[np.ndarray, float]:
    """One BO step: maximize the acquisition, observe, let the adversary
    corrupt, record.  Returns the query and the (possibly corrupted) value."""
    try:
        # An overflow or invalid value raises FloatingPointError, a cell failure, instead
        # of leaving a NaN acquisition; the deliberate errstate(ignore) blocks nest inside.
        with np.errstate(over="raise", invalid="raise"):
            plan = state.plan()  # the fits, and so the Cholesky factorizations, run here
            x = maximize_acquisition(state.domain, plan.ucb)
    except FactorizationError as exc:
        raise FactorizationError(f"step {state.t + 1}: {exc}") from exc
    y_clean = observe(state.objective, x, state.noise_rng)
    y_observed, flag = corrupt(state.policy, state.budget, x, y_clean, plan.t)
    state._append(x, y_observed)
    state.records.append(StepRecord(plan.t, np.atleast_1d(x), y_clean, y_observed, flag, plan.beta, plan.tc))
    state.t = plan.t
    return x, y_observed


def run_loop(state: BoState, n_iterations: int) -> list[StepRecord]:
    for _ in range(n_iterations):
        step(state)
    return state.records


def fit_hyperparameters_loo(data, weight_params, search_space: dict):
    """Pick kernel hyperparameters and noise by weighted leave-one-out error.

    Minimizes sum_i wbar_i * (y_i - mu_{-i}(x_i))^2 over the Cartesian grid
    in search_space, with leave-one-out means from the rank-one identity on
    the regularized Gram matrix.  Each candidate is a step's own fit: gp_fit
    with uniform weights when weight_params is None (the plain GP), otherwise
    rcgp_fit with those P-IMQ parameters, scored on its kept points and their
    weights; so an extreme point, infinite and NaN ones included, neither
    counts in the score nor contaminates its neighbors' held-out predictions.
    A candidate's weights and their cap are read at its own noise variance.
    """
    X, y = data
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if np.shape(X)[:1] != (n,):
        raise ValueError("X and y must have equal length")
    if n < 3:
        raise ValueError("leave-one-out fitting needs at least 3 points")

    family, ls_grid, os_grid, nv_grid = _search_grids(search_space, np.shape(X)[1] if np.ndim(X) == 2 else 1)
    best = None
    for ls, os_, nv in product(ls_grid, os_grid, nv_grid):
        try:
            spec = KernelSpec(family, ls, os_)
            post = gp_fit(X, y, spec, nv) if weight_params is None else rcgp_fit(X, y, spec, nv, weight_params)
        except (ValueError, FactorizationError):
            continue
        Linv = solve_triangular(post.L, np.eye(post.y.shape[0]), lower=True, check_finite=False)
        Ainv_diag = np.sum(Linv * Linv, axis=0)  # [A^-1]_ii, the squared norm of column i of L^-1
        if np.any(Ainv_diag <= 1e-12):
            continue
        wbar = 1.0 if weight_params is None else post.corrections.weights / plateau_cap(nv)
        objective = float(np.sum(wbar * (post.alpha / Ainv_diag)**2))
        if best is None or objective < best[0]:
            best = (objective, post.spec, float(nv))
    if best is None:
        raise ValueError("no viable candidate in the hyperparameter grid")
    return best[1], best[2]


def _search_grids(search_space, dim: int) -> tuple:
    """The kernel family and the lengthscale, outputscale and noise_var grids
    of a search space, each a nonempty list of positive numbers (a
    lengthscale may also be a list of per-dimension lists, each of length
    dim), checked before any fit reads them: a value no candidate can fit
    with is a ValueError here, not a refit without a viable candidate."""
    if not isinstance(search_space, dict):
        raise ValueError("search_space must be a dict of grids")
    grids = (search_space.get("lengthscale"), search_space.get("outputscale", [1.0]), search_space.get("noise_var"))
    for name, grid, ndims in zip(("lengthscale", "outputscale", "noise_var"), grids, ((1, 2), (1,), (1,))):
        values = np.asarray(grid)  # a ragged nesting raises ValueError here
        if values.ndim not in ndims or values.size == 0 or values.dtype.kind not in "iuf" or not np.all(values > 0):
            raise ValueError(f"search_space {name} must be a nonempty list of positive numbers, got {grid!r}")
    if (np.shape(grids[0])[1] if np.ndim(grids[0]) == 2 else 1) != dim:  # a scalar lengthscale is 1-D
        raise ValueError(f"search_space lengthscale entries must have the kernel's dimension {dim}, got {grids[0]!r}")
    family = search_space.get("family", "rbf")
    KernelSpec(family, 1.0)  # checks the family
    return (family, *grids)
