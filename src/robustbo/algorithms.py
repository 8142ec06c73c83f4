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
from scipy.stats import qmc

from .adversary import AdversaryPolicy, CorruptionBudget, corrupt
from .gp import GpPosterior, gp_fit
# gram_matrix and jittered_cho_factor are unused here; perfbench's tracer wraps them in this module.
from .kernels import FactorizationError, KernelSpec, gram_matrix, info_gain, jittered_cho_factor, solve_cho  # noqa: F401
from .objectives import Objective, observe
from .rcgp import rcgp_fit
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
from .weights import ZERO_CENTER, build_corrections, c1_bound, cw_from_c1, pimq_params_for_noise, pimq_weights

__all__ = [
    "DomainSpec",
    "BoState",
    "StepRecord",
    "acquisition_value",
    "maximize_acquisition",
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

# Consistency factor making the median absolute deviation estimate the
# standard deviation under Gaussian data.
_MAD_SCALE = 1.4826


@dataclass(frozen=True)
class DomainSpec:
    """Search domain: bounds plus the 1-D evaluation grid (when d == 1)."""

    bounds: np.ndarray  # (d, 2)
    grid: Optional[np.ndarray] = None  # (m, d); required for d == 1
    n_starts: int = 64  # multi-start count for d > 1
    coord_grid: int = 33  # per-coordinate resolution for refinement

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @staticmethod
    def from_bounds(bounds, grid_size: int = 1001) -> "DomainSpec":
        bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
        if bounds.shape[0] == 1:
            grid = np.linspace(bounds[0, 0], bounds[0, 1], grid_size).reshape(-1, 1)
            return DomainSpec(bounds, grid)
        return DomainSpec(bounds, None)


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
    if mode == "zscore":
        loc = float(np.mean(y))
        scale = float(np.std(y))
    elif mode == "robust":
        loc = float(np.median(y))
        scale = _MAD_SCALE * float(np.median(np.abs(y - loc)))
        if not (np.isfinite(scale) and scale > 0):
            scale = float(np.std(y))
    else:
        raise ValueError(f"unknown standardize mode {mode!r}")
    if not (np.isfinite(scale) and scale > 0):
        scale = 1.0
    return loc, scale


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
    """The acquisition model and confidence parameter for step t.

    model is the posterior the acquisition queries (in standardized space,
    targets shifted by loc and divided by scale); tc is the corruption-count
    estimate recorded for the step.  anchor is a2's fixed-center model and
    None for the other algorithms.
    """

    t: int
    loc: float
    scale: float
    model: GpPosterior
    beta: float
    tc: int
    anchor: Optional[GpPosterior] = None


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
    # "initial" freezes robust location/scale on the seed observations, which
    # the corruption channel cannot touch; the running modes re-estimate each
    # step from all observations.
    standardize: str = "robust"  # "robust" | "zscore" | "none" | "initial"
    pimq_policy: str = "schedule"  # "schedule" | "heuristic" | "manual"
    pimq_c: float = 1.0
    pimq_half_width: float = 1.96  # used by the "manual" policy (standardized units)
    heuristic_quantile: float = 0.95
    hyperfit: bool = False
    hyperfit_every: int = 5
    hyperfit_space: Optional[dict] = None
    # Raw-unit noise variance: the objective's, until a hyperparameter refit replaces it.
    noise_var_raw: float = field(init=False)

    # Run data (raw space unless noted).
    X: list = field(default_factory=list)
    y_clean: list = field(default_factory=list)
    y_obs: list = field(default_factory=list)
    corrupted: list = field(default_factory=list)
    records: list = field(default_factory=list)
    t: int = 0
    n_seed_obs: int = 0
    _plan: Optional[Plan] = field(default=None, repr=False)
    _frozen_std: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        for name, allowed in (
            ("algorithm", ALGORITHMS),
            ("tc_mode", TC_MODES),
            ("a2_width_mode", A2_WIDTH_MODES),
            ("pimq_policy", PIMQ_POLICIES),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; expected one of {allowed}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        self.noise_var_raw = self.objective.noise_var

    # -- data management -------------------------------------------------

    def add_initial(self, X0: np.ndarray) -> None:
        """Seed observations: never corrupted, drawn from the shared noise stream."""
        for x in np.atleast_2d(X0):
            y = observe(self.objective, x, self.noise_rng)
            self._append(x, y, y, False)
        self.n_seed_obs = len(self.X)

    def _append(self, x, y_clean: float, y_observed: float, corrupted: bool) -> None:
        # The only place the data change, so the only place the plan goes stale.
        self.X.append(np.atleast_1d(np.asarray(x, dtype=float)))
        self.y_clean.append(y_clean)
        self.y_obs.append(y_observed)
        self.corrupted.append(corrupted)
        self._plan = None

    def _data(self):
        n = len(self.X)
        X = np.array(self.X, dtype=float).reshape(n, self.objective.dim)
        return X, np.asarray(self.y_obs, dtype=float)

    # -- per-step model preparation ---------------------------------------

    def _location_scale(self, y_raw: np.ndarray) -> tuple[float, float]:
        if self.standardize != "initial":
            return standardize_targets(y_raw, self.standardize)
        if self._frozen_std is None:
            if self.n_seed_obs == 0:
                return 0.0, 1.0
            # The seed observations bypass the corruption channel, so the
            # plain mean/std is already outlier-proof here and is far better
            # conditioned than median/MAD on a handful of points.
            self._frozen_std = standardize_targets(y_raw[: self.n_seed_obs], "zscore")
        return self._frozen_std

    def plan(self) -> Plan:
        """Fitted model(s) and beta for the upcoming step, cached until the data change."""
        if self._plan is None:
            self._plan = _PLAN_BUILDERS[self.algorithm](self, self._step_inputs())
        return self._plan

    def _step_inputs(self) -> "_StepInputs":
        """Shared preamble of every plan: standardize, refit hyperparameters, schedule."""
        t = self.t + 1
        X, y_raw = self._data()
        loc, scale = self._location_scale(y_raw)
        ys = (y_raw - loc) / scale
        nv = self.noise_var_raw / scale**2
        if nv <= 0:
            nv = 1e-12  # noiseless objectives still need a proper Gram regularizer
        sigma = math.sqrt(nv)

        if self.hyperfit and self.hyperfit_space and len(ys) >= 3 and (t - 1) % self.hyperfit_every == 0:
            wp = None
            if self.algorithm != "gp_ucb":
                n_t = noise_bound(self.case, sigma, self.horizon, self.delta / 2.0)
                wp = pimq_params_for_noise(ZERO_CENTER, self._plateau_width(ys, n_t), self.pimq_c, nv)
            self.spec, nv = fit_hyperparameters_loo(self.algorithm, (X, ys), wp, self.hyperfit_space)
            self.noise_var_raw = nv * scale**2  # kept, like the kernel, until the next refit
            sigma = math.sqrt(nv)

        gamma_t = info_gain(self.spec, X, nv) if isinstance(self.case, Rkhs) and len(ys) else 0.0
        return _StepInputs(
            t=t,
            loc=loc,
            scale=scale,
            X=X,
            ys=ys,
            nv=nv,
            gamma_t=gamma_t,
            bp=beta_prime(self.case, t, self.delta / 2.0, gamma_t),
            n_t=noise_bound(self.case, sigma, self.horizon, self.delta / 2.0),
        )

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


@dataclass(frozen=True)
class _StepInputs:
    """What every plan builder starts from; ys and nv are in standardized units."""

    t: int
    loc: float
    scale: float
    X: np.ndarray
    ys: np.ndarray
    nv: float
    gamma_t: float
    bp: float  # beta' at step t
    n_t: float  # noise bound over the horizon


def _plan_gp_ucb(state: BoState, s: _StepInputs) -> Plan:
    return Plan(s.t, s.loc, s.scale, gp_fit(s.X, s.ys, state.spec, s.nv), s.bp, 0)


def _zero_centered_fit(state: BoState, s: _StepInputs):
    """fc's model, also a2's anchor: (params, model, tc estimate, c_w)."""
    params = pimq_params_for_noise(ZERO_CENTER, state._plateau_width(s.ys, s.n_t), state.pimq_c, s.nv)
    model = rcgp_fit(s.X, s.ys, state.spec, s.nv, params)
    tc = estimate_tc(s.ys, params.half_width)
    # Computable stand-in for the center-to-clean-mean gap in the C1 bound.
    sup_delta = math.sqrt(state.spec.outputscale) * (math.sqrt(s.bp) + state.b_f)
    c_w = cw_from_c1(c1_bound(params, s.nv, sup_delta), s.nv)
    return params, model, tc, c_w


def _plan_fc(state: BoState, s: _StepInputs) -> Plan:
    _, model, tc, c_w = _zero_centered_fit(state, s)
    return Plan(s.t, s.loc, s.scale, model, robust_beta(s.bp, c_w, state._effective_tc(tc)), tc)


def _plan_a2(state: BoState, s: _StepInputs) -> Plan:
    """Anchor refits first, then the wrench, whose plateau center (and adaptive
    width) is one anchor predict at the data, shared by the fit and tc."""
    anchor_params, anchor, tc_anchor, c_w_a = _zero_centered_fit(state, s)
    tc_eff = state._effective_tc(tc_anchor)
    kappa = state.spec.outputscale
    if state.pimq_policy in ("heuristic", "manual"):
        width_bound = anchor_params.half_width
    else:
        bp_end = beta_prime(state.case, state.horizon, state.delta / 2.0, s.gamma_t)
        width_bound = wrench_width_fixed(robust_beta(bp_end, c_w_a, tc_eff), kappa, s.n_t)  # scalar, for C1
    if state.pimq_policy == "schedule" and state.a2_width_mode == "adaptive":
        center, var = anchor.predict(s.X)  # the adaptive width is the only reader of the variance
        width = wrench_width_adaptive(robust_beta(s.bp, c_w_a, tc_eff), np.sqrt(var), s.n_t)
    else:
        center, width = anchor.predict_mean(s.X), width_bound
    wrench_params = pimq_params_for_noise(center, width, state.pimq_c, s.nv)
    wrench = rcgp_fit(s.X, s.ys, state.spec, s.nv, wrench_params)
    tc = estimate_tc(s.ys - center, width)
    tc_eff = state._effective_tc(tc)
    # C1 for the wrench uses the scalar width bound and the anchor's
    # certified deviation as the center gap.
    sup_delta_w = c_w_a * math.sqrt(tc_eff) * math.sqrt(kappa)
    c_w_w = cw_from_c1(c1_bound(dataclasses.replace(wrench_params, half_width=width_bound), s.nv, sup_delta_w), s.nv)
    return Plan(s.t, s.loc, s.scale, wrench, robust_beta(s.bp, c_w_w, tc_eff), tc, anchor)


_PLAN_BUILDERS = {"gp_ucb": _plan_gp_ucb, "fc": _plan_fc, "a2": _plan_a2}


def _ucb(mean: np.ndarray, var: np.ndarray, beta: float) -> np.ndarray:
    return mean + math.sqrt(beta) * np.sqrt(var)


def acquisition_value(state: BoState, x) -> float:
    """Upper-confidence acquisition at a single point, in standardized space."""
    return float(_acquisition_batch(state, np.atleast_2d(x))[0])


def _acquisition_batch(state: BoState, Xq: np.ndarray) -> np.ndarray:
    plan = state.plan()
    mean, var = plan.model.predict(Xq)
    return _ucb(mean, var, plan.beta)


def maximize_acquisition(state: BoState, domain: DomainSpec) -> np.ndarray:
    """Argmax of the acquisition: grid scan in 1-D, multi-start coordinate
    refinement otherwise.  Ties break toward the lowest grid index.

    Above 1-D every Sobol start moves together: each sweep coordinate is one
    predict over all starts' candidate lines, 2*d + 1 predicts per search.
    """
    if domain.grid is not None:
        if domain.grid.shape[0] == 0:
            raise ValueError("empty acquisition domain")
        vals = _acquisition_batch(state, domain.grid)
        return domain.grid[int(np.argmax(vals))].copy()

    d, n, k = domain.dim, domain.n_starts, domain.coord_grid
    starts = qmc.Sobol(d, scramble=False).random(n)
    x = qmc.scale(starts, domain.bounds[:, 0], domain.bounds[:, 1])  # (n, d): every start at once
    for _ in range(2):  # coordinate sweeps
        for j in range(d):
            cand = np.repeat(x, k, axis=0)  # start i's line is rows i*k .. i*k + k-1
            cand[:, j] = np.tile(np.linspace(domain.bounds[j, 0], domain.bounds[j, 1], k), n)
            vals = _acquisition_batch(state, cand).reshape(n, k)
            x = cand.reshape(n, k, d)[np.arange(n), np.argmax(vals, axis=1)]  # first maximum per start
    return x[int(np.argmax(_acquisition_batch(state, x)))].copy()  # first start on a tie


def step(state: BoState) -> tuple[np.ndarray, float]:
    """One BO step: maximize the acquisition, observe, let the adversary
    corrupt, record.  Returns the query and the (possibly corrupted) value."""
    try:
        plan = state.plan()  # the fits, and so the Cholesky factorizations, run here
        x = maximize_acquisition(state, state.domain)
    except FactorizationError as exc:
        raise FactorizationError(f"step {state.t + 1}: {exc}") from exc
    y_clean = observe(state.objective, x, state.noise_rng)
    y_observed, flag = corrupt(state.policy, state.budget, x, y_clean, plan.t)
    state._append(x, y_clean, y_observed, flag)
    state.records.append(StepRecord(plan.t, np.atleast_1d(x), y_clean, y_observed, flag, plan.beta, plan.tc))
    state.t = plan.t
    return x, y_observed


def run_loop(state: BoState, n_iterations: int) -> list[StepRecord]:
    for _ in range(n_iterations):
        step(state)
    return state.records


def fit_hyperparameters_loo(model_kind: str, data, weight_params, search_space: dict):
    """Pick kernel hyperparameters and noise by weighted leave-one-out error.

    Minimizes sum_i wbar_i * (y_i - mu_{-i}(x_i))^2 over the Cartesian grid
    in search_space, with leave-one-out means from the rank-one identity on
    the regularized Gram matrix.  Weights come from the supplied weight
    function (uniform when None or for the plain-GP model kind), and for the
    robust model kinds the leave-one-out fit itself uses the downweighted
    system, so an extreme point neither counts in the score nor contaminates
    its neighbors' held-out predictions.
    """
    X, y = data
    X = np.asarray(X, dtype=float)
    if X.ndim <= 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if X.shape[0] != n:
        raise ValueError("X and y must have equal length")
    if n < 3:
        raise ValueError("leave-one-out fitting needs at least 3 points")

    family = search_space.get("family", "rbf")
    ls_grid = search_space.get("lengthscale")
    os_grid = search_space.get("outputscale", [1.0])
    nv_grid = search_space.get("noise_var")
    if not ls_grid or not nv_grid:
        raise ValueError("search_space must provide lengthscale and noise_var grids")

    robust = model_kind != "gp_ucb" and weight_params is not None
    if robust:
        wbar = pimq_weights(weight_params, X, y) / weight_params.w_max
    else:
        wbar = np.ones(n)

    best = None
    for ls, os_, nv in product(ls_grid, os_grid, nv_grid):
        corr = build_corrections(weight_params, nv, X, y) if robust else None
        try:
            post = gp_fit(X, y, KernelSpec(family, ls, os_), nv, corr)
        except (ValueError, FactorizationError):
            continue
        Ainv_diag = np.diag(solve_cho(post.chol, np.eye(n)))
        if np.any(Ainv_diag <= 1e-12):
            continue
        loo_resid = post.alpha / Ainv_diag
        objective = float(np.sum(wbar * loo_resid**2))
        if best is None or objective < best[0]:
            best = (objective, post.spec, float(nv))
    if best is None:
        raise ValueError("no viable candidate in the hyperparameter grid")
    return best[1], best[2]
