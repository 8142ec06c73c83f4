"""Bayesian-optimization loops: the standard UCB baseline, the fixed-center
robust variant, and the two-model anchor/adapt robust variant.

One BoState owns one single-threaded loop.  Targets are standardized before
every fit (the standardizer is configurable), acquisition is computed in
standardized space, and the caller accounts regret in raw space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .schedules import AssumptionCase, CompactConvex, FiniteDomain, Rkhs
from .schedules import beta_prime, noise_bound, plateau_width, robust_beta
# step calls maximize_acquisition through this module's binding, which perfbench's tracer wraps.
from .search import DomainSpec, maximize_acquisition
from .weights import ZERO_CENTER, PimqParams, c1_bound, cw_from_c1, estimate_tc, plateau_cap
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
    model: GpPosterior
    beta: float
    tc: int
    anchor: Optional[GpPosterior]

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
        if not 0.0 <= self.pimq_half_width < math.inf:  # an infinite width makes C1, and so beta, infinite
            raise ValueError(f"pimq_half_width must be finite and >= 0, got {self.pimq_half_width!r}")
        PimqParams(ZERO_CENTER, self.pimq_half_width, self.pimq_c)  # checks shape_c
        if not 0.0 <= self.heuristic_quantile <= 1.0:
            raise ValueError(f"heuristic_quantile must lie in [0, 1], got {self.heuristic_quantile!r}")
        if self.hyperfit_every < 1:
            raise ValueError(f"hyperfit_every must be >= 1, got {self.hyperfit_every!r}")
        case_d = self.case.d if isinstance(self.case, CompactConvex) else self.objective.dim  # the others have none
        if not self.spec.dim == self.domain.dim == case_d == self.objective.dim:
            raise ValueError(f"kernel lengthscale dimension {self.spec.dim}, domain dimension {self.domain.dim}, "
                             f"case dimension {case_d} and objective dimension {self.objective.dim} must be equal")
        grid_size = None if self.domain.grid is None else len(self.domain.grid)  # |D| is assumed above 1-D
        if isinstance(self.case, Rkhs) and self.case.b_f != self.b_f:  # beta' would read one, the plateau the other
            raise ValueError(f"the Rkhs case's b_f {self.case.b_f!r} differs from b_f {self.b_f!r}")
        if isinstance(self.case, FiniteDomain) and grid_size not in (None, self.case.size):
            raise ValueError(f"the FiniteDomain size {self.case.size} differs from the grid size {grid_size}")
        if self.budget.horizon != self.horizon:
            raise ValueError(f"the budget's horizon {self.budget.horizon} differs from horizon {self.horizon}")
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

    @property
    def t(self) -> int:
        """The number of steps taken: one record each."""
        return len(self.records)

    def _append(self, x, y: float) -> None:
        self.X.append(np.atleast_1d(np.asarray(x, dtype=float)))
        self.y_obs.append(y)

    # -- per-step model preparation ---------------------------------------

    def plan(self) -> Plan:
        """The upcoming step's data, schedule, fitted model(s) and beta: a function of the settings and the data.

        One pass: standardize, refit the hyperparameters, the schedule, then the
        zero-centred fit (a2's anchor) with its tc, c_w and beta, and for a2 the
        wrench.  gp_ucb's fit has no plateau: its beta is beta', its tc 0.
        """
        t = self.t + 1
        X = np.array(self.X, dtype=float).reshape(len(self.X), self.objective.dim)
        y_raw = np.asarray(self.y_obs, dtype=float)
        loc, scale = self._seed_std if self.standardize == "initial" else standardize_targets(y_raw, self.standardize)
        with np.errstate(over="ignore"):  # a gap beyond the float range is the infinite-outlier limit: ±inf
            ys = (y_raw - loc) / scale
        try:
            scale2 = scale**2
        except OverflowError:  # a scale above 1e154 (finite values near 1e308), against which the noise vanishes
            scale2 = math.inf
        nv = self.objective.noise_var / scale2 if self.fitted_noise_var is None else self.fitted_noise_var
        if nv <= 0:
            nv = 1e-12  # noiseless objectives still need a proper Gram regularizer

        if self.hyperfit_space is not None and len(ys) >= 3 and (t - 1) % self.hyperfit_every == 0:
            self.spec, self.fitted_noise_var = fit_hyperparameters_loo(
                (X, ys), lambda spec, nv: self._zero_plateau(ys, spec, nv), self.hyperfit_space)
            nv = self.fitted_noise_var

        gamma_t = info_gain(self.spec, X, nv) if isinstance(self.case, Rkhs) else 0.0
        bp = beta_prime(self.case, t, self.delta / 2.0, gamma_t)
        n_t = noise_bound(self.case, math.sqrt(nv), self.horizon, self.delta / 2.0)

        params = self._zero_plateau(ys, self.spec, nv)
        model = _fit(self, "anchor" if self.algorithm == "a2" else "model", X, ys, nv, params)
        beta, tc, anchor = bp, 0, None  # gp_ucb's
        if params is not None:
            tc = estimate_tc(params, ys)
            tc_eff = 0 if self.tc_mode == "force_zero" else tc
            # Computable stand-in for the center-to-clean-mean gap in the C1 bound.
            sup_delta = math.sqrt(self.spec.outputscale) * (math.sqrt(bp) + self.b_f)
            c_w = cw_from_c1(c1_bound(params.half_width, params.shape_c, nv, sup_delta), nv)
        if self.algorithm == "fc":
            beta = robust_beta(bp, c_w, tc_eff)
        elif self.algorithm == "a2":
            # The wrench: its plateau center (and adaptive width) is one anchor
            # predict at the data; its fit, tc and C1 read the one PimqParams.
            anchor, kappa = model, self.spec.outputscale
            if self.pimq_policy in ("heuristic", "manual"):
                width_bound = params.half_width
            else:
                bp_end = beta_prime(self.case, self.horizon, self.delta / 2.0, gamma_t)
                width_bound = plateau_width(math.sqrt(robust_beta(bp_end, c_w, tc_eff)), math.sqrt(kappa), n_t)
            if self.a2_width_mode == "adaptive":  # __post_init__ allows it only under the schedule policy
                center, var = anchor.predict(X)  # the adaptive width is the only reader of the variance
                width = plateau_width(math.sqrt(robust_beta(bp, c_w, tc_eff)), np.sqrt(var), n_t)
            else:
                center, width = anchor.predict_mean(X), width_bound
            params = PimqParams(center, width, self.pimq_c)
            model = _fit(self, "model", X, ys, nv, params)
            tc = estimate_tc(params, ys)
            tc_eff = 0 if self.tc_mode == "force_zero" else tc
            # The wrench's C1 takes the scalar width bound, and as the center gap the anchor's
            # certified deviation at the wrench's own tc.
            sup_delta_w = c_w * math.sqrt(tc_eff) * math.sqrt(kappa)
            c_w_w = cw_from_c1(c1_bound(width_bound, params.shape_c, nv, sup_delta_w), nv)
            beta = robust_beta(bp, c_w_w, tc_eff)
        return Plan(t, loc, scale, X, ys, nv, gamma_t, bp, n_t, model, beta, tc, anchor)

    def _zero_plateau(self, ys: np.ndarray, spec: KernelSpec, nv: float) -> Optional[PimqParams]:
        """The zero-centred plateau of a fit with kernel spec and noise variance
        nv: the plan's first model (fc's, a2's anchor) and each LOO candidate.
        None for gp_ucb, which has no plateau."""
        if self.algorithm == "gp_ucb":
            return None
        if self.pimq_policy == "heuristic" and len(ys):
            # 95% quantile of |y - median| on standardized targets, taken at the
            # next-lowest order statistic so a sub-5% corrupted fraction cannot
            # inflate it.
            width = float(np.quantile(np.abs(ys - np.median(ys)), self.heuristic_quantile, method="lower"))
        elif self.pimq_policy == "manual":
            width = self.pimq_half_width
        else:
            n_t = noise_bound(self.case, math.sqrt(nv), self.horizon, self.delta / 2.0)  # Plan.n_t at nv
            width = plateau_width(self.b_f, math.sqrt(spec.outputscale), n_t)
        return PimqParams(ZERO_CENTER, width, self.pimq_c)


def _fit(state: BoState, role: str, X: np.ndarray, ys: np.ndarray, nv: float,
         params: Optional[PimqParams]) -> GpPosterior:
    """The posterior on rcgp_data's data (standardized targets ys at X, noise
    variance nv) for the plateau params (None: the plain GP), on the grid for
    the "model" role, the only one the acquisition scans, and off it for the
    "anchor" role.

    The rule reads the data.  A row of the previous plan's model for the
    same role is unchanged when its point is still kept with the same
    target and corrections, bit for bit.  The model keeps its rows up to the
    first changed one and borders after them the unchanged later rows, in
    their previous order, then the changed and new kept points, in insertion
    order; so the points whose corrections keep moving (the ones a2's
    wrench downweights) sink to the end, and the next step re-borders only
    them.  The usual step, one new point after an unchanged model, is one
    extend on head(n), the model itself.  A moved standardization changes
    every old target, a hyperparameter refit may pick another kernel or
    noise; those steps, a changed first row, no kept point and a border the
    factor cannot take refit with gp_fit on the kept data.
    """
    X, y, corr, kept = rcgp_data(X, ys, state.spec, nv, params)
    prev, rows = state._fits.get(role, (None, None))
    model = None
    if prev is not None and y.shape[0] and prev.spec == state.spec and prev.noise_var == nv:
        model, rows = _bordered(prev, rows, X, y, corr, kept, ys.shape[0])
    if model is None:
        model, rows = gp_fit(X, y, state.spec, nv, corr, state.domain.grid if role == "model" else None), kept
    state._fits[role] = (model, rows)
    return model


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
    same = (at >= 0) & (prev.y == y[pos]) & prev.corrections.same(corr[pos])
    k = m if same.all() else int(np.argmin(same))
    head = prev.head(k) if k else None
    if head is None:
        return None, None
    fresh = np.ones(kept.shape[0], dtype=bool)
    fresh[at[same]] = False
    order = np.concatenate([at[k:][same[k:]], np.flatnonzero(fresh)])  # the kept data's rows to border
    model = head.extend(X[order], y[order], corr[order]) if order.shape[0] else head
    return model, np.concatenate([rows[:k], kept[order]])


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
    return x, y_observed


def run_loop(state: BoState, n_iterations: int) -> list[StepRecord]:
    for _ in range(n_iterations):
        step(state)
    return state.records


def fit_hyperparameters_loo(data, plateau, search_space: dict):
    """Pick kernel hyperparameters and noise by weighted leave-one-out error.

    Minimizes sum_i wbar_i * (y_i - mu_{-i}(x_i))^2 over the Cartesian grid
    in search_space, with leave-one-out means from the rank-one identity on
    the regularized Gram matrix, and wbar_i the kept point's weight over the
    cap.  Each candidate is a step's own fit: rcgp_fit with the P-IMQ
    parameters plateau(spec, noise_var) gives for the candidate's own kernel
    and noise variance, scored on its kept points and their weights.  A
    plateau that gives None is the plain GP's (every point kept, every wbar_i
    1); with a plateau an extreme point, infinite and NaN ones included,
    neither counts in the score nor contaminates its neighbors' held-out
    predictions.
    """
    X, y = data
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if np.shape(X)[:1] != (n,):
        raise ValueError("X and y must have equal length")
    if n < 3:
        raise ValueError("leave-one-out fitting needs at least 3 points")

    best = None
    for spec, nv in _search_grids(search_space, np.shape(X)[1] if np.ndim(X) == 2 else 1):
        try:
            post = rcgp_fit(X, y, spec, nv, plateau(spec, nv))
        except (ValueError, FactorizationError):
            continue
        Linv = solve_triangular(post.L, np.eye(post.y.shape[0]), lower=True, check_finite=False)
        Ainv_diag = np.sum(Linv * Linv, axis=0)  # [A^-1]_ii, the squared norm of column i of L^-1
        if np.any(Ainv_diag <= 1e-12):
            continue
        wbar = post.corrections.weights / plateau_cap(nv)
        objective = float(np.sum(wbar * (post.alpha / Ainv_diag)**2))
        if best is None or objective < best[0]:
            best = (objective, post.spec, float(nv))
    if best is None:
        raise ValueError("no viable candidate in the hyperparameter grid")
    return best[1], best[2]


def _search_grids(search_space, dim: int) -> list:
    """A search space's candidates [(KernelSpec, noise_var), ...], the lengthscale
    outermost and the noise variance innermost, checked before any fit reads
    them, so no refit is left without a viable candidate.  KernelSpec checks the
    kernel values; a lengthscale entry may be a per-dimension list, of length dim."""
    grids = {"lengthscale": None, "outputscale": [1.0], "noise_var": None}  # each key's default
    if not isinstance(search_space, dict) or not set(search_space) <= {"family", *grids}:
        raise ValueError(f"hyperfit.search_space must be a dict of keys among family, {', '.join(grids)}, "
                         f"got {search_space!r}")
    for name, default in grids.items():
        grids[name] = grid = search_space.get(name, default)
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ValueError(f"hyperfit.search_space {name} must be a nonempty list, got {grid!r}")
    nvs = np.asarray(grids["noise_var"])  # a ragged nesting raises ValueError here
    if nvs.dtype.kind not in "iuf" or nvs.ndim != 1 or not np.all((nvs > 0) & (nvs < np.inf)):
        raise ValueError(f"hyperfit.search_space noise_var must hold positive finite numbers, "
                         f"got {grids['noise_var']!r}")
    family = search_space.get("family", "rbf")
    try:
        specs = [KernelSpec(family, ls, os_) for ls in grids["lengthscale"] for os_ in grids["outputscale"]]
    except ValueError as exc:  # said apart from the same error in the kernel section
        raise ValueError(f"hyperfit.search_space: {exc}") from exc
    if any(spec.dim != dim for spec in specs):  # a scalar lengthscale is 1-D
        raise ValueError(f"hyperfit.search_space lengthscale entries must be of dimension {dim}, "
                         f"got {grids['lengthscale']!r}")
    return [(spec, nv) for spec in specs for nv in grids["noise_var"]]
