import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from robustbo import gp
from robustbo.adversary import CorruptionBudget, EagerBudget, NoCorruption
from robustbo.algorithms import (
    BoState,
    DomainSpec,
    acquisition_value,
    fit_hyperparameters_loo,
    maximize_acquisition,
    run_loop,
    standardize_targets,
    step,
)
from robustbo.gp import gp_fit
from robustbo.kernels import FactorizationError, KernelSpec
from robustbo.objectives import Objective, make_objective
from robustbo.rcgp import rcgp_fit
from robustbo.schedules import FiniteDomain, beta_prime
from robustbo.weights import pimq_params_for_noise


def make_state(algorithm, seed=0, horizon=20, policy=None, budget_count=0, grid=201, **kw):
    obj = make_objective("forrester", 1.0)
    domain = DomainSpec.from_bounds(obj.bounds, grid)
    defaults = dict(
        algorithm=algorithm,
        objective=obj,
        policy=policy if policy is not None else NoCorruption(),
        budget=CorruptionBudget("fixed_count", horizon, count=budget_count),
        spec=KernelSpec("rbf", 0.15, 1.0),
        domain=domain,
        case=FiniteDomain(grid),
        delta=0.1,
        b_f=8.0,
        horizon=horizon,
        noise_rng=np.random.default_rng(seed),
        standardize="initial",
    )
    defaults.update(kw)
    return BoState(**defaults)


def seed_points(n=4):
    return np.linspace(0.05, 0.95, n).reshape(-1, 1)


# -- standardization --------------------------------------------------------


def test_standardize_modes():
    y = [1.0, 2.0, 3.0, 100.0]
    assert standardize_targets(y, "none") == (0.0, 1.0)
    loc, scale = standardize_targets(y, "zscore")
    assert loc == pytest.approx(26.5) and scale == pytest.approx(np.std(y))
    loc, scale = standardize_targets(y, "robust")
    assert loc == 2.5  # median shrugs off the outlier
    assert scale == pytest.approx(1.4826 * 1.0)  # MAD of [1.5, 0.5, 0.5, 97.5]


def test_standardize_degenerate_falls_back():
    assert standardize_targets([3.0, 3.0, 3.0], "robust") == (3.0, 1.0)
    assert standardize_targets([], "zscore") == (0.0, 1.0)
    with pytest.raises(ValueError):
        standardize_targets([1.0], "sometimes")


@pytest.mark.parametrize("mode", ["robust", "zscore"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_standardize_reads_only_finite_values(mode, bad):
    assert standardize_targets([1.0, 2.0, 3.0, 4.0, bad], mode) == standardize_targets([1.0, 2.0, 3.0, 4.0], mode)
    assert standardize_targets([bad, bad], mode) == (0.0, 1.0)


@given(
    y=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf])), max_size=12),
    mode=st.sampled_from(["robust", "zscore"]),
)
@settings(max_examples=100, deadline=None)
def test_standardize_stays_finite(y, mode):
    loc, scale = standardize_targets(y, mode)
    assert math.isfinite(loc) and math.isfinite(scale) and scale > 0
    assert (loc, scale) == standardize_targets([v for v in y if math.isfinite(v)], mode)


# -- acquisition ------------------------------------------------------------


def test_prior_acquisition_constant_tie_breaks_to_first_point():
    state = make_state("gp_ucb", standardize="none")
    x = maximize_acquisition(state, state.domain)
    assert x[0] == state.domain.grid[0, 0]
    a = acquisition_value(state, 0.3)
    beta = state.plan().beta
    assert a == pytest.approx(math.sqrt(beta) * 1.0, abs=1e-12)


def test_argmax_beats_all_grid_points(rng):
    state = make_state("fc")
    state.add_initial(seed_points())
    best = maximize_acquisition(state, state.domain)
    best_val = acquisition_value(state, best)
    for x in rng.choice(state.domain.grid[:, 0], size=100):
        assert best_val >= acquisition_value(state, x) - 1e-12


def test_step_appends_data_and_advances():
    state = make_state("gp_ucb")
    state.add_initial(seed_points())
    x, y = step(state)
    assert state.t == 1 and len(state.X) == 5
    assert state.records[-1].t == 1
    assert state.objective.in_domain(x)


@pytest.mark.parametrize(
    "option, value",
    [
        ("algorithm", "newton"),
        ("tc_mode", "sometimes"),
        ("tc_mode", "forcezero"),
        ("a2_width_mode", "adaptve"),
        ("pimq_policy", "manul"),
    ],
)
def test_unknown_option_rejected(option, value):
    kw = {"algorithm": "a2", option: value}
    with pytest.raises(ValueError, match=option):
        make_state(**kw)


def test_force_zero_tc_leaves_beta_uninflated():
    betas = {}
    for tc_mode in ("estimate", "force_zero"):
        state = make_state("fc", policy=EagerBudget(1e6), budget_count=2, tc_mode=tc_mode, pimq_policy="manual")
        state.add_initial(seed_points())
        run_loop(state, 3)
        plan = state.plan()
        assert plan.tc == 2  # the estimate is recorded either way
        betas[tc_mode] = plan.beta
    bp = beta_prime(FiniteDomain(201), 4, 0.05)
    assert betas["force_zero"] == bp
    assert betas["estimate"] > bp


def test_determinism_same_seed_same_queries():
    runs = []
    for _ in range(2):
        state = make_state("a2", seed=5)
        state.add_initial(seed_points())
        run_loop(state, 8)
        runs.append([r.x[0] for r in state.records])
    assert runs[0] == runs[1]


def test_fc_matches_baseline_on_clean_data():
    queries = {}
    for algorithm in ("gp_ucb", "fc"):
        state = make_state(algorithm, seed=3, pimq_policy="schedule")
        state.add_initial(seed_points())
        run_loop(state, 10)
        queries[algorithm] = [r.x[0] for r in state.records]
    assert queries["gp_ucb"] == queries["fc"]


def test_a2_models_coincide_before_any_data():
    state = make_state("a2", standardize="none")
    plan = state.plan()
    grid = state.domain.grid
    am, av = plan.anchor.predict(grid)
    wm, wv = plan.model.predict(grid)
    np.testing.assert_array_equal(am, wm)
    np.testing.assert_array_equal(av, wv)


def corrupted_a2_state():
    # outliers of moderate size, so the robust models downweight rather than drop them
    state = make_state("a2", seed=2, policy=EagerBudget(40.0), budget_count=4, pimq_policy="manual")
    state.add_initial(seed_points())
    run_loop(state, 6)
    return state


def standardized_data(state, plan):
    X = np.array(state.X)
    ys = (np.array(state.y_obs) - plan.loc) / plan.scale
    return X, ys, state.noise_var_raw / plan.scale**2


def test_a2_wrench_center_is_anchor_mean():
    state = corrupted_a2_state()
    plan = state.plan()
    X, ys, nv = standardized_data(state, plan)
    center = plan.anchor.predict(X)[0]
    params = pimq_params_for_noise(center, state.pimq_half_width, state.pimq_c, nv)
    expected = rcgp_fit(X, ys, state.spec, nv, params)
    grid = state.domain.grid
    for got, want in zip(plan.model.predict(grid), expected.predict(grid)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("width_mode", ["fixed", "adaptive"])
def test_a2_plan_predicts_with_its_anchor_once(width_mode, monkeypatch):
    # the wrench's plateau center (and adaptive width) come from one anchor predict at the data
    state = make_state("a2", seed=2, policy=EagerBudget(40.0), budget_count=4, a2_width_mode=width_mode)
    state.add_initial(seed_points())
    run_loop(state, 6)
    calls = []
    for name in ("predict", "predict_mean"):
        method = getattr(gp.GpPosterior, name)
        spy = lambda self, Xq, name=name, method=method: calls.append((name, len(Xq))) or method(self, Xq)
        monkeypatch.setattr(gp.GpPosterior, name, spy)
    state.plan()
    # only the adaptive width reads the anchor's variance
    assert calls == [("predict" if width_mode == "adaptive" else "predict_mean", len(state.X))]


def test_a2_anchor_is_the_fc_model():
    state = corrupted_a2_state()
    anchor = state.plan().anchor
    assert np.count_nonzero(anchor.corrections.jw != 1.0) >= 2
    fc = dataclasses.replace(state, algorithm="fc", _plan=None)
    grid = state.domain.grid
    for got, want in zip(anchor.predict(grid), fc.plan().model.predict(grid)):
        np.testing.assert_array_equal(got, want)


def test_step_number_prefixes_a_factorization_failure(monkeypatch):
    state = make_state("fc")
    state.add_initial(seed_points())

    def fail(A, outputscale):
        raise FactorizationError("Cholesky failed")

    monkeypatch.setattr(gp, "jittered_cho_factor", fail)
    with pytest.raises(FactorizationError, match="^step 1: Cholesky failed"):
        step(state)


def test_delta_outside_unit_interval_rejected():
    for delta in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="delta"):
            make_state("gp_ucb", delta=delta)


def test_corruption_increases_robust_confidence_width():
    # an extreme early outlier must inflate the confidence multiplier once the
    # corruption-count estimate is active
    state = make_state(
        "fc", policy=EagerBudget(1e6), budget_count=2, tc_mode="estimate",
        pimq_policy="manual", pimq_half_width=1.96,
    )
    state.add_initial(seed_points())
    run_loop(state, 4)
    clean = make_state("fc", tc_mode="estimate", pimq_policy="manual", pimq_half_width=1.96)
    clean.add_initial(seed_points())
    run_loop(clean, 4)
    assert state.records[-1].tc_estimate >= 1
    assert state.records[-1].beta_t > clean.records[-1].beta_t


def test_confidence_bound_sandwich_on_clean_runs():
    # f(x*) should sit below the acquisition at x*, and the chosen query must
    # dominate x* by construction of the argmax; count any failures of the
    # first (probabilistic) inequality
    obj = make_objective("forrester", 1.0)
    grid = np.linspace(0, 1, 201)
    x_star = grid[np.argmax([obj.evaluate(np.array([g])) for g in grid])]
    f_star = obj.evaluate(np.array([x_star]))
    violations = checks = 0
    for seed in range(3):
        state = make_state("fc", seed=seed, pimq_policy="schedule")
        state.add_initial(seed_points())
        for _ in range(15):
            plan = state.plan()
            a_star = acquisition_value(state, x_star)
            x_t = maximize_acquisition(state, state.domain)
            assert acquisition_value(state, x_t) >= a_star - 1e-12
            f_star_std = (f_star - plan.loc) / plan.scale
            checks += 1
            if a_star < f_star_std:
                violations += 1
            step(state)
    assert violations / checks <= 0.2


def test_multistart_refinement_on_2d_objective():
    obj = make_objective("branin", 1.0)
    domain = DomainSpec.from_bounds(obj.bounds)
    assert domain.grid is None
    state = make_state("gp_ucb")
    state.objective = obj
    state.domain = domain
    state.spec = KernelSpec("rbf", [2.0, 2.0], 1.0)
    state.add_initial(np.array([[0.0, 5.0], [5.0, 10.0], [-3.0, 2.0], [8.0, 12.0]]))
    x, _ = step(state)
    assert obj.in_domain(x) and x.shape == (2,)


def _reference_search(state, domain):
    """The per-start coordinate search the batched one replaced: each Sobol
    start refined on its own, the first start kept on equal final values."""
    plan = state.plan()

    def ucb(X):
        mean, var = plan.model.predict(X)
        return mean + math.sqrt(plan.beta) * np.sqrt(var)

    d = domain.dim
    starts = qmc.Sobol(d, scramble=False).random(domain.n_starts)
    starts = qmc.scale(starts, domain.bounds[:, 0], domain.bounds[:, 1])
    best_x, best_v = None, -np.inf
    for x0 in starts:
        x = x0.copy()
        for _ in range(2):
            for j in range(d):
                cand = np.tile(x, (domain.coord_grid, 1))
                cand[:, j] = np.linspace(domain.bounds[j, 0], domain.bounds[j, 1], domain.coord_grid)
                x = cand[int(np.argmax(ucb(cand)))]
        v = float(ucb(np.atleast_2d(x))[0])
        if v > best_v:
            best_x, best_v = x, v
    return best_x


_BRANIN = make_objective("branin", 1.0)
_SPHERE3 = Objective("sphere3", np.array([[-1.0, 1.0], [0.0, 2.0], [-2.0, 0.5]]),
                     lambda x: -float(np.sum((x - 0.3) ** 2)), 0.01)
_SEARCH_CASES = {
    # objective, lengthscale, seed points, eager outlier for the corrupted fc state
    "branin2d": (_BRANIN, [3.0, 3.0], np.array([[0.0, 5.0], [5.0, 10.0], [-3.0, 2.0], [8.0, 12.0], [2.0, 1.0]]), 300.0),
    "sphere3d": (_SPHERE3, [0.6, 0.6, 0.6], np.array([[-0.5, 0.5, -1.0], [0.5, 1.5, 0.0], [0.9, 0.1, -1.8],
                                                     [-0.9, 1.9, 0.3], [0.0, 1.0, -0.5]]), 5.0),
}


def make_search_state(case, algorithm, n_starts=64, steps=0, with_data=True, **kw):
    objective, lengthscale, X0, outlier = _SEARCH_CASES[case]
    domain = dataclasses.replace(DomainSpec.from_bounds(objective.bounds), n_starts=n_starts)
    if algorithm == "fc":  # corrupted: the first observations are outliers the robust fit downweights
        kw = dict(policy=EagerBudget(outlier), budget_count=2, pimq_policy="manual", **kw)
    state = make_state(algorithm, objective=objective, domain=domain, spec=KernelSpec("matern52", lengthscale, 1.0),
                       case=FiniteDomain(1001), **kw)
    if with_data:
        state.add_initial(X0)
    run_loop(state, steps)
    return state


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol:UserWarning")  # n_starts = 10
@pytest.mark.parametrize("n_starts", [64, 10])
@pytest.mark.parametrize("algorithm", ["gp_ucb", "fc"])
@pytest.mark.parametrize("case", ["branin2d", "sphere3d"])
def test_batched_search_matches_the_per_start_loop(case, algorithm, n_starts):
    state = make_search_state(case, algorithm, n_starts, steps=3)
    if algorithm == "fc":
        assert state.corrupted[-3:] == [True, True, False]
        assert np.any(state.plan().model.corrections.jw != 1.0)
    x = maximize_acquisition(state, state.domain)
    assert np.array_equal(x, _reference_search(state, state.domain))
    assert state.objective.in_domain(x)


@pytest.mark.parametrize("case", ["branin2d", "sphere3d"])
def test_batched_search_predicts_once_per_sweep_coordinate(case, monkeypatch):
    state = make_search_state(case, "fc", steps=2)
    state.plan()  # the fit is not part of the search
    sizes = []
    predict = gp.GpPosterior.predict
    monkeypatch.setattr(gp.GpPosterior, "predict", lambda self, Xq: sizes.append(len(Xq)) or predict(self, Xq))
    maximize_acquisition(state, state.domain)
    d, block = state.domain.dim, state.domain.n_starts * state.domain.coord_grid
    assert sizes == [block] * (2 * d) + [state.domain.n_starts]


def test_batched_search_on_the_prior_keeps_the_first_start():
    # A flat acquisition ties everywhere: every sweep keeps the lowest grid
    # index, so every start ends at the lower corner and the first one is kept.
    state = make_search_state("sphere3d", "gp_ucb", with_data=False, standardize="none")
    x = maximize_acquisition(state, state.domain)
    assert np.array_equal(x, _reference_search(state, state.domain))
    assert np.array_equal(x, state.domain.bounds[:, 0])


def test_batched_search_keeps_the_first_of_tied_starts():
    # One low observation in a corner of the unit square, with a short
    # lengthscale: away from it the acquisition is exactly the prior's, so
    # starts settle on different points of equal value and the first start wins.
    square = Objective("square", np.array([[0.0, 1.0], [0.0, 1.0]]), lambda x: -10.0, 0.01)
    state = make_state("gp_ucb", objective=square, domain=DomainSpec.from_bounds(square.bounds),
                       spec=KernelSpec("rbf", [0.02, 0.02], 1.0), case=FiniteDomain(1001), standardize="none")
    state.add_initial(np.zeros((1, 2)))
    x = maximize_acquisition(state, state.domain)
    assert np.array_equal(x, _reference_search(state, state.domain))
    assert not np.array_equal(x, x[::-1]) and acquisition_value(state, x) == acquisition_value(state, x[::-1])


# -- hyperparameter fitting -------------------------------------------------


SPACE = {"lengthscale": [0.05, 0.2, 1.0], "outputscale": [1.0], "noise_var": [0.01]}


def _gp_sample(rng, lengthscale, n=40):
    from robustbo.kernels import gram_matrix

    X = rng.uniform(0, 1, size=n)
    K = gram_matrix(KernelSpec("rbf", lengthscale, 1.0), X) + 1e-10 * np.eye(n)
    y = np.linalg.cholesky(K) @ rng.standard_normal(n) + 0.1 * rng.standard_normal(n)
    return X, y


def test_loo_recovers_generating_lengthscale():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X, y = _gp_sample(rng, 0.2)
        spec, _ = fit_hyperparameters_loo("gp_ucb", (X, y), None, SPACE)
        hits += spec.lengthscale[0] == 0.2
    assert hits >= 11


def test_loo_weighted_ignores_extreme_outlier():
    from robustbo.weights import ZERO_CENTER, pimq_params_for_noise

    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X, y = _gp_sample(rng, 0.2)
        y = y.copy()
        y[0] += 1e3
        params = pimq_params_for_noise(ZERO_CENTER, 3.0, 1.0, 0.01)
        spec, _ = fit_hyperparameters_loo("fc", (X, y), params, SPACE)
        hits += spec.lengthscale[0] == 0.2
    assert hits >= 11


def test_hyperfit_loop_refits_and_keeps_fc_equal_to_gp_ucb():
    space = {"lengthscale": [0.05, 0.3], "outputscale": [1.0], "noise_var": [0.02, 0.5]}
    queries = {}
    for algorithm in ("gp_ucb", "fc"):
        state = make_state(algorithm, seed=4, hyperfit=True, hyperfit_every=3, hyperfit_space=space)
        state.add_initial(seed_points())
        run_loop(state, 6)
        queries[algorithm] = [r.x[0] for r in state.records]
        plan = state.plan()  # step 7 refits, since (7 - 1) % hyperfit_every == 0
        assert state.spec.lengthscale[0] in space["lengthscale"]
        assert plan.model.noise_var in space["noise_var"]
        X, ys, _ = standardized_data(state, plan)
        plain = gp_fit(X, ys, state.spec, plan.model.noise_var)
        for got, want in zip(plan.model.predict(state.domain.grid), plain.predict(state.domain.grid)):
            np.testing.assert_array_equal(got, want)
    # clean data sit inside the plateau, so the weighted refit picks the same kernel
    assert queries["gp_ucb"] == queries["fc"]


def test_hyperfit_noise_variance_kept_between_refits():
    space = {"lengthscale": [0.05, 0.3], "outputscale": [1.0], "noise_var": [0.02, 0.5]}
    state = make_state("fc", seed=4, hyperfit=True, hyperfit_every=3, hyperfit_space=space)
    state.add_initial(seed_points())
    run_loop(state, 3)
    fitted = state.plan().model.noise_var  # step 4 refits
    assert fitted in space["noise_var"] and fitted != state.objective.noise_var / state.plan().scale**2
    step(state)
    nv = state.plan().model.noise_var  # step 5 does not refit
    assert abs(nv - fitted) <= np.spacing(fitted)  # kept in raw units, so equal up to one rounding


@pytest.mark.parametrize("policy", ["manual", "heuristic"])
def test_hyperfit_weights_use_the_fc_plateau_width(policy, monkeypatch):
    from robustbo import algorithms

    widths = []
    loo = algorithms.fit_hyperparameters_loo

    def spy(kind, data, wp, space):
        widths.append(wp.half_width)
        return loo(kind, data, wp, space)

    monkeypatch.setattr(algorithms, "fit_hyperparameters_loo", spy)
    state = make_state("fc", hyperfit=True, hyperfit_every=1, hyperfit_space=SPACE,
                       pimq_policy=policy, pimq_half_width=0.7)
    state.add_initial(seed_points())
    _, ys, _ = standardized_data(state, state.plan())  # step 1 refits
    if policy == "manual":
        assert widths == [0.7]
    else:
        assert widths == [float(np.quantile(np.abs(ys - np.median(ys)), 0.95, method="lower"))]


def test_loo_validation():
    with pytest.raises(ValueError):
        fit_hyperparameters_loo("gp_ucb", ([0.1, 0.2], [1.0, 2.0]), None, SPACE)
    with pytest.raises(ValueError):
        fit_hyperparameters_loo("gp_ucb", ([0.1, 0.2, 0.3], [1.0, 2.0, 3.0]), None, {"lengthscale": []})
