import dataclasses
import math

import numpy as np
import pytest

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
from robustbo.kernels import KernelSpec
from robustbo.objectives import make_objective
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
    center = lambda q: plan.anchor.predict(q)[0]  # noqa: E731
    params = pimq_params_for_noise(center, state.pimq_half_width, state.pimq_c, nv)
    expected = rcgp_fit(X, ys, state.spec, nv, params)
    grid = state.domain.grid
    for got, want in zip(plan.model.predict(grid), expected.predict(grid)):
        np.testing.assert_array_equal(got, want)


def test_a2_anchor_is_the_fc_model():
    state = corrupted_a2_state()
    anchor = state.plan().anchor
    assert np.count_nonzero(anchor.corrections.jw != 1.0) >= 2
    fc = dataclasses.replace(state, algorithm="fc", _plan=None)
    grid = state.domain.grid
    for got, want in zip(anchor.predict(grid), fc.plan().model.predict(grid)):
        np.testing.assert_array_equal(got, want)


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


def test_loo_validation():
    with pytest.raises(ValueError):
        fit_hyperparameters_loo("gp_ucb", ([0.1, 0.2], [1.0, 2.0]), None, SPACE)
    with pytest.raises(ValueError):
        fit_hyperparameters_loo("gp_ucb", ([0.1, 0.2, 0.3], [1.0, 2.0, 3.0]), None, {"lengthscale": []})
