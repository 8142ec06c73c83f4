import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ci_variants
from conftest import assert_same_posterior, make_state
from robustbo import algorithms, bench, gp, rcgp
from robustbo.adversary import CorruptionBudget, EagerBudget
from robustbo.algorithms import BoState, fit_hyperparameters_loo, run_loop, standardize_targets, step
from robustbo.gp import gp_fit
from robustbo.kernels import FactorizationError, KernelSpec, info_gain
from robustbo.objectives import make_objective
from robustbo.rcgp import rcgp_data, rcgp_fit
from robustbo.schedules import CompactConvex, FiniteDomain, Rkhs, beta_prime, noise_bound, plateau_width, robust_beta
from robustbo.search import DomainSpec, maximize_acquisition, sobol_points
from robustbo.weights import (ZERO_CENTER, PimqParams, build_corrections, c1_bound, cw_from_c1, estimate_tc,
                              plateau_cap)


def seed_points(n=4):
    return np.linspace(0.05, 0.95, n).reshape(-1, 1)


def same_model(got, want):
    """got is want field for field (a2's anchor keeps no grid predictions)."""
    assert (got.spec, got.noise_var, got.jitter) == (want.spec, want.noise_var, want.jitter)
    for a, b in ((got.X, want.X), (got.y, want.y), (got.L, want.L), (got.w, want.w),
                 (got.corrections.weights, want.corrections.weights), (got.corrections.jw, want.corrections.jw),
                 (got.corrections.mw, want.corrections.mw)):
        assert np.array_equal(a, b)
    if got.grid is not None:
        assert np.array_equal(got.grid.mean, want.grid.mean) and np.array_equal(got.grid.var, want.grid.var)


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


def test_unknown_standardize_mode_rejected_at_construction():
    # not at step 2, the first step with observations to standardize
    with pytest.raises(ValueError, match="standardize"):
        make_state("fc", standardize="mad")


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


@pytest.mark.parametrize("mode", ["zscore", "robust"])
def test_standardize_does_not_overflow_near_the_float_limit(mode):
    # squares of finite values near the float limit must not overflow, or the
    # scale falls back to 1 while loc stays near the outlier
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loc, scale = standardize_targets([1.0, 2.0, 3.0, 1e300], mode)
        big = standardize_targets([1.0, 1.0, 1.0, 1.7e308, -1.7e308, -1.7e308], mode)
    if mode == "zscore":
        assert loc == 0.25 * 1e300 and scale == pytest.approx(np.std([0.0, 0.0, 0.0, 1.0]) * 1e300, rel=1e-15)
    else:
        assert loc == 2.5 and scale == pytest.approx(1.4826)
    assert all(math.isfinite(v) for v in big) and big[1] > 0


@given(
    y=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
    mode=st.sampled_from(["robust", "zscore"]),
)
@settings(max_examples=200, deadline=None)
def test_standardize_is_finite_over_the_whole_float_range(y, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loc, scale = standardize_targets(y, mode)
    assert math.isfinite(loc) and math.isfinite(scale) and scale > 0
    if mode == "zscore" and max(map(abs, y)) < 2.0**500:  # no rescaling: numpy's own bits
        assert (loc, scale) == (float(np.mean(y)), float(np.std(y)) or 1.0)


def test_the_initial_standardization_is_the_seed_zscore():
    # "initial" reads only the seed points, so corrupted observations do not move it
    state = make_state("fc", seed=1, policy=EagerBudget(40.0), budget_count=3, pimq_policy="manual")
    assert (state.plan().loc, state.plan().scale) == (0.0, 1.0)  # no seed point yet
    state.add_initial(seed_points())
    seed_std = standardize_targets(state.y_obs, "zscore")
    for _ in range(6):
        assert (state.plan().loc, state.plan().scale) == seed_std
        step(state)
    assert sum(r.corrupted for r in state.records) == 3


# -- acquisition ------------------------------------------------------------


def test_prior_acquisition_constant_tie_breaks_to_first_point():
    state = make_state("gp_ucb", standardize="none")
    plan = state.plan()
    x = maximize_acquisition(state.domain, plan.ucb)
    assert x[0] == state.domain.grid[0, 0]
    assert plan.ucb(np.atleast_2d(0.3))[0] == pytest.approx(math.sqrt(plan.beta) * 1.0, abs=1e-12)


def test_argmax_beats_all_grid_points(rng):
    state = make_state("fc")
    state.add_initial(seed_points())
    ucb = state.plan().ucb
    best_val = ucb(np.atleast_2d(maximize_acquisition(state.domain, ucb)))[0]
    for x in rng.choice(state.domain.grid[:, 0], size=100):
        assert best_val >= ucb(np.atleast_2d(x))[0] - 1e-12


def test_step_appends_data_and_advances():
    state = make_state("gp_ucb")
    state.add_initial(seed_points())
    x, y = step(state)
    assert state.t == 1 and len(state.X) == 5
    assert state.records[-1].t == 1
    assert state.objective.in_domain(x)


def test_the_step_count_is_the_record_count():
    # a dataclasses.replace clone shares the run's lists, so the original counts the clone's steps too
    state = make_state("gp_ucb")
    state.add_initial(seed_points())
    clone = dataclasses.replace(state)
    run_loop(clone, 3)
    assert state.t == clone.t == len(state.records) == 3


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
    queries, models = {}, {}
    for algorithm in ("gp_ucb", "fc"):
        state = make_state(algorithm, seed=3, pimq_policy="schedule")
        state.add_initial(seed_points())
        run_loop(state, 10)
        queries[algorithm] = [r.x[0] for r in state.records]
        models[algorithm] = state.plan().model
    assert queries["gp_ucb"] == queries["fc"]
    # the plain GP is the all-in-plateau robust fit: the two models are equal field for field
    same_model(models["fc"], models["gp_ucb"])


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
    return X, ys, plan.model.noise_var


def test_a2_wrench_center_is_anchor_mean():
    state = corrupted_a2_state()
    plan = state.plan()  # its wrench bordered since the first plan
    assert np.any(plan.model.corrections.jw != 1.0)
    # a copy starts without a previous model, so its wrench is a refit: bit for bit
    refit = dataclasses.replace(state).plan()
    grid = state.domain.grid
    for live, p in ((False, refit), (True, plan)):
        X, ys, nv = standardized_data(state, p)
        params = PimqParams(p.anchor.predict(X)[0], state.pimq_half_width, state.pimq_c)
        expected = rcgp_fit(X, ys, state.spec, nv, params)
        for got, want in zip(p.model.predict(grid), expected.predict(grid)):
            if live:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            else:
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
    anchor = state.plan().anchor  # extended step by step since the first plan
    assert np.count_nonzero(anchor.corrections.jw != 1.0) >= 2
    # copies start without a previous model, so both refit on the same data: bit for bit
    refit = {alg: dataclasses.replace(state, algorithm=alg).plan() for alg in ("a2", "fc")}
    grid = state.domain.grid
    for got, want in zip(refit["a2"].anchor.predict(grid), refit["fc"].model.predict(grid)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(anchor.predict(grid), refit["fc"].model.predict(grid)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_the_wrench_certificate_reads_the_wrench_tc():
    # a2's beta is the wrench's: (sqrt(beta') + c_w_w sqrt(tc))^2 at the wrench's own tc, whose C1 gap is the
    # anchor's certified deviation c_w_a sqrt(tc) sqrt(kappa), also at the wrench's tc
    state = make_state("a2", policy=EagerBudget(40.0), budget_count=6, pimq_policy="heuristic", tc_mode="estimate")
    state.add_initial(seed_points())
    kappa = state.spec.outputscale
    differ = 0
    for _ in range(8):
        plan = state.plan()
        params = state._zero_plateau(plan.ys, state.spec, plan.nv)
        sup_delta = math.sqrt(kappa) * (math.sqrt(plan.bp) + state.b_f)
        c_w_a = cw_from_c1(c1_bound(params.half_width, params.shape_c, plan.nv, sup_delta), plan.nv)
        wrench = PimqParams(plan.anchor.predict_mean(plan.X), params.half_width, state.pimq_c)
        tc_w = estimate_tc(wrench, plan.ys)
        c_w_w = cw_from_c1(c1_bound(params.half_width, params.shape_c, plan.nv,
                                    c_w_a * math.sqrt(tc_w) * math.sqrt(kappa)), plan.nv)
        assert plan.tc == tc_w and plan.beta == robust_beta(plan.bp, c_w_w, tc_w)
        differ += plan.tc > 0 and estimate_tc(params, plan.ys) != plan.tc  # the anchor's tc gives another beta
        step(state)
    assert differ


# -- the clean-data contract ------------------------------------------------


def _contract_cell(raw: dict, algorithm: str, seed: int):
    """One (algorithm, seed) cell of the config raw, as run_experiment builds it but on a small
    search domain; returns the state and its run's plans, one per step."""
    cfg = bench.ExperimentConfig.from_dict(raw)
    objective = make_objective(cfg.objective, cfg.noise_var)
    bounds = np.atleast_2d(objective.bounds)
    domain = DomainSpec.from_bounds(bounds, cfg.grid_size) if bounds.shape[0] == 1 else \
        DomainSpec(bounds, None, n_starts=8, coord_grid=9)
    state = bench._build_state(cfg, algorithm, seed, objective, domain, None)
    state.add_initial(sobol_points(bounds, cfg.n_initial, bench._rng(seed, bench.STREAM_INITIAL)))
    plans, plan = [], state.plan
    state.plan = lambda: plans.append(plan()) or plans[-1]  # step's one plan per step
    run_loop(state, cfg.n_iterations)
    return state, plans


@given(
    objective=st.sampled_from(["forrester", "sinusoid", "branin"]),
    family=st.sampled_from(["rbf", "matern52"]),
    standardize=st.sampled_from(["robust", "zscore", "none", "initial"]),
    policy=st.sampled_from(["schedule", "heuristic", "manual"]),
    case=st.sampled_from(["finite_domain", "compact_convex", "rkhs"]),
    adaptive=st.booleans(),
    tc_mode=st.sampled_from(["estimate", "force_zero"]),
    corruption=st.one_of(st.none(), st.floats(-2.0, 2.0)),
    n_initial=st.sampled_from([0, 1, 5]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_fc_and_a2_are_gp_ucb_until_a_point_leaves_the_plateau(objective, family, standardize, policy, case,
                                                                adaptive, tc_mode, corruption, n_initial, seed):
    # Up to the first plan with a point outside its plateau, fc's and a2's queries are gp_ucb's and their
    # models are gp_ucb's, field for field: all n points kept, every jw 1 and mw 0, tc 0, beta beta'.  The
    # plateaus are rebuilt here from the settings and gp_ucb's plan, not read from fc's or a2's, and
    # "outside" is weights.estimate_tc's test; a2 is checked while both its anchor's plateau (fc's) and
    # its wrench's hold every point, fc while its own does.
    dim = 2 if objective == "branin" else 1
    raw = {
        "objective": {"name": objective, "noise_var": 0.1},
        "algorithms": ["gp_ucb", "fc", "a2"],
        "kernel": {"family": family, "lengthscale": [0.2 * (15.0 if dim == 2 else 1.0)] * dim},
        "schedule": {"case": case, "delta": 0.1, "b_f": 2.0, "tc_mode": tc_mode,
                     "a2_width_mode": "adaptive" if adaptive and policy == "schedule" else "fixed"},
        "pimq": {"policy": policy, "shape_c": 1.0, **({"half_width": 1.96} if policy == "manual" else {})},
        "adversary": {"policy": "none"} if corruption is None else {
            "policy": "eager_budget", "corruption_value": corruption, "budget": {"mode": "fixed_count", "count": 2}},
        "standardize": standardize, "n_initial": n_initial, "n_iterations": 6, "seeds": [seed], "grid_size": 101,
    }
    if case == "compact_convex":
        raw["schedule"]["compact_convex"] = {"a": 1.0, "b": 1.0, "r": 1.0}
    runs = {a: _contract_cell(raw, a, seed) for a in ("gp_ucb", "fc", "a2")}
    state = runs["gp_ucb"][0]
    checked = {"fc": True, "a2": True}  # fc is checked until the loop stops
    for t, g in enumerate(runs["gp_ucb"][1]):
        assert g.model.y.shape == g.ys.shape and g.tc == 0 and g.beta == g.bp
        kappa = state.spec.outputscale
        if policy == "heuristic" and len(g.ys):
            width = float(np.quantile(np.abs(g.ys - np.median(g.ys)), 0.95, method="lower"))
        elif policy == "manual":
            width = 1.96
        else:
            width = plateau_width(2.0, math.sqrt(kappa), g.n_t)
        if estimate_tc(PimqParams(ZERO_CENTER, width, 1.0), g.ys):
            break
        if state.a2_width_mode == "adaptive":
            center, var = g.model.predict(g.X)
            wrench = PimqParams(center, plateau_width(math.sqrt(g.bp), np.sqrt(var), g.n_t), 1.0)
        else:
            if policy == "schedule":  # at tc 0 the width's beta is beta' at the horizon
                bp_end = beta_prime(state.case, state.horizon, 0.05, g.gamma_t)
                width = plateau_width(math.sqrt(bp_end), math.sqrt(kappa), g.n_t)
            wrench = PimqParams(g.model.predict_mean(g.X), width, 1.0)
        checked["a2"] &= estimate_tc(wrench, g.ys) == 0
        for algorithm in ("fc", "a2"):
            if checked[algorithm]:
                s, plans = runs[algorithm]
                p = plans[t]
                assert np.array_equal(s.records[t].x, state.records[t].x)
                assert (p.t, p.tc, p.beta) == (g.t, 0, g.beta) and np.array_equal(p.ys, g.ys)
                same_model(p.model, g.model)
                if algorithm == "a2":
                    same_model(p.anchor, g.model)


def test_only_the_acquisition_model_keeps_grid_predictions():
    # a2's anchor is asked only at the data, so neither its borders nor its refit keep the grid
    state = corrupted_a2_state()
    for plan in (state.plan(), dataclasses.replace(state).plan()):
        assert plan.anchor.grid is None and plan.model.grid.points is state.domain.grid


def test_step_number_prefixes_a_factorization_failure(monkeypatch):
    state = make_state("fc")
    state.add_initial(seed_points())

    def fail(A, outputscale):
        raise FactorizationError("Cholesky failed")

    monkeypatch.setattr(gp, "jittered_cho_factor", fail)
    with pytest.raises(FactorizationError, match="^step 1: Cholesky failed"):
        step(state)


@pytest.mark.parametrize("over", [
    {"spec": KernelSpec("rbf", [0.15, 0.15])},
    {"domain": DomainSpec.from_bounds([[0.0, 1.0], [0.0, 1.0]])},
    {"hyperfit_space": {"lengthscale": [[0.1, 0.2]], "noise_var": [0.1]}},
    {"case": CompactConvex(1.0, 1.0, 1.0, 5)},
], ids=["kernel", "domain", "search-space", "compact-convex"])
def test_a_dimension_other_than_the_objectives_is_rejected_at_construction(over):
    # not in the first step's fit, or in every hyperparameter refit as "no viable candidate"
    with pytest.raises(ValueError, match="dimension"):
        make_state("gp_ucb", **over)


@pytest.mark.parametrize("over", [
    {"case": Rkhs(2.0)},
    {"case": FiniteDomain(5)},
    {"budget": CorruptionBudget("fixed_count", 2, count=0)},
], ids=["rkhs-b-f", "finite-domain-size", "budget-horizon"])
def test_a_part_that_restates_a_setting_with_another_value_is_rejected(over):
    # beta' would read the case's b_f and the plateau the state's, |D| would not be the grid's size, and a
    # short budget would fail only at the step past its horizon
    with pytest.raises(ValueError, match="differs"):
        make_state("fc", **over)


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
            a_star = plan.ucb(np.atleast_2d(x_star))[0]
            x_t = maximize_acquisition(state.domain, plan.ucb)
            assert plan.ucb(np.atleast_2d(x_t))[0] >= a_star - 1e-12
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


# -- extending the previous model -------------------------------------------


def spy_fits(monkeypatch, borders=None):
    """Record every refit and border a plan makes, in order.  Each border
    also appends (rows bordered, downweighted rows of the result) to borders
    when that list is given."""
    events = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("gp_fit", "rcgp_fit"):
        monkeypatch.setattr(algorithms, name, spy(name, getattr(algorithms, name)))
    extend = spy("extend", gp.GpPosterior.extend)

    def border(self, X2, y2, corrections=None):
        out = extend(self, X2, y2, corrections)
        if borders is not None:
            borders.append((np.size(y2), None if corrections is None else int(np.sum(out.corrections.jw != 1.0))))
        return out

    monkeypatch.setattr(gp.GpPosterior, "extend", border)
    return events


def plan_events(state, steps, monkeypatch, plans=None, borders=None):
    """Run steps BO steps; for each plan, the fits and extensions it made.
    Each plan is also appended to plans when that list is given, and each
    border to borders (see spy_fits)."""
    events = spy_fits(monkeypatch, borders)
    per_plan = []
    for _ in range(steps):
        events.clear()
        plan = state.plan()
        per_plan.append(list(events))
        if plans is not None:
            plans.append(plan)
        step(state)
    return per_plan


@pytest.mark.parametrize("algorithm", ["gp_ucb", "fc", "a2"])
def test_clean_plans_extend_on_every_step(algorithm, monkeypatch):
    # a2's wrench too: its center moves, but every clean point stays in its plateau
    state = make_state(algorithm, pimq_policy="manual")
    state.add_initial(seed_points())
    per_plan = plan_events(state, 8, monkeypatch)
    models = 2 if algorithm == "a2" else 1
    assert per_plan == [["gp_fit"] * models] + [["extend"] * models] * 7


@pytest.mark.parametrize("algorithm", ["fc", "a2"])
def test_a_refit_builds_its_corrections_once(algorithm, monkeypatch):
    # the refit factors the kept rows _fit chose, so each robust model weighs the data once
    state = make_state(algorithm, pimq_policy="manual")
    state.add_initial(seed_points())
    builds = []
    build = rcgp.build_corrections
    monkeypatch.setattr(rcgp, "build_corrections", lambda *args: builds.append(args) or build(*args))
    events = spy_fits(monkeypatch)
    state.plan()
    models = 2 if algorithm == "a2" else 1
    assert len(builds) == models
    assert events == ["gp_fit"] * models


def test_fc_matches_baseline_on_clean_data_under_a_moving_heuristic_width(monkeypatch):
    # the heuristic width moves every step, but with the whole range as the
    # quantile no clean point leaves the plateau: fc extends like gp_ucb and
    # stays equal to it query for query
    queries = {}
    for algorithm in ("gp_ucb", "fc"):
        state = make_state(algorithm, seed=3, pimq_policy="heuristic", heuristic_quantile=1.0)
        state.add_initial(seed_points())
        plans = []
        per_plan = plan_events(state, 10, monkeypatch, plans)
        queries[algorithm] = [r.x[0] for r in state.records]
    assert len({state._zero_plateau(plan.ys, state.spec, plan.nv).half_width for plan in plans}) > 1  # fc's
    assert all(np.all(plan.model.corrections.jw == 1.0) for plan in plans)
    assert per_plan == [["gp_fit"]] + [["extend"]] * 9
    assert queries["gp_ucb"] == queries["fc"]


def test_a2_reborders_only_the_wrench_rows_its_center_moves(monkeypatch):
    # the wrench's plateau center is the anchor's mean at the data, which moves
    # every step, and so do the corrections of the points the wrench
    # downweights: those rows sink to the end of its factor, and each later
    # plan borders them again, with the newest point and at most one other
    state = make_state("a2", seed=1, policy=EagerBudget(40.0), budget_count=3, pimq_policy="manual")
    state.add_initial(seed_points(6))
    plans, borders = [], []
    per_plan = plan_events(state, 8, monkeypatch, plans, borders)
    assert per_plan == [["gp_fit", "gp_fit"]] + [["extend", "extend"]] * 7  # one refit, on the first plan
    assert all(t == 1 for t, _ in borders[::2])  # the anchor, whose zero-centered plateau does not move
    wrench = borders[1::2]
    assert all(t <= r + 2 for t, r in wrench)
    assert sum(r > 0 and t > 1 for t, r in wrench) >= 5  # the plans that moved a correction
    X, ys, nv = standardized_data(state, plans[-1])
    X, ys = X[:-1], ys[:-1]  # the data of the last plan, before its step
    params = PimqParams(plans[-1].anchor.predict(X)[0], state.pimq_half_width, state.pimq_c)
    want = rcgp_fit(X, ys, state.spec, nv, params, state.domain.grid)
    for a, b in zip(plans[-1].model.predict(state.domain.grid), (want.grid.mean, want.grid.var)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def test_a_moving_heuristic_width_reborders_a_downweighted_fit(monkeypatch):
    # a moved width moves the corrections of the downweighted points: the
    # model keeps its rows before the first of them and borders the rest
    state = make_state("fc", seed=1, policy=EagerBudget(40.0), budget_count=3, pimq_policy="heuristic")
    state.add_initial(seed_points(6))
    plans = []
    per_plan = plan_events(state, 10, monkeypatch, plans)
    widths = [state._zero_plateau(plan.ys, state.spec, plan.nv).half_width for plan in plans]
    moved = 0
    for t in range(1, 10):
        if widths[t] != widths[t - 1] and np.any(plans[t - 1].model.corrections.jw != 1.0):
            assert per_plan[t] == ["extend"]
            moved += 1
        X, ys, nv = standardized_data(state, plans[t])
        params = PimqParams(ZERO_CENTER, widths[t], state.pimq_c)
        want = rcgp_fit(X[:6 + t], ys[:6 + t], state.spec, nv, params, state.domain.grid)  # plan t's data
        for a, b in zip(plans[t].model.predict(state.domain.grid), (want.grid.mean, want.grid.var)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
    assert moved >= 3


def test_a_dropped_observation_keeps_the_model():
    # an outlier far beyond the plateau gets a negligible weight and is not
    # part of the fit, so the plan's model is the previous plan's model
    state = make_state("fc", seed=1, policy=EagerBudget(1e9), budget_count=2, pimq_policy="manual")
    state.add_initial(seed_points())
    before = state.plan().model
    step(state)
    assert state.records[-1].corrupted and state.plan().model is before


def test_a_plan_with_no_kept_point_refits_the_prior(monkeypatch):
    # a plateau far from every target drops all the points the previous model kept
    state = make_state("fc", pimq_policy="manual")
    state.add_initial(seed_points())
    s = state.plan()
    assert algorithms._fit(state, "model", s.X, s.ys, s.nv, PimqParams(ZERO_CENTER, 2.0, 1.0)).y.shape == (4,)
    events = spy_fits(monkeypatch)
    model = algorithms._fit(state, "model", s.X, s.ys, s.nv, PimqParams(1e9, 2.0, 1.0))
    assert events == ["gp_fit"] and model.y.shape == (0,)
    assert np.array_equal(model.grid.mean, np.zeros(201)) and np.array_equal(model.grid.var, np.ones(201))


@pytest.mark.parametrize("case", [Rkhs(8.0), FiniteDomain(201)], ids=["rkhs", "finite_domain"])
def test_a_plan_records_its_data_and_schedule(case):
    state = make_state("a2", seed=1, policy=EagerBudget(40.0), budget_count=2, case=case)
    state.add_initial(seed_points())
    run_loop(state, 3)
    plan = state.plan()
    X = np.array(state.X)
    assert plan.t == 4 and np.array_equal(plan.X, X)
    assert np.array_equal(plan.ys, (np.asarray(state.y_obs) - plan.loc) / plan.scale)
    assert plan.nv == state.objective.noise_var / plan.scale**2
    assert plan.gamma_t == (info_gain(state.spec, X, plan.nv) if isinstance(case, Rkhs) else 0.0)
    assert plan.bp == beta_prime(case, plan.t, state.delta / 2.0, plan.gamma_t)
    assert plan.n_t == noise_bound(case, math.sqrt(plan.nv), state.horizon, state.delta / 2.0)


def test_a_running_standardization_refits(monkeypatch):
    state = make_state("gp_ucb", standardize="zscore")
    state.add_initial(seed_points())
    assert plan_events(state, 5, monkeypatch) == [["gp_fit"]] * 5


def test_a_hyperparameter_refit_refits(monkeypatch):
    # a refit step refactors exactly when its pick differs from the model's kernel and noise; one
    # that repeats them extends the model like any other step
    space = {"lengthscale": [0.05, 0.3], "outputscale": [1.0], "noise_var": [0.02, 0.5]}
    state = make_state("fc", seed=4, pimq_policy="manual", hyperfit_every=3, hyperfit_space=space)
    state.add_initial(seed_points())
    plans = []
    per_plan = plan_events(state, 12, monkeypatch, plans)  # the LOO search's candidates are recorded as rcgp_fit
    picks = [(plan.model.spec, plan.model.noise_var) for plan in plans]
    changed = [True] + [a != b for a, b in zip(picks, picks[1:])]
    refit_steps = [(t - 1) % 3 == 0 for t in range(1, 13)]
    assert all(r for r, c in zip(refit_steps, changed) if c)  # only a refit step changes the pick
    assert changed[3] and not changed[6] and changed[9]  # this run repeats one refit's pick
    assert ["gp_fit" in events for events in per_plan] == changed
    assert ["extend" in events for events in per_plan] == [not c for c in changed]


def test_a_jittered_factor_refits(monkeypatch):
    # the rule asks head first, which refuses a jittered factor, so no step borders
    factor = gp.jittered_cho_factor
    monkeypatch.setattr(gp, "jittered_cho_factor", lambda A, outputscale: (factor(A, outputscale)[0], 1e-10))
    state = make_state("gp_ucb")
    state.add_initial(seed_points())
    assert plan_events(state, 4, monkeypatch) == [["gp_fit"]] * 4


def test_a_pivot_below_the_threshold_refits(monkeypatch):
    monkeypatch.setattr(gp, "MIN_PIVOT_RATIO", 1.0)  # no pivot d^2 exceeds the whole diagonal entry
    state = make_state("fc", pimq_policy="manual")
    state.add_initial(seed_points())
    assert plan_events(state, 4, monkeypatch) == [["gp_fit"]] + [["extend", "gp_fit"]] * 3


@pytest.mark.parametrize("algorithm", ["gp_ucb", "fc", "a2"])
def test_shipped_corrupted_config_extends_after_the_first_step(algorithm, monkeypatch):
    # every model fits once per run and borders on every later step: gp_ucb,
    # fc and a2's anchor one new point, a2's wrench also the rows whose
    # corrections its moving center moved
    cfg = bench.load_config(Path(__file__).resolve().parents[1] / "configs" / "forrester_corrupted.json")
    cfg = dataclasses.replace(cfg, algorithms=(algorithm,), seeds=(0, 1))
    borders = []
    events = spy_fits(monkeypatch, borders)
    # per refit: its plateau center's ndim, or None for the plain GP, which has no plateau
    centers, refits = [], []
    data, fit = algorithms.rcgp_data, algorithms.gp_fit
    monkeypatch.setattr(algorithms, "rcgp_data", lambda X, y, spec, nv, params: (
        centers.append(None if params is None else np.ndim(params.center)) or data(X, y, spec, nv, params)))

    def refit(*args):
        refits.append(centers[-1] if centers else None)
        centers.clear()
        return fit(*args)

    monkeypatch.setattr(algorithms, "gp_fit", refit)
    results = bench.run_experiment(cfg)
    steps = cfg.n_iterations * len(cfg.seeds)
    assert sum(any(r["corrupted"] for r in rows) for rows in results.values()) == len(cfg.seeds)
    # one refit per model and seed: the plain GP, the zero-centered fit (a2's anchor), a2's wrench
    assert refits == {"gp_ucb": [None], "fc": [0], "a2": [0, 1]}[algorithm] * len(cfg.seeds)
    models = 2 if algorithm == "a2" else 1
    assert events.count("extend") == models * (steps - len(cfg.seeds))
    if algorithm == "a2":  # each plan borders the anchor, then the wrench
        assert all(t == 1 for t, _ in borders[::2])
        wrench = borders[1::2]
        assert sum(t <= r + 2 for t, r in wrench) >= 0.9 * len(wrench)
        assert sum(t > 1 for t, _ in wrench) >= 0.5 * len(wrench)  # most corrupted steps move a correction
    else:
        assert all(t == 1 for t, _ in borders)


@pytest.mark.parametrize("name", ["forrester_corrupted_small", "branin_small", "rkhs_adaptive", "hyperfit_limit",
                                  "hyperfit_schedule", "branin_hyperfit", "heuristic_eager"])
def test_refitting_on_every_step_gives_the_same_rows(name, monkeypatch):
    # the incremental path (head and extend) is a fast path: its slow twin refits with gp_fit on every step
    config = ci_variants.shipped(name) if name == "forrester_corrupted_small" else ci_variants.VARIANTS[name]()
    if name == "hyperfit_limit":  # its ±1e300 outliers overflow the plain GP's cell, as CI asserts
        config["algorithms"] = ["fc", "a2"]
    cfg = bench.ExperimentConfig.from_dict(dict(config, seeds=[0]))
    bordered, border = [], algorithms._bordered
    monkeypatch.setattr(algorithms, "_bordered", lambda *args: bordered.append(1) or border(*args))
    fast = bench.run_experiment(cfg)
    monkeypatch.setattr(algorithms, "_bordered", lambda *args: (None, None))
    assert bordered and len(fast) == len(cfg.algorithms)
    assert bench.run_experiment(cfg) == fast


def test_step_searches_through_the_algorithms_binding(monkeypatch):
    # perfbench's tracer wraps algorithms.maximize_acquisition; a step calling
    # search.maximize_acquisition directly would hide every search from it
    state = make_state("fc")
    state.add_initial(seed_points())
    calls, search_fn = [], algorithms.maximize_acquisition
    monkeypatch.setattr(algorithms, "maximize_acquisition",
                        lambda domain, acquisition: calls.append((domain, acquisition)) or search_fn(domain, acquisition))
    run_loop(state, 2)
    assert len(calls) == 2 and all(domain is state.domain for domain, _ in calls)
    # each search scans the acquisition of its own step's plan
    for t, (_, acquisition) in enumerate(calls, start=1):
        assert acquisition.__func__ is algorithms.Plan.ucb and acquisition.__self__.t == t


# -- hyperparameter fitting -------------------------------------------------


SPACE = {"lengthscale": [0.05, 0.2, 1.0], "outputscale": [1.0], "noise_var": [0.01]}


def no_plateau(spec, nv):
    """The plain GP's LOO plateau: none, for every candidate."""
    return None


def fixed_plateau(half_width):
    """A LOO plateau that gives every candidate the same zero-centred P-IMQ parameters."""
    return lambda spec, nv: PimqParams(ZERO_CENTER, half_width, 1.0)


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
        spec, _ = fit_hyperparameters_loo((X, y), no_plateau, SPACE)
        hits += spec.lengthscale[0] == 0.2
    assert hits >= 11


def test_loo_weighted_ignores_extreme_outlier():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X, y = _gp_sample(rng, 0.2)
        y = y.copy()
        y[0] += 1e3
        spec, _ = fit_hyperparameters_loo((X, y), fixed_plateau(3.0), SPACE)
        hits += spec.lengthscale[0] == 0.2
    assert hits >= 11


@pytest.mark.parametrize("value", [1e12, 1e300, math.inf, -math.inf, math.nan])
def test_loo_search_drops_saturated_outliers(value):
    # each candidate is rcgp_fit, which drops a negligible-weight point, so the
    # pick cannot tell a 1e6 outlier from a larger, infinite or NaN one
    X, y = _gp_sample(np.random.default_rng(3), 0.2)
    space = {**SPACE, "noise_var": [0.01, 0.05]}
    picks = [fit_hyperparameters_loo((X, np.concatenate(([v], y[1:]))), fixed_plateau(3.0), space)
             for v in (1e6, value)]
    assert picks[0] == picks[1]


def test_hyperfit_loop_refits_and_keeps_fc_equal_to_gp_ucb():
    space = {"lengthscale": [0.05, 0.3], "outputscale": [1.0], "noise_var": [0.02, 0.5]}
    queries, models = {}, {}
    for algorithm in ("gp_ucb", "fc"):
        state = make_state(algorithm, seed=4, hyperfit_every=3, hyperfit_space=space)
        state.add_initial(seed_points())
        run_loop(state, 6)
        queries[algorithm] = [r.x[0] for r in state.records]
        plan = state.plan()  # step 7 refits, since (7 - 1) % hyperfit_every == 0
        assert state.spec.lengthscale[0] in space["lengthscale"]
        assert plan.model.noise_var in space["noise_var"]
        # the model is bordered across refits that repeat a pick, so it matches a fresh fit up to round-off
        X, ys, _ = standardized_data(state, plan)
        assert_same_posterior(plan.model, gp_fit(X, ys, state.spec, plan.model.noise_var, grid=state.domain.grid),
                              state.domain.grid)
        models[algorithm] = plan.model
    # clean data sit inside the plateau, so the weighted refit picks the same kernel, and fc's model is
    # gp_ucb's, field for field
    assert queries["gp_ucb"] == queries["fc"]
    same_model(models["fc"], models["gp_ucb"])


def test_hyperfit_noise_variance_kept_between_refits():
    space = {"lengthscale": [0.05, 0.3], "outputscale": [1.0], "noise_var": [0.02, 0.5]}
    state = make_state("fc", seed=4, hyperfit_every=3, hyperfit_space=space)
    state.add_initial(seed_points())
    run_loop(state, 3)
    fitted = state.plan().model.noise_var  # step 4 refits
    assert fitted in space["noise_var"] and fitted != state.objective.noise_var / state.plan().scale**2
    step(state)
    nv = state.plan().model.noise_var  # step 5 does not refit
    assert nv == fitted  # kept in standardized units, as fitted


@pytest.mark.parametrize("policy", ["manual", "heuristic", "schedule"])
def test_hyperfit_weights_use_the_fc_plateau_width(policy, monkeypatch):
    # each candidate is weighted on the plateau fc would fit with that candidate's kernel and noise
    seen = []  # (candidate spec, candidate noise variance, its plateau's half-width)
    loo = algorithms.fit_hyperparameters_loo

    def spy(data, plateau, space):
        def recorded(spec, nv):
            params = plateau(spec, nv)
            seen.append((spec, nv, params.half_width))
            return params

        return loo(data, recorded, space)

    monkeypatch.setattr(algorithms, "fit_hyperparameters_loo", spy)
    space = {"lengthscale": [0.05, 0.2], "outputscale": [0.5, 2.0], "noise_var": [0.01, 0.3]}
    state = make_state("fc", hyperfit_every=1, hyperfit_space=space, pimq_policy=policy, pimq_half_width=0.7)
    state.add_initial(seed_points())
    _, ys, _ = standardized_data(state, state.plan())  # step 1 refits
    assert len(seen) == 8
    widths = [width for _, _, width in seen]
    if policy == "manual":
        assert widths == [0.7] * 8
    elif policy == "heuristic":
        assert widths == [float(np.quantile(np.abs(ys - np.median(ys)), 0.95, method="lower"))] * 8
    else:
        n_t = lambda nv: noise_bound(state.case, math.sqrt(nv), state.horizon, state.delta / 2.0)
        assert widths == [plateau_width(state.b_f, math.sqrt(spec.outputscale), n_t(nv)) for spec, nv, _ in seen]
        assert len(set(widths)) == 4


@pytest.mark.parametrize("algorithm", ["fc", "a2"])
def test_a_refit_does_not_depend_on_the_noise_before_it(algorithm):
    # under the schedule policy the plateau width reads the noise; each LOO
    # candidate reads its own, so two states that differ only in the previous
    # refit's noise variance pick the same kernel and noise
    space = {"lengthscale": [0.1, 0.3], "outputscale": [0.5, 1.0], "noise_var": [0.05, 0.5]}
    picks = []
    for before in (1e-4, 10.0):
        state = make_state(algorithm, standardize="none", b_f=1.0, hyperfit_every=1, hyperfit_space=space)
        for x, y in zip(np.linspace(0.05, 0.95, 10), [0.3, -0.5, 2.5, 0.2, -0.4, 0.8, -2.5, 0.1, 0.6, -0.2]):
            state._append(x, y)
        state.fitted_noise_var = before
        state.plan()  # step 1 refits
        picks.append((state.spec.lengthscale[0], state.spec.outputscale, state.fitted_noise_var))
    assert picks[0] == picks[1]


@pytest.mark.parametrize("algorithm", ["gp_ucb", "fc", "a2"])
def test_a_plan_asked_twice_is_equal_on_a_refit_step(algorithm):
    # a plan is a function of the settings and the data, so nothing caches it
    space = {"lengthscale": [0.1, 0.2], "outputscale": [0.5, 1.0], "noise_var": [0.05, 0.5]}
    state = make_state(algorithm, seed=2, policy=EagerBudget(40.0), budget_count=3, hyperfit_every=3,
                       hyperfit_space=space)
    state.add_initial(seed_points())
    run_loop(state, 3)
    first = state.plan()  # step 4 refits
    spec = state.spec
    second = state.plan()  # and refits again, to the same pick
    assert (state.spec.lengthscale, state.spec.outputscale) == (spec.lengthscale, spec.outputscale)
    assert (first.t, first.nv, first.beta, first.tc) == (second.t, second.nv, second.beta, second.tc)
    grid = state.domain.grid
    for got, want in zip(second.model.predict(grid), first.model.predict(grid)):
        np.testing.assert_array_equal(got, want)


def test_each_loo_candidate_is_weighted_at_its_own_noise(monkeypatch):
    # The step's noise variance (1.0: standardize "none") is in no candidate's grid.  The point at
    # 1.1 sits just past the plateau edge 1.0, so every candidate fit must give it jw >= 1, more
    # noise than an in-plateau point, with the corrections build_corrections gives at the
    # candidate's own noise variance.
    fits = []
    fit = algorithms.rcgp_fit

    def spy(X, y, spec, noise_var, params, grid=None):
        post = fit(X, y, spec, noise_var, params, grid)
        fits.append((X, y, noise_var, params, post))
        return post

    monkeypatch.setattr(algorithms, "rcgp_fit", spy)
    space = {"lengthscale": [0.1, 0.3], "outputscale": [1.0], "noise_var": [0.05, 0.2]}
    state = make_state("fc", standardize="none", hyperfit_every=1, hyperfit_space=space,
                       pimq_policy="manual", pimq_half_width=1.0)
    for x, y in zip(np.linspace(0.1, 0.9, 5), [0.3, -0.5, 1.1, 0.2, -0.4]):
        state._append(x, y)
    state.plan()  # step 1 refits
    assert len(fits) == 4 and {nv for _, _, nv, _, _ in fits} == set(space["noise_var"])
    for X, y, nv, params, post in fits:
        kept = rcgp_data(X, y, post.spec, nv, params)[3]
        want = build_corrections(params, nv, y)[kept]
        assert np.all(post.corrections.jw >= 1.0) and post.corrections.jw[2] > 1.0
        for name in ("weights", "jw", "mw"):
            np.testing.assert_array_equal(getattr(post.corrections, name), getattr(want, name))


def _brute_force_loo_score(X, y, spec, nv, params):
    """The LOO score by refitting without each point: sum_i wbar_i * ((y_i - m_w,i) - mu_{-i}(x_i))^2
    over the kept points, the kept points' corrections held fixed, as the search fits them."""
    if params is None:
        X, y, corr = X.reshape(-1, 1), y, None
    else:
        X, y, corr, _ = rcgp_data(X, y, spec, nv, params)
    score = 0.0
    for i in range(y.shape[0]):
        rest = np.arange(y.shape[0]) != i
        post = gp_fit(X[rest], y[rest], spec, nv, None if corr is None else corr[rest])
        mw, wbar = (0.0, 1.0) if corr is None else (corr.mw[i], corr.weights[i] / plateau_cap(nv))
        score += wbar * ((y[i] - mw) - post.predict_mean(X[i:i + 1])[0]) ** 2
    return score


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), robust=st.booleans())
@settings(max_examples=40, deadline=None)
def test_loo_picks_the_brute_force_argmin(seed, n, robust):
    # the rank-one identity's score, read from the factor, against n refits without one point each
    space = {"lengthscale": [0.1, 0.4], "noise_var": [0.05, 0.5]}
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=n)
    y = np.sin(6.0 * X) + 0.3 * rng.standard_normal(n)
    plateau = no_plateau
    if robust:  # one or two outliers the plateau downweights, and the search drops or keeps
        out = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        y[out] += rng.uniform(3.0, 8.0, size=out.shape[0]) * rng.choice([-1.0, 1.0], size=out.shape[0])
        # each candidate's own width, as under the schedule policy, which reads its noise
        plateau = lambda spec, nv: PimqParams(ZERO_CENTER, 1.2 + 2.0 * nv, 1.0)
    candidates = [(ls, nv) for ls in space["lengthscale"] for nv in space["noise_var"]]
    scores = []
    for ls, nv in candidates:
        spec = KernelSpec("rbf", ls, 1.0)
        scores.append(_brute_force_loo_score(X, y, spec, nv, plateau(spec, nv)))
    spec, nv = fit_hyperparameters_loo((X, y), plateau, space)
    picked = candidates.index((spec.lengthscale[0], nv))
    # the argmin, or a candidate within round-off of it
    assert scores[picked] <= min(scores) * (1.0 + 1e-8)


@pytest.mark.parametrize("value", [True, "0.15", None, math.nan, math.inf, -1.0, 0.0, [[0.1]], 0.15, [0.15]],
                         ids=["bool", "string", "none", "nan", "inf", "negative", "zero", "nested", "number", "list"])
def test_kernel_spec_is_the_one_checker_of_a_lengthscale(value):
    # a lengthscale is refused in a search space exactly when KernelSpec refuses it in the kernel
    def refuses(build):
        try:
            build()
        except ValueError:
            return True
        return False

    in_kernel = refuses(lambda: KernelSpec("rbf", value))
    assert in_kernel == refuses(lambda: algorithms._search_grids({"lengthscale": [value], "noise_var": [0.1]}, 1))
    assert in_kernel == (value not in (0.15, [0.15]))


def test_search_candidates_are_kernel_specs_in_grid_order():
    # lengthscale outermost, noise variance innermost: the LOO's strict < keeps the first of tied candidates
    space = {"family": "matern52", "lengthscale": [0.1, [0.2]], "outputscale": [0.5, 2], "noise_var": [0.05, 1]}
    candidates = algorithms._search_grids(space, 1)
    assert candidates == [(KernelSpec("matern52", ls, os_), nv) for ls in (0.1, 0.2) for os_ in (0.5, 2.0)
                          for nv in (0.05, 1)]
    assert algorithms._search_grids({"lengthscale": [0.1], "noise_var": [0.1]}, 1) == [(KernelSpec("rbf", 0.1), 0.1)]


def test_loo_validation():
    with pytest.raises(ValueError):
        fit_hyperparameters_loo(([0.1, 0.2], [1.0, 2.0]), no_plateau, SPACE)
    with pytest.raises(ValueError):
        fit_hyperparameters_loo(([0.1, 0.2, 0.3], [1.0, 2.0, 3.0]), no_plateau, {"lengthscale": []})
    for plateau in (no_plateau, fixed_plateau(3.0)):
        with pytest.raises(ValueError, match="equal length"):  # named, not "no viable candidate"
            fit_hyperparameters_loo(([0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0]), plateau, SPACE)
