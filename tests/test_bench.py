import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from robustbo import bench
from robustbo.algorithms import BoState, run_loop
from robustbo.bench import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    load_config,
    optimum_on_grid,
    read_traces,
    run_experiment,
    write_trace,
)
from robustbo.cli import EXIT_CONFIG, EXIT_OK, main
from robustbo.objectives import make_objective

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(**over):
    base = {
        "objective": {"name": "forrester", "noise_var": 1.0},
        "algorithms": ["gp_ucb"],
        "kernel": {"family": "rbf", "lengthscale": 0.15, "outputscale": 1.0},
        "schedule": {"case": "finite_domain", "delta": 0.1, "b_f": 8.0},
        "adversary": {"policy": "none"},
        "standardize": "initial",
        "n_initial": 3,
        "n_iterations": 5,
        "seeds": [0],
        "grid_size": 101,
    }
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return base


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(small_config(optimizer="adam"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(small_config(schedule={"warp": 1.0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(small_config(adversary={"policy": "none", "spice": 2}))


def test_invalid_values_rejected():
    for bad in (
        small_config(algorithms=[]),
        small_config(algorithms="gp_ucb"),  # not split into letters for BoState to reject
        small_config(seeds=[]),
        small_config(schedule={"case": "infinite"}),
        small_config(adversary={"policy": "chaotic"}),
        small_config(n_iterations=0),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)


def test_missing_required_key_rejected():
    raw = small_config()
    del raw["kernel"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_from_dict_types_every_value():
    cfg = ExperimentConfig.from_dict(small_config(kernel={"outputscale": 2}))
    assert cfg.kernel["outputscale"] == 2.0 and type(cfg.kernel["outputscale"]) is float
    with pytest.raises(ConfigError):  # on load, before any run is built
        ExperimentConfig.from_dict(small_config(adversary={"policy": "eager_budget", "corruption_value": None,
                                                           "budget": {"mode": "fixed_count", "count": 2}}))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    cfg = load_config(path)
    assert cfg.objective == "forrester" and cfg.seeds == (0,)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_optimum_on_grid_forrester():
    obj = make_objective("forrester", 1.0)
    x_star, f_star = optimum_on_grid(obj)
    assert x_star[0] == pytest.approx(0.7572, abs=2e-4)
    assert f_star == pytest.approx(6.0207, abs=1e-3)


def test_optimum_includes_extra_grid():
    obj = make_objective("forrester", 1.0)
    _, f_coarse = optimum_on_grid(obj, resolution=11)
    extra = np.array([[0.7572]])
    _, f_with = optimum_on_grid(obj, extra_grid=extra, resolution=11)
    assert f_with >= f_coarse
    assert f_with == pytest.approx(6.0207, abs=1e-3)


def test_basic_run_shape_and_monotone_regret(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config())
    results = run_experiment(cfg, tmp_path)
    rows = results[("gp_ucb", 0)]
    assert len(rows) == 5
    cum = [r["cum_regret"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(cum, cum[1:]))
    assert all(r["inst_regret"] >= 0.0 for r in rows)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["config"]["objective"]["name"] == "forrester"
    assert meta["f_star"] == pytest.approx(6.0207, abs=1e-3)


def test_initial_design_and_noise_shared_across_algorithms():
    cfg = ExperimentConfig.from_dict(small_config(algorithms=["gp_ucb", "fc", "a2"]))
    results = run_experiment(cfg)
    # with identical streams the first query already reflects identical
    # initial designs; compare the raw clean observations at equal steps
    # wherever two algorithms queried the same point
    rows = {a: results[(a, 0)] for a in ("gp_ucb", "fc", "a2")}
    for a, b in (("gp_ucb", "fc"), ("gp_ucb", "a2")):
        for ra, rb in zip(rows[a], rows[b]):
            if ra["x0"] == rb["x0"]:
                assert ra["y_clean"] == rb["y_clean"]


def test_read_traces_returns_what_run_experiment_returned(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config(
        algorithms=["gp_ucb", "fc"], seeds=[0, 1],
        adversary={"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "fixed_count", "count": 2}},
    ))
    results = run_experiment(cfg, tmp_path)
    reloaded = read_traces(tmp_path)
    assert reloaded == results
    assert all(type(v) is type(results[key][0][k]) for key, rows in reloaded.items() for k, v in rows[0].items())


@pytest.mark.parametrize("name", ["forrester_corrupted", "forrester_clean", "forrester_corrupted_small"])
def test_metadata_echo_reads_back_as_the_config(name, tmp_path, monkeypatch):
    # one step per cell is enough to write metadata.json; the echo is of the whole config
    monkeypatch.setattr(bench, "run_loop", lambda state, n: run_loop(state, 1))
    path = CONFIG_DIR / f"{name}.json"
    run_experiment(load_config(path), tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert ExperimentConfig.from_dict(meta["config"]) == load_config(path)


def test_trace_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config(seeds=[0, 1]))
    results = run_experiment(cfg, tmp_path)
    reloaded = read_traces(tmp_path)
    direct = aggregate(results)
    again = aggregate(reloaded)
    assert len(direct) == len(again)
    for a, b in zip(direct, again):
        assert a["algorithm"] == b["algorithm"]
        assert a["mean_cum_regret"] == pytest.approx(b["mean_cum_regret"], abs=1e-12)


def test_aggregating_runs_of_different_lengths_exits_config_error(tmp_path, capsys):
    # a 3-step and a 4-step run of one algorithm written to the same directory
    for seed, steps in ((0, 3), (1, 4)):
        run_experiment(ExperimentConfig.from_dict(small_config(seeds=[seed], n_iterations=steps)), tmp_path)
    assert main(["aggregate", "--in", str(tmp_path)]) == EXIT_CONFIG
    assert "gp_ucb" in capsys.readouterr().err
    assert not (tmp_path / "aggregate.csv").exists()


def test_a_trace_file_without_an_integer_seed_exits_config_error(tmp_path, capsys):
    run_experiment(ExperimentConfig.from_dict(small_config(n_iterations=2)), tmp_path)
    (tmp_path / "gp_ucb_seed0 (copy).csv").write_bytes((tmp_path / "gp_ucb_seed0.csv").read_bytes())
    assert main(["aggregate", "--in", str(tmp_path)]) == EXIT_CONFIG
    assert "gp_ucb_seed0 (copy).csv" in capsys.readouterr().err


def _bad_traces(good: str) -> dict:
    """Each kind of trace file read_traces refuses, as text, made from a good trace's text."""
    header, first, *rest = good.splitlines(keepends=True)
    cells = first.split(",")
    return {
        "header-only": header,
        "zero-bytes": "",
        "non-numeric": header + ",".join([cells[0], "abc", *cells[2:]]) + "".join(rest),
        "no-cum-regret": header.replace("cum_regret", "cumulative") + first + "".join(rest),
    }


@pytest.mark.parametrize("kind", ["header-only", "zero-bytes", "non-numeric", "no-cum-regret"])
def test_a_trace_file_aggregate_cannot_read_exits_config_error(kind, tmp_path, capsys):
    # next to a good gp_ucb trace: a header-only fc trace must not leave aggregate.csv silently without fc
    run_experiment(ExperimentConfig.from_dict(small_config(n_iterations=2)), tmp_path)
    (tmp_path / "fc_seed0.csv").write_text(_bad_traces((tmp_path / "gp_ucb_seed0.csv").read_text())[kind])
    assert main(["aggregate", "--in", str(tmp_path)]) == EXIT_CONFIG
    assert "fc_seed0.csv" in capsys.readouterr().err
    assert not (tmp_path / "aggregate.csv").exists()


def test_aggregate_single_seed_flags_se():
    cfg = ExperimentConfig.from_dict(small_config())
    rows = aggregate(run_experiment(cfg))
    assert all(r["stderr"] == 0.0 and r["se_defined"] == 0 for r in rows)


def test_aggregate_hand_computed():
    def trace(vals):
        return [{"cum_regret": v} for v in vals]

    results = {("x", 0): trace([1.0, 2.0]), ("x", 1): trace([3.0, 4.0]), ("x", 2): trace([5.0, 6.0])}
    rows = aggregate(results)
    assert rows[0]["mean_cum_regret"] == 3.0
    assert rows[0]["stderr"] == pytest.approx(2.0 / np.sqrt(3.0))
    assert rows[1]["mean_cum_regret"] == 4.0
    assert rows[0]["n_seeds"] == 3 and rows[0]["se_defined"] == 1


def test_identical_traces_zero_se():
    rows = aggregate({("x", 0): [{"cum_regret": 2.0}], ("x", 1): [{"cum_regret": 2.0}]})
    assert rows[0]["stderr"] == 0.0 and rows[0]["se_defined"] == 1


def test_write_trace_full_precision(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [{"t": 1, "v": 0.1 + 0.2}])
    assert "0.30000000000000004" in path.read_text()


def test_eager_budget_config():
    cfg = ExperimentConfig.from_dict(small_config(
        adversary={"policy": "eager_budget", "corruption_value": -50.0,
                   "budget": {"mode": "fixed_count", "count": 2}},
    ))
    rows = run_experiment(cfg)[("gp_ucb", 0)]
    assert [r["corrupted"] for r in rows] == [1, 1, 0, 0, 0]
    assert rows[0]["y_observed"] == -50.0


def _eager_queries(value, **over):
    """fc and a2 query sequences on the small shipped config (fields replaced
    by `over`) under an eager adversary that writes `value`; fails on any warning."""
    cfg = load_config(CONFIG_DIR / "forrester_corrupted_small.json")
    adv = {"policy": "eager_budget", "corruption_value": value, "budget": cfg.adversary["budget"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_experiment(dataclasses.replace(cfg, adversary=adv, algorithms=("fc", "a2"), **over))
    assert all(any(np.array_equal(r["y_observed"], value, equal_nan=True) for r in rows) for rows in results.values())
    return {key: [r["x0"] for r in rows] for key, rows in results.items()}


# A small hyperparameter search every 3 steps; each candidate is the step's own robust fit.
# The shipped config sets no hyperfit section, which is the {} the tests pass to turn it off.
HYPERFIT = {"every": 3, "search_space": {"lengthscale": [0.1, 0.2], "noise_var": [0.1, 0.5]}}


@pytest.fixture(scope="module")
def eager_reference_queries():
    return {on: _eager_queries(1e6, hyperfit=HYPERFIT if on else {}) for on in (False, True)}


@pytest.mark.parametrize("value", [1e12, 1e300, math.inf, -math.inf, math.nan])
def test_saturation_holds_to_the_infinite_limit(value, eager_reference_queries):
    # Every such outlier is dropped, so the robust loops cannot tell 1e6 from inf
    # or NaN, with a fixed kernel or one the leave-one-out search refits.
    assert eager_reference_queries[True] != eager_reference_queries[False]
    assert _eager_queries(value) == eager_reference_queries[False]
    assert _eager_queries(value, hyperfit=HYPERFIT) == eager_reference_queries[True]


@pytest.fixture(scope="module")
def nan_reference_queries():
    return {mode: _eager_queries(math.nan, standardize=mode) for mode in ("robust", "zscore")}


@pytest.mark.parametrize("mode", ["robust", "zscore"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_non_finite_outliers_are_one_limit_under_running_standardization(value, mode, nan_reference_queries):
    # loc and scale read only the finite observations and the robust fits drop
    # the non-finite ones, so ±inf and NaN give one query sequence; a
    # non-finite loc would instead leave every run on the prior's first grid point.
    reference = nan_reference_queries[mode]
    assert all(len(set(queries)) > 1 for queries in reference.values())
    assert _eager_queries(value, standardize=mode) == reference


@pytest.fixture(scope="module")
def robust_reference_queries():
    return {on: _eager_queries(1e6, standardize="robust", hyperfit=HYPERFIT if on else {}) for on in (False, True)}


@given(value=st.floats(1e6, 1e308, exclude_min=True), hyperfit=st.booleans())  # 1e6 is the reference
@example(value=1e308, hyperfit=False)
@example(value=1e308, hyperfit=True)
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_finite_outlier_magnitude_is_invisible_under_robust_standardization(value, hyperfit, robust_reference_queries):
    # median and MAD are rank statistics, so a running robust standardization
    # does not see how large the outliers are, and the fits, the hyperparameter
    # search's included, drop all of them
    reference = robust_reference_queries[hyperfit]
    assert all(len(set(queries)) > 1 for queries in reference.values())
    assert _eager_queries(value, standardize="robust", hyperfit=HYPERFIT if hyperfit else {}) == reference


def test_zscore_robust_loops_run_with_outliers_at_the_float_limit():
    # zscore's statistics of ±1.7e308 outliers do not overflow; the noise
    # vanishes against their scale, and a standardized gap beyond the float
    # range is ±inf, which the robust fits drop like any infinite outlier
    cfg = load_config(CONFIG_DIR / "forrester_corrupted_small.json")
    adv = dict(cfg.adversary, low_value=-1.7e308, high_value=1.7e308)
    variant = dataclasses.replace(cfg, adversary=adv, standardize="zscore", seeds=(0, 3), algorithms=("fc", "a2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_experiment(variant)
    assert sorted(results) == [("a2", 0), ("a2", 3), ("fc", 0), ("fc", 3)]
    # seed 0 sees +1.7e308 only (a scale whose square overflows), seed 3 both signs (gaps beyond the range)
    for (_, seed), rows in results.items():
        huge = {r["y_observed"] for r in rows if abs(r["y_observed"]) > 1e300}
        assert huge == ({1.7e308} if seed == 0 else {-1.7e308, 1.7e308})


def test_overflow_in_a_step_is_a_cell_failure(tmp_path):
    # the plain GP's mean overflows on finite outliers near the float limit; the
    # robust fits drop them, so only the gp_ucb cell fails, and no warning escapes
    cfg = load_config(CONFIG_DIR / "forrester_corrupted_small.json")
    adv = dict(cfg.adversary, low_value=-1.7e308, high_value=1.7e308)
    variant = dataclasses.replace(cfg, adversary=adv, standardize="robust", seeds=(0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_experiment(variant, tmp_path)
    assert sorted(results) == [("a2", 0), ("fc", 0)]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["failures"] == {"gp_ucb/seed0": "invalid value encountered in matmul"}


def test_hyperfit_runs_when_the_scale_squared_overflows(tmp_path, monkeypatch):
    # no seed points and eager outliers of 1e300: the running robust scale is
    # of order 1e300, so its square overflows; the objective's noise reads as
    # the 1e-12 floor, and each refit's noise, kept in standardized units, is
    # the one later steps fit with once the scale is finite again; fc and a2
    # run and only the plain GP fails
    fitted = {}  # (algorithm, t): the standardized noise variance plan t fits with
    plan = BoState.plan

    def spy(state):
        p = plan(state)
        fitted[state.algorithm, p.t] = p.nv
        return p

    monkeypatch.setattr(BoState, "plan", spy)
    raw = small_config(
        objective={"name": "sinusoid", "noise_var": 0.01},
        algorithms=["gp_ucb", "fc", "a2"],
        kernel={"lengthscale": 0.1},
        schedule={"case": "rkhs", "b_f": 2.0},
        adversary={"policy": "eager_budget", "corruption_value": 1e300, "budget": {"mode": "fixed_count", "count": 2}},
        standardize="robust", n_initial=0, n_iterations=10,
        hyperfit={"every": 3, "search_space": {"lengthscale": [0.05, 0.2], "noise_var": [0.01, 0.1]}},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    assert sorted(results) == [("a2", 0), ("fc", 0)]
    assert all([r["y_observed"] for r in rows[:2]] == [1e300, 1e300] for rows in results.values())
    assert list(json.loads((tmp_path / "metadata.json").read_text())["failures"]) == ["gp_ucb/seed0"]
    for algorithm in ("fc", "a2"):  # the refits run at t = 4, 7 and 10
        nv = [fitted[algorithm, t] for t in range(4, 11)]
        assert set(nv) <= {0.01, 0.1} and nv == [nv[0]] * 3 + [nv[3]] * 3 + [nv[6]]
    # the t = 4 refit weights each candidate on its own plateau, 2 + sqrt(candidate noise) wide
    assert fitted["fc", 6] == 0.1


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_failing_cell_is_recorded_not_fatal(tmp_path):
    raw = small_config(
        algorithms=["gp_ucb", "fc", "a2"],
        adversary={"policy": "eager_budget", "corruption_value": math.inf,
                   "budget": {"mode": "fixed_count", "count": 2}},
    )
    results = run_experiment(ExperimentConfig.from_dict(raw))
    assert sorted(results) == [("a2", 0), ("fc", 0)]

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert list(meta["failures"]) == ["gp_ucb/seed0"]
    assert float(meta["config"]["adversary"]["corruption_value"]) == math.inf
    assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == ["a2_seed0.csv", "fc_seed0.csv"]


@pytest.mark.parametrize(
    "over",
    [
        {"kernel": {"family": "laplace"}},
        {"objective": {"name": "hartmann", "noise_var": 1.0}},
        {"objective": {"name": "forrester", "noise_var": -1.0}},
        {"schedule": {"delta": 2.0}},
        {"adversary": {"policy": "eager_budget", "budget": {"mode": "fixed_count", "count": 2}}},
        {"adversary": {"policy": "greedy_clairvoyant", "near_thresh": 0.1, "low_value": -10.0, "high_value": 25.0,
                       "budget": {"mode": "fixed_count", "count": 2}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0}},
        # budgets CorruptionBudget checks when the run is built
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "fixed_count"}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "time_budget"}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "forever"}}},
        # values BoState checks when the run is built
        {"algorithms": ["simulated_annealing"]},
        {"standardize": "mad"},
        {"schedule": {"tc_mode": "forcezero"}},
        {"schedule": {"tc_mode": "sometimes"}},
        {"schedule": {"a2_width_mode": "adaptve"}},
        {"pimq": {"policy": "manul"}},
        {"schedule": {"a2_width_mode": "adaptive"}, "pimq": {"policy": "manual"}},
        # a number that is not one: a ConfigError, not a TypeError
        {"pimq": {"shape_c": None}},
        {"n_initial": None},
        {"kernel": {"outputscale": None}},
        {"hyperfit": {"every": None}},
        {"schedule": {"delta": None}},
        {"seeds": [None]},
        {"adversary": {"policy": "eager_budget", "corruption_value": None, "budget": {"mode": "fixed_count", "count": 2}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "fixed_count", "count": [2]}}},
        # option values BoState checks when the run is built, not at the first fit or refit
        {"pimq": {"shape_c": 0}},
        {"pimq": {"policy": "manual", "half_width": -1}},
        {"pimq": {"policy": "heuristic", "heuristic_quantile": 1.5}},
        {"hyperfit": {"every": 0, "search_space": {"lengthscale": [0.1], "noise_var": [0.1]}}},
        {"hyperfit": {"search_space": {"lengthscale": [0.1]}}},
        # a grid of no points, not an empty acquisition domain in every cell
        {"grid_size": 0, "schedule": {"case": "rkhs"}},
        # an integer key takes only a JSON integer
        {"n_iterations": 7.9},
        {"seeds": [True, 2.5]},
        {"seeds": [2.5]},
        {"n_initial": True},
        {"grid_size": 101.0},
        {"hyperfit": {"every": 2.5}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "fixed_count", "count": 2.5}}},
        # no switch: the search space alone turns hyperfit on
        {"hyperfit": {"enabled": True, "search_space": {"lengthscale": [0.1], "noise_var": [0.1]}}},
        # a list key takes only a list of its kind, without repeats, and a name key only a string
        {"seeds": 5},
        {"algorithms": "gp_ucb"},
        {"adversary": {"policy": ["none"]}},
        {"seeds": [0, 0]},
        {"algorithms": ["fc", "fc"]},
        # a search space no candidate can fit with, checked when the run is built, not in a cell's first refit
        {"hyperfit": {"search_space": {"lengthscale": [0.1], "noise_var": ["x"]}}},
        {"hyperfit": {"search_space": {"lengthscale": [0.1], "noise_var": [-0.5]}}},
        {"hyperfit": {"search_space": {"family": "laplace", "lengthscale": [0.1], "noise_var": [0.1]}}},
        {"hyperfit": {"every": 3, "search_space": {"lengthscale": [[0.1, 0.2]], "noise_var": [0.1]}}},
        # a kernel of another dimension than the objective, which BoState checks
        {"kernel": {"lengthscale": [0.15, 0.15]}},
        # a NaN fails every range check, and a negative or infinite b_f is rejected when the run is built
        {"schedule": {"b_f": math.nan}},
        {"schedule": {"b_f": -1.0}},
        {"schedule": {"b_f": math.inf}},
        {"schedule": {"case": "rkhs", "b_f": math.nan}},
        {"pimq": {"policy": "manual", "half_width": math.nan}},
        {"schedule": {"case": "compact_convex", "compact_convex": {"a": math.nan, "b": 1.0, "r": 1.0}}},
        {"schedule": {"case": "compact_convex", "compact_convex": {"a": 1.0, "b": math.nan, "r": 1.0}}},
        {"objective": {"name": "forrester", "noise_var": math.nan}},
        {"objective": {"name": "forrester", "noise_var": math.inf}},
        {"schedule": {"case": "compact_convex", "compact_convex": {"a": 1.0, "b": 1.0, "r": math.inf}}},
        # an infinite kernel value, in the kernel or in a search grid, and an infinite search noise
        {"kernel": {"outputscale": math.inf}},
        {"kernel": {"lengthscale": math.inf}},
        {"hyperfit": {"search_space": {"lengthscale": [0.1], "noise_var": [math.inf]}}},
        {"hyperfit": {"search_space": {"lengthscale": [0.1], "outputscale": [math.inf], "noise_var": [0.1]}}},
        # more initial points than the Sobol draw gives (2**30): refused before any draw
        {"n_initial": 2**31},
        # a key the chosen adversary policy or schedule case never reads
        {"adversary": {"policy": "greedy_clairvoyant", "near_thresh": 0.1, "far_thresh": 0.4, "low_value": -10.0,
                       "high_value": 25.0, "corruption_value": 40.0, "budget": {"mode": "fixed_count", "count": 2}}},
        {"adversary": {"policy": "none", "budget": {"mode": "bogus"}}},
        {"schedule": {"compact_convex": {"a": "x", "zzz": 1}}},
        # a pimq key the chosen policy never reads, the default schedule policy included
        {"pimq": {"half_width": 1.0}},
        {"pimq": {"policy": "heuristic", "half_width": 1.0}},
        {"pimq": {"heuristic_quantile": 0.9}},
        {"pimq": {"policy": "manual", "half_width": 1.0, "heuristic_quantile": 0.9}},
        # a budget key the chosen mode never reads: time_budget's count is ceil(T**alpha)
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0,
                       "budget": {"mode": "time_budget", "alpha": 0.5, "count": 2}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0,
                       "budget": {"mode": "fixed_count", "count": 2, "alpha": 0.5}}},
        # a P-IMQ setting that makes C1, and so beta, infinite, or whose shape squares to 0
        {"pimq": {"shape_c": math.inf}},
        {"pimq": {"policy": "manual", "half_width": math.inf}},
        {"pimq": {"shape_c": 1e-300}},
        # a name that is not one new directory under the output root
        {"name": ["a", "b"]},
        {"name": 7},
        {"name": ""},
        {"name": "."},
        {"name": ".."},
        {"name": "a/b"},
        {"name": "a\\b"},
        # a null standardize, not BoState's default
        {"standardize": None},
        # a float key takes no boolean: true and false are not 1.0 and 0.0
        {"objective": {"name": "forrester", "noise_var": True}},
        {"adversary": {"policy": "greedy_clairvoyant", "near_thresh": 0.1, "far_thresh": 0.4, "low_value": False,
                       "high_value": 25.0, "budget": {"mode": "fixed_count", "count": 2}}},
        # KernelSpec checks a kernel value wherever it appears: a lengthscale takes only numbers
        {"kernel": {"lengthscale": True}},
        {"kernel": {"lengthscale": "0.15"}},
        # a search space takes only its four keys, and a nonempty noise_var list
        {"hyperfit": {"search_space": {"lengthscale": [0.1], "outputscal": [2.0], "noise_var": [0.1]}}},
        {"hyperfit": {"search_space": {"lengthscale": [0.1], "noise_var": []}}},
        # a null search space, which BoState would read as no refit
        {"hyperfit": {"every": 2, "search_space": None}},
    ],
    ids=["kernel-family", "objective", "noise-var", "delta", "eager-no-value", "greedy-no-far-thresh",
         "no-budget", "fixed-count-no-count", "time-budget-no-alpha", "budget-mode",
         "algorithm", "standardize", "tc-mode-forcezero", "tc-mode-sometimes", "a2-width-mode", "pimq-policy",
         "adaptive-width-manual-policy",
         "null-shape-c", "null-n-initial", "null-outputscale", "null-hyperfit-every", "null-delta", "null-seed",
         "null-corruption-value", "list-count",
         "zero-shape-c", "negative-half-width", "quantile-above-one", "hyperfit-every-zero",
         "search-space-no-noise-var", "zero-grid-size",
         "fractional-n-iterations", "bool-and-fractional-seeds", "fractional-seed", "bool-n-initial",
         "float-grid-size", "fractional-hyperfit-every", "fractional-count", "enabled",
         "integer-seeds", "string-algorithms", "list-policy", "repeated-seeds", "repeated-algorithms",
         "word-in-search-grid", "negative-search-grid", "search-space-family", "search-space-dimension",
         "kernel-dimension", "nan-b-f", "negative-b-f", "infinite-b-f", "nan-rkhs-b-f", "nan-half-width",
         "nan-compact-convex-a", "nan-compact-convex-b", "nan-noise-var", "infinite-noise-var",
         "infinite-compact-convex-r", "infinite-outputscale", "infinite-lengthscale", "infinite-search-noise-var",
         "infinite-search-outputscale", "n-initial-beyond-sobol", "greedy-corruption-value", "none-budget",
         "finite-domain-compact-convex", "schedule-half-width", "heuristic-half-width", "schedule-quantile",
         "manual-quantile", "time-budget-count", "fixed-count-alpha", "infinite-shape-c", "infinite-half-width",
         "underflowing-shape-c", "list-name", "integer-name", "empty-name", "dot-name", "dot-dot-name",
         "slash-name", "backslash-name", "null-standardize", "bool-noise-var", "bool-low-value", "bool-lengthscale",
         "string-lengthscale", "search-space-unknown-key", "empty-search-noise-var", "null-search-space"],
)
def test_bad_config_value_exits_config_error(over, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(**{"algorithms": ["gp_ucb", "fc", "a2"], **over})))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()  # raised before any cell ran: no trace, no metadata


def test_a_search_space_error_names_its_section():
    # KernelSpec refuses the same value in the kernel section and in a search space; the message says which
    def message(**over):
        with pytest.raises(ConfigError) as info:
            run_experiment(ExperimentConfig.from_dict(small_config(algorithms=["gp_ucb", "fc", "a2"], **over)))
        return str(info.value)

    kernel = message(kernel={"lengthscale": True})
    assert kernel == "lengthscale must be positive and finite numbers, got True"
    space = {"lengthscale": [True], "noise_var": [0.1]}
    assert message(hyperfit={"every": 2, "search_space": space}) == f"hyperfit.search_space: {kernel}"
    assert message(hyperfit={"every": 2, "search_space": None}) == "hyperfit.search_space must be an object, got None"


def test_repeated_cli_seeds_exit_config_error(tmp_path):
    # --seeds replaces the config's seeds after from_dict, so the check must cover that path too
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--seeds", "3,3", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_a_hyperfit_config_refits_only_when_enabled():
    # the good counterpart of the hyperfit cases above: no search space is off, one refits and moves the queries
    space = {"lengthscale": [0.05, 0.3], "noise_var": [0.02, 0.5]}

    def queries(**over):
        results = run_experiment(ExperimentConfig.from_dict(small_config(algorithms=["gp_ucb", "fc"], **over)))
        return {cell: [row["x0"] for row in rows] for cell, rows in results.items()}

    plain = queries()
    assert queries(hyperfit={"every": 2}) == plain
    refit = queries(hyperfit={"every": 2, "search_space": space})
    assert sorted(refit) == sorted(plain) and refit != plain
