import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        small_config(algorithms=["simulated_annealing"]),
        small_config(algorithms=[]),
        small_config(seeds=[]),
        small_config(standardize="mad"),
        small_config(schedule={"case": "infinite"}),
        small_config(adversary={"policy": "chaotic"}),
        small_config(n_iterations=0),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("schedule", "tc_mode", "forcezero"),
        ("schedule", "tc_mode", "sometimes"),
        ("schedule", "a2_width_mode", "adaptve"),
        ("pimq", "policy", "manul"),
    ],
)
def test_unknown_mode_rejected(section, key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(small_config(**{section: {key: value}}))


def test_missing_required_key_rejected():
    raw = small_config()
    del raw["kernel"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


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


@pytest.fixture(scope="module")
def eager_reference_queries():
    return _eager_queries(1e6)


@pytest.mark.parametrize("value", [1e300, math.inf, -math.inf, math.nan])
def test_saturation_holds_to_the_infinite_limit(value, eager_reference_queries):
    # Every such outlier is dropped, so the robust loops cannot tell 1e6 from inf or NaN.
    assert _eager_queries(value) == eager_reference_queries


@pytest.fixture(scope="module")
def nan_reference_queries():
    return {mode: _eager_queries(math.nan, standardize=mode) for mode in ("robust", "zscore")}


@given(value=st.sampled_from([math.inf, -math.inf, math.nan]), mode=st.sampled_from(["robust", "zscore"]))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_non_finite_outliers_are_one_limit_under_running_standardization(value, mode, nan_reference_queries):
    # loc and scale read only the finite observations and the robust fits drop
    # the non-finite ones, so ±inf and NaN give one query sequence; a
    # non-finite loc would instead leave every run on the prior's first grid point.
    reference = nan_reference_queries[mode]
    assert all(len(set(queries)) > 1 for queries in reference.values())
    assert _eager_queries(value, standardize=mode) == reference


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
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "fixed_count"}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "time_budget"}}},
        {"adversary": {"policy": "eager_budget", "corruption_value": -50.0, "budget": {"mode": "forever"}}},
    ],
    ids=["kernel-family", "objective", "noise-var", "delta", "eager-no-value", "greedy-no-far-thresh",
         "no-budget", "fixed-count-no-count", "time-budget-no-alpha", "budget-mode"],
)
def test_bad_config_value_exits_config_error(over, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(algorithms=["gp_ucb", "fc", "a2"], **over)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()  # raised before any cell ran: no trace, no metadata
