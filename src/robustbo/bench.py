"""Benchmark harness: experiment configs, deterministic runs, CSV traces,
and cross-seed aggregation.

Determinism contract: a config plus a seed list fully determines every byte
of the output.  Per seed, the initial design and the observation-noise
stream are derived from counter-based generators keyed on (seed, stream id),
so every algorithm in the same cell sees the identical initial design and
the identical noise sequence.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .adversary import CorruptionBudget, EagerBudget, GreedyClairvoyant, NoCorruption
from .algorithms import BoState, DomainSpec, run_loop, sobol_prefix
from .kernels import FactorizationError, KernelSpec
from .objectives import Objective, make_objective
from .schedules import CompactConvex, FiniteDomain, Rkhs

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "aggregate",
    "read_traces",
    "optimum_on_grid",
    "write_trace",
]

# Stream ids for per-seed generator derivation.
STREAM_INITIAL = 0
STREAM_NOISE = 1

# The adversary keys each policy and each budget mode read.
_POLICY_KEYS = {
    "none": set(),
    "greedy_clairvoyant": {"near_thresh", "far_thresh", "low_value", "high_value", "budget"},
    "eager_budget": {"corruption_value", "budget"},
}
_BUDGET_KEYS = {"fixed_count": {"count"}, "time_budget": {"alpha"}}

# {config section: {key: (BoState field, conversion)}} of the BoState options a
# config may set; "" is the top level.  An option the config leaves out keeps
# BoState's default, and BoState checks the values.
_STATE_OPTIONS = {
    "": {"standardize": ("standardize", None)},
    "schedule": {"tc_mode": ("tc_mode", None), "a2_width_mode": ("a2_width_mode", None)},
    "pimq": {"policy": ("pimq_policy", None), "shape_c": ("pimq_c", float),
             "half_width": ("pimq_half_width", float), "heuristic_quantile": ("heuristic_quantile", float)},
    "hyperfit": {"enabled": ("hyperfit", bool), "every": ("hyperfit_every", int),
                 "search_space": ("hyperfit_space", None)},
}

# metadata.json is strict JSON: a non-finite config float is echoed as a string float() reads back.
_NON_FINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


_KINDS = {float: "a number", int: "an integer", bool: "true or false"}


def _convert(convert, value, name: str):
    """convert(value) for the config key name, convert one of _KINDS.  An int
    or bool key takes only a value of that JSON type, so 7.9 is not cut to 7
    and "no" is not true; any value a key cannot take (null, a list, a word)
    is a ConfigError, not a TypeError."""
    try:
        if convert is float or type(value) is convert:
            return convert(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be {_KINDS[convert]}, got {value!r}")


def _section(raw: dict, name: str, allowed: set, required: set = frozenset()) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description of checked JSON shape (see README for the schema).
    BoState checks the option values; standardize is None when left out."""

    name: str
    objective: str
    noise_var: float
    algorithms: tuple
    kernel: dict
    schedule: dict
    pimq: dict
    adversary: dict
    standardize: Optional[str]
    n_initial: int
    n_iterations: int
    seeds: tuple
    grid_size: int
    hyperfit: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        top = _section(
            raw, "config", {f.name for f in dataclasses.fields(ExperimentConfig)} - {"noise_var"},  # under objective
            {"objective", "algorithms", "kernel", "schedule", "adversary", "n_initial", "n_iterations", "seeds"},
        )
        obj = _section(top["objective"], "objective", {"name", "noise_var"}, {"name", "noise_var"})
        kern = _section(top["kernel"], "kernel", {"family", "lengthscale", "outputscale"}, {"lengthscale"})
        sched = _section(
            top["schedule"], "schedule",
            {"case", "delta", "b_f", "compact_convex"} | _STATE_OPTIONS["schedule"].keys(),
            {"case", "delta", "b_f"},
        )
        if sched["case"] not in ("finite_domain", "compact_convex", "rkhs"):
            raise ConfigError(f"unknown schedule case {sched['case']!r}")
        if sched["case"] == "compact_convex":
            _section(sched.get("compact_convex", {}), "schedule.compact_convex", {"a", "b", "r"}, {"a", "b", "r"})
        pimq = _section(top.get("pimq", {}), "pimq", set(_STATE_OPTIONS["pimq"]))
        adv_keys = {"policy"}.union(*_POLICY_KEYS.values())
        adv = _section(top["adversary"], "adversary", adv_keys, {"policy"})
        if adv["policy"] not in _POLICY_KEYS:
            raise ConfigError(f"unknown adversary policy {adv['policy']!r}")
        _section(adv, "adversary", adv_keys, {"policy"} | _POLICY_KEYS[adv["policy"]])
        if adv["policy"] != "none":
            budget_keys = {"mode"}.union(*_BUDGET_KEYS.values())
            budget = _section(adv["budget"] or {}, "adversary.budget", budget_keys, {"mode"})
            if budget["mode"] not in _BUDGET_KEYS:
                raise ConfigError(f"unknown budget mode {budget['mode']!r}")
            _section(budget, "adversary.budget", budget_keys, {"mode"} | _BUDGET_KEYS[budget["mode"]])
        hyper = _section(top.get("hyperfit", {}), "hyperfit", set(_STATE_OPTIONS["hyperfit"]))
        algorithms = tuple(top["algorithms"])
        if not algorithms:
            raise ConfigError("algorithms must be nonempty")
        seeds = tuple(_convert(int, s, "seeds") for s in top["seeds"])
        if not seeds:
            raise ConfigError("seeds must be nonempty")
        n_initial = _convert(int, top["n_initial"], "n_initial")
        n_iterations = _convert(int, top["n_iterations"], "n_iterations")
        if n_initial < 0 or n_iterations < 1:
            raise ConfigError("n_initial must be >= 0 and n_iterations >= 1")
        return ExperimentConfig(
            name=str(top.get("name", "experiment")),
            objective=str(obj["name"]),
            noise_var=_convert(float, obj["noise_var"], "objective.noise_var"),
            algorithms=algorithms,
            kernel=dict(kern),
            schedule=dict(sched),
            pimq=dict(pimq),
            adversary=dict(adv),
            standardize=top.get("standardize"),
            n_initial=n_initial,
            n_iterations=n_iterations,
            seeds=seeds,
            grid_size=_convert(int, top.get("grid_size", 1001), "grid_size"),
            hyperfit=dict(hyper),
        )


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# -- run machinery ---------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def optimum_on_grid(objective: Objective, extra_grid: Optional[np.ndarray] = None,
                    resolution: int = 10001) -> tuple[np.ndarray, float]:
    """Brute-force (x*, f*) over a dense grid, unioned with extra_grid so the
    reference optimum is never worse than any acquisition candidate."""
    d = objective.dim
    if d == 1:
        pts = np.linspace(objective.bounds[0, 0], objective.bounds[0, 1], resolution).reshape(-1, 1)
    else:
        per_dim = max(2, int(round(resolution ** (1.0 / d))))
        axes = [np.linspace(lo, hi, per_dim) for lo, hi in objective.bounds]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if extra_grid is not None:
        pts = np.vstack([pts, np.atleast_2d(extra_grid)])
    vals = np.array([objective.evaluate(p) for p in pts])
    i = int(np.argmax(vals))
    return pts[i].copy(), float(vals[i])


def _build_case(cfg: ExperimentConfig, domain: DomainSpec):
    sched = cfg.schedule
    if sched["case"] == "finite_domain":
        return FiniteDomain(cfg.grid_size)  # |D|: the 1-D grid's size, an assumed discretisation above 1-D
    if sched["case"] == "compact_convex":
        cc = sched["compact_convex"]
        a, b, r = (_convert(float, cc[k], f"schedule.compact_convex.{k}") for k in ("a", "b", "r"))
        return CompactConvex(a, b, r, domain.dim)
    return Rkhs(_convert(float, sched["b_f"], "schedule.b_f"))


def _build_adversary(cfg: ExperimentConfig, x_star: np.ndarray):
    adv = cfg.adversary
    if adv["policy"] == "none":
        policy = NoCorruption()
        budget = CorruptionBudget("fixed_count", cfg.n_iterations, count=0)
        return policy, budget
    b = adv["budget"]
    if b["mode"] == "fixed_count":
        count = _convert(int, b["count"], "adversary.budget.count")
        budget = CorruptionBudget("fixed_count", cfg.n_iterations, count=count)
    else:
        alpha = _convert(float, b["alpha"], "adversary.budget.alpha")
        budget = CorruptionBudget("time_budget", cfg.n_iterations, alpha=alpha)
    if adv["policy"] == "greedy_clairvoyant":
        keys = ("near_thresh", "far_thresh", "low_value", "high_value")
        policy = GreedyClairvoyant(x_star, *(_convert(float, adv[k], f"adversary.{k}") for k in keys))
    else:
        policy = EagerBudget(_convert(float, adv["corruption_value"], "adversary.corruption_value"))
    return policy, budget


def _build_state(cfg: ExperimentConfig, algorithm: str, seed: int,
                 objective: Objective, domain: DomainSpec, x_star: np.ndarray) -> BoState:
    kern = cfg.kernel
    scale = {"outputscale": _convert(float, kern["outputscale"], "kernel.outputscale")} if "outputscale" in kern else {}
    spec = KernelSpec(kern.get("family", "rbf"), kern["lengthscale"], **scale)  # KernelSpec's outputscale otherwise
    if spec.dim != objective.dim:
        raise ConfigError("kernel lengthscale dimension does not match the objective")
    policy, budget = _build_adversary(cfg, x_star)
    return BoState(
        algorithm=algorithm,
        objective=objective,
        policy=policy,
        budget=budget,
        spec=spec,
        domain=domain,
        case=_build_case(cfg, domain),
        delta=_convert(float, cfg.schedule["delta"], "schedule.delta"),
        b_f=_convert(float, cfg.schedule["b_f"], "schedule.b_f"),
        horizon=cfg.n_iterations,
        noise_rng=_rng(seed, STREAM_NOISE),
        **_state_options(cfg),
    )


def _state_options(cfg: ExperimentConfig) -> dict:
    top = {} if cfg.standardize is None else {"standardize": cfg.standardize}
    options = {}
    for section, keys in _STATE_OPTIONS.items():
        given = getattr(cfg, section) if section else top
        for key, (name, convert) in keys.items():
            if key in given:
                options[name] = given[key] if convert is None else _convert(convert, given[key], f"{section}.{key}")
    return options


def _initial_design(objective: Objective, n: int, seed: int) -> np.ndarray:
    if n == 0:
        return np.empty((0, objective.dim))
    unit = sobol_prefix(qmc.Sobol(objective.dim, scramble=True, seed=_rng(seed, STREAM_INITIAL)), n)
    return qmc.scale(unit, objective.bounds[:, 0], objective.bounds[:, 1])


def _trace_rows(state: BoState, f_star: float) -> list[dict]:
    rows, cum = [], 0.0
    for rec in state.records:
        inst = f_star - state.objective.evaluate(rec.x)
        cum += inst
        row = {"t": rec.t}
        for j, v in enumerate(np.atleast_1d(rec.x)):
            row[f"x{j}"] = float(v)
        row.update(
            y_clean=rec.y_clean,
            y_observed=rec.y_observed,
            corrupted=int(rec.corrupted),
            inst_regret=inst,
            cum_regret=cum,
            beta_t=rec.beta_t,
            tc_estimate=rec.tc_estimate,
        )
        rows.append(row)
    return rows


def _format(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def _parse(cell: str):
    """_format's inverse: an int is written as its digits, a float's repr never is."""
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def write_trace(path: Path, rows: list[dict]) -> None:
    """Write one run trace as CSV with full-precision float formatting."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_format(v) for v in row.values()])


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run every (algorithm, seed) cell; return {(algorithm, seed): rows}.

    A numerical failure in one cell is recorded and skipped; it does not
    abort the rest of the experiment.  A bad config value raises ConfigError
    before any cell runs.  When out_dir is given, each cell is written to
    <algorithm>_seed<seed>.csv plus a metadata.json echo.
    """
    start_time = time.monotonic()
    try:
        objective = make_objective(cfg.objective, cfg.noise_var)
        domain = DomainSpec.from_bounds(objective.bounds, cfg.grid_size)
        x_star, f_star = optimum_on_grid(objective, domain.grid)
        states = {(a, s): _build_state(cfg, a, s, objective, domain, x_star) for s in cfg.seeds for a in cfg.algorithms}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results, failures = {}, {}
    for seed in cfg.seeds:
        X0 = _initial_design(objective, cfg.n_initial, seed)
        for algorithm in cfg.algorithms:
            state = states.pop((algorithm, seed))  # a finished cell's models and caches go with it
            state.add_initial(X0)
            try:
                run_loop(state, cfg.n_iterations)
            except (FactorizationError, ValueError, ArithmeticError) as exc:
                # A failed Cholesky, a non-finite target or a float overflow; a TypeError stays loud.
                failures[f"{algorithm}/seed{seed}"] = str(exc)
                continue
            rows = _trace_rows(state, f_star)
            results[(algorithm, seed)] = rows
            if out_dir is not None:
                write_trace(Path(out_dir) / f"{algorithm}_seed{seed}.csv", rows)
    if out_dir is not None:
        from . import __version__

        meta = {
            "name": cfg.name,
            "config": json.loads(json.dumps(_config_echo(cfg)), parse_constant=_NON_FINITE.get),
            "x_star": [float(v) for v in np.atleast_1d(x_star)],
            "f_star": f_star,
            "failures": failures,
            "library_version": __version__,
            "wall_time_s": round(time.monotonic() - start_time, 3),
        }
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        with open(Path(out_dir) / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    if failures and not results:
        raise FactorizationError(f"every cell failed: {failures}")
    return results


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The config in from_dict's input shape."""
    echo = dataclasses.asdict(cfg)
    echo["objective"] = {"name": cfg.objective, "noise_var": echo.pop("noise_var")}
    return echo


def aggregate(results: dict) -> list[dict]:
    """Per-algorithm, per-step mean and standard error of cumulative regret.

    results maps (algorithm, seed) to trace rows.  The standard error uses
    the sample standard deviation (ddof=1); with a single seed it is
    reported as 0.0 and flagged.
    """
    by_algorithm = {}
    for (algorithm, _seed), rows in sorted(results.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        by_algorithm.setdefault(algorithm, []).append([r["cum_regret"] for r in rows])
    out = []
    for algorithm in sorted(by_algorithm):
        curves = np.asarray(by_algorithm[algorithm])
        n = curves.shape[0]
        mean = curves.mean(axis=0)
        se = curves.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(curves.shape[1])
        for t in range(curves.shape[1]):
            out.append({
                "algorithm": algorithm,
                "t": t + 1,
                "mean_cum_regret": float(mean[t]),
                "stderr": float(se[t]),
                "n_seeds": n,
                "se_defined": int(n > 1),
            })
    return out


def write_aggregate(path: Path, rows: list[dict]) -> None:
    """write_trace under the name perfbench/episode.py calls, its one reader."""
    write_trace(Path(path), rows)


def read_traces(directory) -> dict:
    """Load previously written traces back into the aggregate() input shape."""
    results = {}
    for path in sorted(Path(directory).glob("*_seed*.csv")):
        algorithm, _, seed_part = path.stem.rpartition("_seed")
        with open(path, newline="") as fh:
            rows = [{k: _parse(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        results[(algorithm, int(seed_part))] = rows
    if not results:
        raise ConfigError(f"no trace files found in {directory}")
    return results
