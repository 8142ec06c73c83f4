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

from .adversary import CorruptionBudget, EagerBudget, GreedyClairvoyant, NoCorruption
from .algorithms import BoState, run_loop
from .kernels import FactorizationError, KernelSpec
from .objectives import Objective, make_objective
from .schedules import CompactConvex, FiniteDomain, Rkhs
from .search import DomainSpec, sobol_points

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

# The adversary keys each policy reads, all of them required.
_POLICY_KEYS = {
    "none": set(),
    "greedy_clairvoyant": {"near_thresh", "far_thresh", "low_value", "high_value", "budget"},
    "eager_budget": {"corruption_value", "budget"},
}

# {config section: {key: kind}} of every key a config may hold; "config" is the
# top level.  from_dict converts each value to its kind (float, int or str) once;
# a kind of None passes the value through as is.
_KEYS = {
    "config": {"name": str, "objective": None, "algorithms": None, "kernel": None, "schedule": None,
               "pimq": None, "adversary": None, "standardize": str, "n_initial": int, "n_iterations": int,
               "seeds": None, "grid_size": int, "hyperfit": None},
    "objective": {"name": None, "noise_var": float},
    "kernel": {"family": None, "lengthscale": None, "outputscale": float},
    "schedule": {"case": None, "delta": float, "b_f": float, "compact_convex": None,
                 "tc_mode": None, "a2_width_mode": None},
    "schedule.compact_convex": {"a": float, "b": float, "r": float},
    "pimq": {"policy": None, "shape_c": float, "half_width": float, "heuristic_quantile": float},
    "adversary": {"policy": str, "near_thresh": float, "far_thresh": float, "low_value": float,
                  "high_value": float, "corruption_value": float, "budget": None},
    "adversary.budget": {"mode": None, "count": int, "alpha": float},
    "hyperfit": {"every": int, "search_space": None},
}

# {(config section, key): BoState field} of the BoState options a config may
# set.  An option the config leaves out keeps BoState's default, and BoState
# checks the values.
_STATE_OPTIONS = {
    ("config", "standardize"): "standardize", ("schedule", "tc_mode"): "tc_mode",
    ("schedule", "a2_width_mode"): "a2_width_mode", ("pimq", "policy"): "pimq_policy",
    ("pimq", "shape_c"): "pimq_c", ("pimq", "half_width"): "pimq_half_width",
    ("pimq", "heuristic_quantile"): "heuristic_quantile", ("hyperfit", "every"): "hyperfit_every",
    ("hyperfit", "search_space"): "hyperfit_space",
}

# {pimq key: the one policy that reads it}.
_PIMQ_POLICY_KEYS = {"half_width": "manual", "heuristic_quantile": "heuristic"}

# metadata.json is strict JSON: a non-finite config float is echoed as a string float() reads back.
_NON_FINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


_KINDS = {float: "a number", int: "an integer", str: "a string"}


def _convert(kind, value, name: str):
    """kind(value) for the config key name, kind one of _KINDS.  An int or str
    key takes only its JSON type, so 7.9 is not cut to 7 and true is not 1, and
    a float key never a boolean; any value a key cannot take (null, a list, a
    word) is a ConfigError, not a TypeError."""
    try:
        if (kind is float and not isinstance(value, bool)) or type(value) is kind:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def _list(raw, kind, name: str) -> tuple:
    """The list-valued config key name as a tuple of kind."""
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list, got {raw!r}")
    return tuple(_convert(kind, v, name) for v in raw)


def _section(raw, name: str, required=()) -> dict:
    """The config section name, checked against _KEYS[name] and typed."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    kinds = _KEYS[name]
    unknown = set(raw) - kinds.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = set(required) - set(raw)
    if missing:
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")
    return {k: v if kinds[k] is None else _convert(kinds[k], v, f"{name}.{k}") for k, v in raw.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description of checked JSON shape and typed values (see
    README for the schema).  BoState checks the option values, and
    CorruptionBudget the budget; standardize is None when left out."""

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

    def __post_init__(self):
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:  # the default output directory
            raise ConfigError(f"name must be one directory name, without '/' or '\\', got {self.name!r}")
        # Checked here, not in from_dict, so that a dataclasses.replace (the CLI's --seeds) is checked too.
        for name in ("algorithms", "seeds"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be nonempty and without repeats, got {list(values)}")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        top = _section(raw, "config", {"objective", "algorithms", "kernel", "schedule", "adversary",
                                       "n_initial", "n_iterations", "seeds"})
        obj = _section(top["objective"], "objective", {"name", "noise_var"})
        kern = _section(top["kernel"], "kernel", {"lengthscale"})
        sched = _section(top["schedule"], "schedule", {"case", "delta", "b_f"})
        if sched["case"] not in ("finite_domain", "compact_convex", "rkhs"):
            raise ConfigError(f"unknown schedule case {sched['case']!r}")
        if sched["case"] == "compact_convex":
            sched["compact_convex"] = _section(sched.get("compact_convex", {}), "schedule.compact_convex",
                                               {"a", "b", "r"})
        elif "compact_convex" in sched:
            raise ConfigError(f"schedule.compact_convex is read only by the compact_convex case, not {sched['case']!r}")
        adv = _section(top["adversary"], "adversary", {"policy"})
        keys = _POLICY_KEYS.get(adv["policy"])
        if keys is None:
            raise ConfigError(f"unknown adversary policy {adv['policy']!r}")
        if set(adv) != {"policy"} | keys:
            raise ConfigError(f"the {adv['policy']!r} adversary takes policy and {sorted(keys)}, got {sorted(adv)}")
        if adv["policy"] != "none":
            adv["budget"] = _section(adv["budget"] or {}, "adversary.budget", {"mode"})
        hyperfit = _section(top.get("hyperfit", {}), "hyperfit")
        if "search_space" in hyperfit and hyperfit["search_space"] is None:  # BoState would read it as no refit
            raise ConfigError("hyperfit.search_space must be an object, got None")
        grid_size = top.get("grid_size", 1001)
        if top["n_initial"] < 0 or top["n_iterations"] < 1 or grid_size < 1:
            raise ConfigError("n_initial must be >= 0, n_iterations >= 1 and grid_size >= 1")
        return ExperimentConfig(
            name=top.get("name", "experiment"),
            objective=str(obj["name"]),
            noise_var=obj["noise_var"],
            algorithms=_list(top["algorithms"], str, "config.algorithms"),
            kernel=kern,
            schedule=sched,
            pimq=_section(top.get("pimq", {}), "pimq"),
            adversary=adv,
            standardize=top.get("standardize"),
            n_initial=top["n_initial"],
            n_iterations=top["n_iterations"],
            seeds=_list(top["seeds"], int, "config.seeds"),
            grid_size=grid_size,
            hyperfit=hyperfit,
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
        return CompactConvex(cc["a"], cc["b"], cc["r"], domain.dim)
    return Rkhs(sched["b_f"])


def _build_adversary(cfg: ExperimentConfig, x_star: np.ndarray):
    adv = cfg.adversary
    if adv["policy"] == "none":
        return NoCorruption(), CorruptionBudget("fixed_count", cfg.n_iterations, count=0)
    b = adv["budget"]
    budget = CorruptionBudget(b["mode"], cfg.n_iterations, b.get("count"), b.get("alpha"))
    if adv["policy"] == "greedy_clairvoyant":
        return GreedyClairvoyant(x_star, adv["near_thresh"], adv["far_thresh"], adv["low_value"],
                                 adv["high_value"]), budget
    return EagerBudget(adv["corruption_value"]), budget


def _build_state(cfg: ExperimentConfig, algorithm: str, seed: int,
                 objective: Objective, domain: DomainSpec, x_star: np.ndarray) -> BoState:
    spec = KernelSpec(**{"family": "rbf", **cfg.kernel})  # KernelSpec's outputscale when left out
    top = {} if cfg.standardize is None else {"standardize": cfg.standardize}
    options = {}
    for (section, key), name in _STATE_OPTIONS.items():
        given = top if section == "config" else getattr(cfg, section)
        if key in given:
            options[name] = given[key]
    policy, budget = _build_adversary(cfg, x_star)
    state = BoState(
        algorithm=algorithm,
        objective=objective,
        policy=policy,
        budget=budget,
        spec=spec,
        domain=domain,
        case=_build_case(cfg, domain),
        delta=cfg.schedule["delta"],
        b_f=cfg.schedule["b_f"],
        horizon=cfg.n_iterations,
        noise_rng=_rng(seed, STREAM_NOISE),
        **options,
    )
    for key, reader in _PIMQ_POLICY_KEYS.items():  # read off the state: BoState's default policy when left out
        if key in cfg.pimq and state.pimq_policy != reader:
            raise ConfigError(f"pimq.{key} is read only by the {reader!r} policy, not {state.pimq_policy!r}")
    return state


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
        # scrambled; an n_initial the Sobol draw cannot give is a config error too
        designs = {s: sobol_points(objective.bounds, cfg.n_initial, _rng(s, STREAM_INITIAL)) for s in cfg.seeds}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results, failures = {}, {}
    for seed in cfg.seeds:
        for algorithm in cfg.algorithms:
            state = states.pop((algorithm, seed))  # a finished cell's models and caches go with it
            state.add_initial(designs[seed])
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
    reported as 0.0 and flagged.  Traces of one algorithm and unequal
    lengths are a ConfigError.
    """
    by_algorithm = {}
    for (algorithm, _seed), rows in sorted(results.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        by_algorithm.setdefault(algorithm, []).append([r["cum_regret"] for r in rows])
    out = []
    for algorithm in sorted(by_algorithm):
        lengths = sorted({len(curve) for curve in by_algorithm[algorithm]})
        if len(lengths) > 1:
            raise ConfigError(f"traces of {algorithm} have different lengths {lengths}; aggregate runs of one config")
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
    """Load previously written traces back into the aggregate() input shape.

    A misnamed trace file, and one without rows, without a cum_regret column
    or with a cell that is not a number, is a ConfigError naming the file.
    """
    results = {}
    for path in sorted(Path(directory).glob("*_seed*.csv")):
        algorithm, _, seed_part = path.stem.rpartition("_seed")
        if not seed_part.isdecimal():
            raise ConfigError(f"trace file {path} is not named <algorithm>_seed<integer>.csv")
        with open(path, newline="") as fh:
            try:  # a short row's missing cells are None, a long row's extra ones a list: a TypeError
                rows = [{k: _parse(v) for k, v in row.items()} for row in csv.DictReader(fh)]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"trace file {path} has a cell that is not a number: {exc}") from exc
        if not rows or "cum_regret" not in rows[0]:
            raise ConfigError(f"trace file {path} has no rows or no cum_regret column")
        results[(algorithm, int(seed_part))] = rows
    if not results:
        raise ConfigError(f"no trace files found in {directory}")
    return results
