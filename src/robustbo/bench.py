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
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .adversary import CorruptionBudget, EagerBudget, GreedyClairvoyant, NoCorruption
from .algorithms import A2_WIDTH_MODES, ALGORITHMS, PIMQ_POLICIES, TC_MODES, BoState, DomainSpec, run_loop
from .kernels import FactorizationError, KernelSpec
from .objectives import Objective, make_objective
from .schedules import CompactConvex, FiniteDomain, Rkhs

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "aggregate",
    "write_aggregate",
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

# metadata.json is strict JSON: a non-finite config float is echoed as a string float() reads back.
_NON_FINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


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
    """Validated experiment description (see README for the JSON schema)."""

    name: str
    objective: str
    noise_var: float
    algorithms: tuple
    kernel: dict
    schedule: dict
    pimq: dict
    adversary: dict
    standardize: str
    n_initial: int
    n_iterations: int
    seeds: tuple
    grid_size: int
    hyperfit: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        top = _section(
            raw,
            "config",
            {
                "name", "objective", "algorithms", "kernel", "schedule", "pimq",
                "adversary", "standardize", "n_initial", "n_iterations", "seeds",
                "grid_size", "hyperfit",
            },
            {"objective", "algorithms", "kernel", "schedule", "adversary",
             "n_initial", "n_iterations", "seeds"},
        )
        obj = _section(top["objective"], "objective", {"name", "noise_var"}, {"name", "noise_var"})
        kern = _section(top["kernel"], "kernel", {"family", "lengthscale", "outputscale"}, {"lengthscale"})
        sched = _section(
            top["schedule"], "schedule",
            {"case", "delta", "b_f", "tc_mode", "a2_width_mode", "compact_convex"},
            {"case", "delta", "b_f"},
        )
        if sched["case"] not in ("finite_domain", "compact_convex", "rkhs"):
            raise ConfigError(f"unknown schedule case {sched['case']!r}")
        for key, allowed in (("tc_mode", TC_MODES), ("a2_width_mode", A2_WIDTH_MODES)):
            if key in sched and sched[key] not in allowed:
                raise ConfigError(f"unknown schedule {key} {sched[key]!r}; expected one of {allowed}")
        if sched["case"] == "compact_convex":
            _section(sched.get("compact_convex", {}), "schedule.compact_convex", {"a", "b", "r"}, {"a", "b", "r"})
        pimq = _section(
            top.get("pimq", {}), "pimq", {"policy", "shape_c", "heuristic_quantile", "half_width"},
        )
        if pimq.get("policy", "schedule") not in PIMQ_POLICIES:
            raise ConfigError(f"unknown pimq policy {pimq['policy']!r}")
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
        hyper = _section(
            top.get("hyperfit", {}), "hyperfit", {"enabled", "every", "search_space"},
        )
        algorithms = tuple(top["algorithms"])
        for a in algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}; expected subset of {ALGORITHMS}")
        if not algorithms:
            raise ConfigError("algorithms must be nonempty")
        seeds = tuple(int(s) for s in top["seeds"])
        if not seeds:
            raise ConfigError("seeds must be nonempty")
        standardize = top.get("standardize", "robust")
        if standardize not in ("robust", "zscore", "none", "initial"):
            raise ConfigError(f"unknown standardize mode {standardize!r}")
        n_initial = int(top["n_initial"])
        n_iterations = int(top["n_iterations"])
        if n_initial < 0 or n_iterations < 1:
            raise ConfigError("n_initial must be >= 0 and n_iterations >= 1")
        return ExperimentConfig(
            name=str(top.get("name", "experiment")),
            objective=str(obj["name"]),
            noise_var=float(obj["noise_var"]),
            algorithms=algorithms,
            kernel=dict(kern),
            schedule=dict(sched),
            pimq=dict(pimq),
            adversary=dict(adv),
            standardize=standardize,
            n_initial=n_initial,
            n_iterations=n_iterations,
            seeds=seeds,
            grid_size=int(top.get("grid_size", 1001)),
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
        size = domain.grid.shape[0] if domain.grid is not None else cfg.grid_size
        return FiniteDomain(size)
    if sched["case"] == "compact_convex":
        cc = sched["compact_convex"]
        return CompactConvex(float(cc["a"]), float(cc["b"]), float(cc["r"]), domain.dim)
    return Rkhs(float(sched["b_f"]))


def _build_adversary(cfg: ExperimentConfig, x_star: np.ndarray):
    adv = cfg.adversary
    if adv["policy"] == "none":
        policy = NoCorruption()
        budget = CorruptionBudget("fixed_count", cfg.n_iterations, count=0)
        return policy, budget
    b = adv["budget"]
    if b["mode"] == "fixed_count":
        budget = CorruptionBudget("fixed_count", cfg.n_iterations, count=int(b["count"]))
    else:
        budget = CorruptionBudget("time_budget", cfg.n_iterations, alpha=float(b["alpha"]))
    if adv["policy"] == "greedy_clairvoyant":
        policy = GreedyClairvoyant(
            x_star,
            float(adv["near_thresh"]),
            float(adv["far_thresh"]),
            float(adv["low_value"]),
            float(adv["high_value"]),
        )
    else:
        policy = EagerBudget(float(adv["corruption_value"]))
    return policy, budget


def _build_state(cfg: ExperimentConfig, algorithm: str, seed: int,
                 objective: Objective, domain: DomainSpec, x_star: np.ndarray) -> BoState:
    kern = cfg.kernel
    spec = KernelSpec(kern.get("family", "rbf"), kern["lengthscale"], float(kern.get("outputscale", 1.0)))
    if spec.dim != objective.dim:
        raise ConfigError("kernel lengthscale dimension does not match the objective")
    policy, budget = _build_adversary(cfg, x_star)
    hyper = cfg.hyperfit
    return BoState(
        algorithm=algorithm,
        objective=objective,
        policy=policy,
        budget=budget,
        spec=spec,
        domain=domain,
        case=_build_case(cfg, domain),
        delta=float(cfg.schedule["delta"]),
        b_f=float(cfg.schedule["b_f"]),
        horizon=cfg.n_iterations,
        noise_rng=_rng(seed, STREAM_NOISE),
        tc_mode=cfg.schedule.get("tc_mode", "estimate"),
        a2_width_mode=cfg.schedule.get("a2_width_mode", "fixed"),
        standardize=cfg.standardize,
        pimq_policy=cfg.pimq.get("policy", "schedule"),
        pimq_c=float(cfg.pimq.get("shape_c", 1.0)),
        pimq_half_width=float(cfg.pimq.get("half_width", 1.96)),
        heuristic_quantile=float(cfg.pimq.get("heuristic_quantile", 0.95)),
        hyperfit=bool(hyper.get("enabled", False)),
        hyperfit_every=int(hyper.get("every", 5)),
        hyperfit_space=hyper.get("search_space"),
    )


def _initial_design(objective: Objective, n: int, seed: int) -> np.ndarray:
    if n == 0:
        return np.empty((0, objective.dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Sobol non-power-of-two draw
        sampler = qmc.Sobol(objective.dim, scramble=True, seed=_rng(seed, STREAM_INITIAL))
        unit = sampler.random(n)
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
            state = states[(algorithm, seed)]
            state.add_initial(X0)
            try:
                run_loop(state, cfg.n_iterations)
            except (FactorizationError, ValueError) as exc:
                # A failed Cholesky or a non-finite value in a solve; a TypeError stays loud.
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
    return {
        "name": cfg.name,
        "objective": {"name": cfg.objective, "noise_var": cfg.noise_var},
        "algorithms": list(cfg.algorithms),
        "kernel": cfg.kernel,
        "schedule": cfg.schedule,
        "pimq": cfg.pimq,
        "adversary": cfg.adversary,
        "standardize": cfg.standardize,
        "n_initial": cfg.n_initial,
        "n_iterations": cfg.n_iterations,
        "seeds": list(cfg.seeds),
        "grid_size": cfg.grid_size,
        "hyperfit": cfg.hyperfit,
    }


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
    write_trace(Path(path), rows)


def read_traces(directory) -> dict:
    """Load previously written traces back into the aggregate() input shape."""
    results = {}
    for path in sorted(Path(directory).glob("*_seed*.csv")):
        stem = path.stem
        algorithm, _, seed_part = stem.rpartition("_seed")
        with open(path, newline="") as fh:
            rows = []
            for row in csv.DictReader(fh):
                rows.append({k: (v if k in ("t", "corrupted", "tc_estimate", "n_seeds") else float(v))
                             for k, v in row.items()})
        results[(algorithm, int(seed_part))] = rows
    if not results:
        raise ConfigError(f"no trace files found in {directory}")
    return results
