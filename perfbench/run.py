"""robustbo benchmark: time the BO loop end to end and check its outputs.

Run from the root of a robustbo checkout:

    python3 perfbench/run.py --workload forrester_corrupted --seed 1 --seconds 20 --trace 0

Each workload is an experiment config generated from --seed.  The config
runs as a series of identical episodes, each in a fresh interpreter (see
episode.py), until --seconds have passed; the end-to-end metrics are medians
over episodes, and percentiles over the BO steps of an episode.  With --trace 1,
untraced and traced episodes alternate and the per-layer split comes from
the traced ones.  Every episode's outputs are checked; the last line of
standard output is one JSON object with the verdict and the metrics.
Exit codes: 0 checked and correct, 1 a check failed, 2 cannot run here.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import median, percentile

HERE = Path(__file__).resolve().parent
ALGORITHMS = ("gp_ucb", "fc", "a2")
# The whole run, every episode included, ends within this many seconds.
HARD_LIMIT_S = 170.0
# OpenBLAS's second thread busy-waits between calls; on a shared 2-CPU
# machine it made sinusoid_long_rkhs episodes vary by +-20% against +-3%
# single-threaded, at about the same median time.
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict
    # Seeds whose final regret is reported: fixed, so the regret metrics
    # repeat exactly on every --seed and catch any change to the queries.
    reference_seeds: tuple
    # Further BO seeds drawn from --seed, so timings cover fresh inputs.
    n_seeded: int
    checks_ordering: bool = False  # fc and a2 must beat gp_ucb on regret

    @property
    def corrupted(self) -> bool:
        return self.config["adversary"]["policy"] != "none"


WORKLOADS = {
    # The shipped configs/forrester_corrupted.json, seeds aside.
    "forrester_corrupted": Workload(
        why="shipped 1-D config: predict-bound, 1001-point grid rebuilt each step; exercises grid caching and triangular solves",
        config={
            "name": "forrester_corrupted",
            "objective": {"name": "forrester", "noise_var": 1.0},
            "algorithms": list(ALGORITHMS),
            "kernel": {"family": "rbf", "lengthscale": 0.15, "outputscale": 1.0},
            "schedule": {"case": "finite_domain", "delta": 0.1, "b_f": 8.0, "tc_mode": "force_zero"},
            "pimq": {"policy": "manual", "shape_c": 1.0, "half_width": 1.96},
            "adversary": {
                "policy": "greedy_clairvoyant",
                "near_thresh": 0.1,
                "far_thresh": 0.4,
                "low_value": -10.0,
                "high_value": 25.0,
                "budget": {"mode": "time_budget", "alpha": 1.0 / 3.0},
            },
            "standardize": "initial",
            "n_initial": 5,
            "n_iterations": 100,
            "grid_size": 1001,
        },
        reference_seeds=(0, 1, 2),
        n_seeded=1,
        checks_ordering=True,
    ),
    # No grid in 2-D, so the multi-start coordinate search runs: hundreds of
    # small predicts per step.  The adversary's values are scaled to
    # Branin's range; Forrester's -10/+25 never engage the robust path here.
    "branin2d_corrupted": Workload(
        why="2-D Branin, no grid: per-call overhead of ~300 small predicts per step; bypasses grid caching, exercises vectorised d>1 search",
        config={
            "name": "branin2d_corrupted",
            "objective": {"name": "branin", "noise_var": 1.0},
            "algorithms": list(ALGORITHMS),
            "kernel": {"family": "matern52", "lengthscale": [3.0, 3.0], "outputscale": 1.0},
            "schedule": {"case": "finite_domain", "delta": 0.1, "b_f": 8.0, "tc_mode": "force_zero"},
            "pimq": {"policy": "manual", "shape_c": 1.0, "half_width": 1.96},
            "adversary": {
                "policy": "greedy_clairvoyant",
                "near_thresh": 1.0,
                "far_thresh": 5.0,
                "low_value": -300.0,
                "high_value": 300.0,
                "budget": {"mode": "time_budget", "alpha": 1.0 / 3.0},
            },
            "standardize": "initial",
            "n_initial": 5,
            # 17 steps x 3 algorithms x 2 seeds: 102 steps per episode, so
            # at least ten lie beyond each episode's p90.
            "n_iterations": 17,
        },
        reference_seeds=(0,),
        n_seeded=1,
    ),
    # Long horizon on a small grid: every step refits on n up to 125 points,
    # and the rkhs schedule refactors the full Gram matrix for info_gain; the
    # adaptive a2 width predicts at all n training points.  At 200 steps the
    # BLAS-bound late steps made ten-run spreads exceed 0.25 on a noisy host.
    "sinusoid_long_rkhs": Workload(
        why="1-D sinusoid, long horizon, rkhs schedule: fit- and factorisation-bound; exercises rank-1 updates and incremental info_gain",
        config={
            "name": "sinusoid_long_rkhs",
            "objective": {"name": "sinusoid", "noise_var": 0.01},
            "algorithms": list(ALGORITHMS),
            "kernel": {"family": "rbf", "lengthscale": 0.1, "outputscale": 1.0},
            "schedule": {"case": "rkhs", "delta": 0.1, "b_f": 2.0, "tc_mode": "estimate",
                         "a2_width_mode": "adaptive"},
            "pimq": {"policy": "schedule", "shape_c": 1.0},
            "adversary": {"policy": "none"},
            "standardize": "initial",
            "n_initial": 5,
            "n_iterations": 120,
            "grid_size": 201,
        },
        reference_seeds=(0,),
        n_seeded=2,
    ),
}

END_TO_END = [
    # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
] + [(f"final_regret.{a}", "regret", "lower", 0.05) for a in ALGORITHMS]

# (layer, metrics) reported by the traced run.  "calls", "self_s" and
# "total_s" (self plus children: the fit side against the predict side) come
# from the layer's spans; every other metric is a counter of work done.
LAYERS = [
    ("kernels.solve_cho", ("calls", "self_s", "flops_computed")),
    ("kernels.cross_matrix", ("calls", "self_s", "elements")),
    ("gp.predict", ("calls", "self_s", "points")),
    ("rcgp.predict", ("calls", "self_s", "points")),
    ("algorithms.maximize_acquisition", ("calls", "self_s", "total_s")),
    ("kernels.jittered_cho_factor", ("calls", "self_s", "attempts")),
    ("kernels.gram_matrix", ("calls", "self_s")),
    ("kernels.info_gain", ("calls", "self_s", "total_s")),
    ("gp.gp_fit", ("calls", "self_s", "total_s")),
    ("rcgp.rcgp_fit", ("calls", "self_s", "total_s", "points_dropped", "points_downweighted")),
    ("weights.build_corrections", ("calls", "self_s")),
    ("adversary.corrupt", ("calls", "corrupted")),
    ("objectives.observe", ("calls", "self_s")),
    ("algorithms.step", ("self_s",)),
    ("bench.optimum_on_grid", ("self_s",)),
    ("bench.write_trace", ("calls", "self_s", "bytes")),
    ("bench.read_traces", ("self_s",)),
    ("bench.aggregate", ("self_s",)),
]
UNITS = {"self_s": "s", "total_s": "s", "flops_computed": "flop", "bytes": "B"}
PER_LAYER = [(f"{layer}.{c}", UNITS.get(c, "count"), "lower") for layer, cs in LAYERS for c in cs] + [
    ("trace.overhead_s", "s", "lower"),
]


def make_config(workload: Workload, seed: int) -> dict:
    """The experiment config for one --seed: reference seeds plus seeded ones."""
    cfg = copy.deepcopy(workload.config)
    seeded = random.Random(seed).sample(range(1000, 1_000_000), workload.n_seeded)
    cfg["seeds"] = list(workload.reference_seeds) + seeded
    return cfg


def run_episode(root: Path, config_path: Path, ep_dir: Path, trace: bool, deadline: float) -> dict:
    ep_dir.mkdir(parents=True)
    result_path = ep_dir / "result.json"
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "episode.py"), str(root), str(config_path),
           str(ep_dir / "out"), str(result_path), repr(spawn), "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, env={**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawn))
    if proc.returncode != 0:
        raise RuntimeError(f"episode failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    result["traced"] = trace
    return result


def check(workload: Workload, cfg: dict, episodes: list) -> list[str]:
    """Every reason the outputs are wrong; empty when they are correct."""
    problems = []
    first = episodes[0]
    for k, ep in enumerate(episodes):
        if ep["nonfinite"]:
            problems.append(f"episode {k}: {ep['nonfinite']} non-finite trace values")
        if ep["out_of_domain"]:
            problems.append(f"episode {k}: {ep['out_of_domain']} queries outside the domain")
        if len(ep["step_s"]) != len(first["step_s"]):
            problems.append(f"episode {k} ran {len(ep['step_s'])} steps, episode 0 {len(first['step_s'])}")
        if ep["digests"] != first["digests"]:
            kind = "traced" if ep["traced"] else "untraced"
            problems.append(f"episode {k} ({kind}): traces differ from episode 0's")
    regret = reference_regret(workload, first)
    if regret is None:
        problems.append("a reference cell produced no trace")
        return problems
    if workload.checks_ordering:
        for a in ("fc", "a2"):
            if not regret[a] < regret["gp_ucb"]:
                problems.append(f"mean final regret of {a} ({regret[a]:.6g}) is not below gp_ucb's "
                                f"({regret['gp_ucb']:.6g})")
    if workload.corrupted:
        q = first["queries"]
        if all(q.get(f"fc/{s}") == q.get(f"gp_ucb/{s}") for s in cfg["seeds"]):
            problems.append("fc's queries equal gp_ucb's on every seed: the robust path never engaged")
    counts = [ep["counts"] for ep in episodes if ep["traced"]]
    if any(c != counts[0] for c in counts):
        problems.append("traced episodes disagree on the per-layer counts")
    return problems


def reference_regret(workload: Workload, episode: dict):
    regret = {}
    for a in ALGORITHMS:
        values = [episode["final_regret"].get(f"{a}/{s}") for s in workload.reference_seeds]
        if None in values:
            return None
        regret[a] = sum(values) / len(values)
    return regret


def end_to_end_metrics(workload: Workload, episodes: list) -> dict:
    """Medians over the run's identical episodes.

    Step k of every episode is the same computation, so each step's latency
    is its median duration over the episodes: a burst of load on the machine
    during one episode then moves no step, and p50 and p90 are taken over
    the steps of one episode.
    """
    step_s = [median(durations) for durations in zip(*(ep["step_s"] for ep in episodes))]
    values = {
        "setup_s": median([ep["setup_s"] for ep in episodes]),
        "wall_s": median([ep["wall_s"] for ep in episodes]),
        "steps_per_s": len(step_s) / sum(step_s),
        "step_ms_p50": 1e3 * percentile(step_s, 50),
        "step_ms_p90": 1e3 * percentile(step_s, 90),
        "peak_rss_mb": median([ep["peak_rss_mb"] for ep in episodes]),
    }
    for a, v in reference_regret(workload, episodes[0]).items():
        values[f"final_regret.{a}"] = v
    return values


def per_layer_metrics(untraced: list, traced: list) -> dict:
    values = {}
    for layer, counters in LAYERS:
        for c in counters:
            if c == "calls":
                v = traced[0]["layers"].get(layer, {}).get("calls", 0)
            elif c in ("self_s", "total_s"):
                v = median([ep["layers"].get(layer, {}).get(c, 0.0) for ep in traced])
            else:
                v = traced[0]["counts"].get(f"{layer}.{c}", 0)
            values[f"{layer}.{c}"] = v
    values["trace.overhead_s"] = median([ep["wall_s"] for ep in traced]) - median([ep["wall_s"] for ep in untraced])
    return values


def git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "robustbo" / "__init__.py").is_file():
        print(f"error: run from the root of a robustbo checkout; no src/robustbo under {root}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = make_config(workload, args.seed)
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2) + "\n")

    # trace 0: untraced episodes; trace 1: (untraced, traced) pairs.
    group = (False, True) if args.trace else (False,)
    min_groups = 1 if args.trace else 3
    deadline = start + HARD_LIMIT_S
    episodes, group_times = [], []
    try:
        while True:
            g0 = time.monotonic()
            for traced in group:
                episodes.append(run_episode(root, config_path, work / f"ep{len(episodes)}", traced, deadline))
            group_times.append(time.monotonic() - g0)
            elapsed = time.monotonic() - start
            if len(group_times) >= min_groups and elapsed + median(group_times) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = check(workload, cfg, episodes)
    untraced = [ep for ep in episodes if not ep["traced"]]
    traced = [ep for ep in episodes if ep["traced"]]
    n_steps = len(episodes[0]["step_s"])
    values, units = {}, {}
    if not problems and args.trace:
        values = per_layer_metrics(untraced, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    elif not problems:
        values = end_to_end_metrics(workload, untraced)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "bo_seeds": cfg["seeds"],
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "steps_per_episode": n_steps,
        "env": {**episodes[0]["env"], "git_commit": git_commit(root)},
    }
    result = {
        "correct": not problems,
        "attempted": sum(ep["cells"] for ep in episodes),
        "failed": sum(len(ep["failures"]) for ep in episodes),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    (work / "result.json").write_text(json.dumps({**summary, **result}, indent=2) + "\n")

    print("# " + json.dumps(summary, sort_keys=True))
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    for name, v in values.items():
        note = ""
        if name.startswith("step_ms_"):
            note = f"  (over {n_steps} steps, each the median of {len(untraced)} episodes)"
        print(f"{name:48s} {v:.6g} {units[name]}{note}")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
