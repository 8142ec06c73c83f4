"""The configs of CI's CLI variant runs, each built from a shipped config.

CI writes them with ``python tests/ci_variants.py results``, one
``<name>.json`` per variant; the tests read the same builders.
"""

import json
import math
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def float_limit() -> dict:
    """Outliers at the float limit; the plain GP's cell overflows."""
    c = shipped("forrester_corrupted_small")
    c["adversary"].update(low_value=-1.7e308, high_value=1.7e308)
    c.update(name="float_limit", standardize="robust")
    return c


def branin_small() -> dict:
    """2-D Branin: the d > 1 multi-start search, which has no grid."""
    c = shipped("forrester_corrupted_small")
    c["objective"]["name"] = "branin"
    c["kernel"].update(family="matern52", lengthscale=[3.0, 3.0])
    c["adversary"].update(near_thresh=1, far_thresh=5, low_value=-300, high_value=300)
    c.update(name="branin_small", n_iterations=5)
    return c


def hyperfit_limit() -> dict:
    """Hyperparameter refits on data with ±1e300 outliers."""
    c = shipped("forrester_corrupted_small")
    c["adversary"].update(low_value=-1e300, high_value=1e300)
    c.update(name="hyperfit_limit", hyperfit={"every": 3, "search_space": {"lengthscale": [0.1, 0.2],
                                                                          "noise_var": [0.1, 0.5]}})
    return c


def hyperfit_schedule() -> dict:
    """Hyperparameter refits under the schedule plateau, which reads each candidate's outputscale and noise."""
    c = shipped("forrester_corrupted_small")
    c["pimq"] = {"policy": "schedule", "shape_c": 1.0}
    c.update(name="hyperfit_schedule", hyperfit={"every": 3, "search_space": {
        "lengthscale": [0.1, 0.2], "noise_var": [0.05, 0.5], "outputscale": [0.5, 1.0]}})
    return c


def branin_hyperfit() -> dict:
    """branin_small with hyperparameter refits over per-dimension lengthscale candidates."""
    c = branin_small()
    c.update(name="branin_hyperfit", hyperfit={"every": 2, "search_space": {
        "family": "matern52", "lengthscale": [[2.0, 2.0], [3.0, 5.0]], "noise_var": [0.05, 0.5]}})
    return c


def rkhs_adaptive() -> dict:
    """sinusoid_long_rkhs's settings for 10 steps: the rkhs schedule and a2's adaptive wrench width."""
    c = shipped("forrester_clean")
    c["objective"] = {"name": "sinusoid", "noise_var": 0.01}
    c["kernel"]["lengthscale"] = 0.1
    c["schedule"].update(case="rkhs", b_f=2.0, tc_mode="estimate", a2_width_mode="adaptive")
    c["pimq"] = {"policy": "schedule", "shape_c": 1.0}
    c.update(name="rkhs_adaptive", n_iterations=10, grid_size=201)
    return c


def heuristic_eager() -> dict:
    """The heuristic plateau, the estimated tc and the eager adversary, whose outliers the fits downweight."""
    c = shipped("forrester_corrupted_small")
    c["pimq"] = {"policy": "heuristic", "shape_c": 1.0}
    c["schedule"]["tc_mode"] = "estimate"
    c["adversary"] = {"policy": "eager_budget", "corruption_value": 40.0,
                      "budget": {"mode": "fixed_count", "count": 6}}
    c.update(name="heuristic_eager")
    return c


def heuristic_nan() -> dict:
    """The heuristic plateau with NaN outliers: its width is taken over the finite targets; the plain GP's cell fails."""
    c = shipped("forrester_corrupted_small")
    c["pimq"] = {"policy": "heuristic", "shape_c": 1.0}
    c["adversary"] = {"policy": "eager_budget", "corruption_value": math.nan,
                      "budget": {"mode": "fixed_count", "count": 6}}
    c.update(name="heuristic_nan")
    return c


VARIANTS = {f.__name__: f for f in (float_limit, branin_small, hyperfit_limit, hyperfit_schedule, branin_hyperfit,
                                    rkhs_adaptive, heuristic_eager, heuristic_nan)}


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, build in VARIANTS.items():
        with open(out / f"{name}.json", "w") as fh:
            json.dump(build(), fh)
