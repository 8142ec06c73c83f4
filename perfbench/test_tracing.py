"""Tests for the benchmark's span bookkeeping and wrappers.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, instrumented, percentile, self_times  # noqa: E402


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_union_of_children():
    # Parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] is clipped
    # to the parent; the grandchild [2.5, 2.8] is its parent's business.
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.8]
    parents = [-1, 0, 0, 0, 2]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 0.3)
    assert own[1] == pytest.approx(2.0) and own[3] == pytest.approx(4.0) and own[4] == pytest.approx(0.3)


def test_tracer_links_parents_and_steps():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 9.0, 9.5]))
    outer = tracer.begin("a")
    tracer.step_id = 3
    inner = tracer.begin("b")
    tracer.end(inner)
    again = tracer.begin("b")
    tracer.end(again)
    tracer.end(outer)
    tracer.step_id = tracing.NO_STEP
    alone = tracer.begin("c")
    tracer.end(alone)
    assert tracer.parents == [-1, 0, 0, -1]
    assert tracer.steps == [tracing.NO_STEP, 3, 3, tracing.NO_STEP]
    table = tracer.layer_table()
    assert table["a"] == {"calls": 1, "self_s": pytest.approx(7.0 - 1.0 - 1.0), "total_s": pytest.approx(7.0)}
    assert table["b"] == {"calls": 2, "self_s": pytest.approx(2.0), "total_s": pytest.approx(2.0)}
    assert table["c"]["self_s"] == pytest.approx(0.5)
    assert tracer.open_spans == 0


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_percentile_matches_numpy(n):
    values = np.random.default_rng(n).exponential(size=n)
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(list(values), q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def _replaced_attributes():
    from robustbo import bench, kernels

    attrs = [(owner, attr) for owner, attr, _, _ in tracing.layer_targets()]
    return attrs + [(bench, "run_loop"), (kernels, "cho_factor")]


def test_wrappers_restored_when_a_cell_raises():
    from robustbo import bench
    from robustbo.adversary import CorruptionBudget, NoCorruption
    from robustbo.algorithms import BoState, DomainSpec
    from robustbo.kernels import KernelSpec
    from robustbo.objectives import forrester, make_objective
    from robustbo.schedules import FiniteDomain

    originals = {(owner, attr): getattr(owner, attr) for owner, attr in _replaced_attributes()}
    objective = make_objective("forrester", 1.0)
    evaluations = []

    def evaluate(x):
        if len(evaluations) == 6:
            raise RuntimeError("cell failed")
        evaluations.append(x)
        return forrester(float(x[0]))

    state = BoState(
        algorithm="fc",
        objective=dataclasses.replace(objective, evaluate=evaluate),
        policy=NoCorruption(),
        budget=CorruptionBudget("fixed_count", 10, count=0),
        spec=KernelSpec("rbf", 0.15, 1.0),
        domain=DomainSpec.from_bounds(objective.bounds, 101),
        case=FiniteDomain(101),
        delta=0.1,
        b_f=8.0,
        horizon=10,
        noise_rng=np.random.default_rng(0),
        standardize="initial",
    )
    tracer = Tracer()
    steps = tracing.StepLog()
    with pytest.raises(RuntimeError, match="cell failed"):
        with instrumented(steps, tracer):
            for owner, attr in originals:
                assert getattr(owner, attr) is not originals[(owner, attr)]
            state.add_initial(np.linspace(0.1, 0.9, 4).reshape(-1, 1))
            bench.run_loop(state, 10)
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert tracer.open_spans == 0
    assert len(steps.durations) == 2  # the third step raised inside observe
    table = tracer.layer_table()
    assert table["algorithms.step"]["calls"] == 3
    assert sorted(set(tracer.steps)) == [tracing.NO_STEP, 1, 2, 3]
    assert table["rcgp.predict"]["calls"] >= 2
    assert tracer.counts["kernels.jittered_cho_factor.attempts"] >= table["kernels.jittered_cho_factor"]["calls"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
