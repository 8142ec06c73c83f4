import ast
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import ci_variants
from conftest import make_state
from oracles import full_block_search
from robustbo import algorithms, bench, gp, search
from robustbo.adversary import EagerBudget
from robustbo.algorithms import run_loop, step
from robustbo.kernels import KernelSpec
from robustbo.objectives import Objective, make_objective
from robustbo.schedules import FiniteDomain
from robustbo.search import DomainSpec, maximize_acquisition


def test_the_search_maximizes_any_acquisition_over_a_domain():
    line = DomainSpec.from_bounds([[0.0, 1.0]], 101)
    assert np.array_equal(maximize_acquisition(line, lambda X: -(X[:, 0] - 0.37) ** 2), line.grid[37])
    # a separable maximum on the coordinate lines: the first sweep reaches it, in 2*d + 1 calls
    # every start is at the maximum after it, so the last block and call cover one start
    box, calls = DomainSpec.from_bounds([[-1.0, 1.0], [0.0, 2.0]]), []

    def separable(X):
        return -((X[:, 0] - 0.25) ** 2 + (X[:, 1] - 1.5) ** 2)

    assert np.array_equal(maximize_acquisition(box, lambda X: calls.append(X.shape[0]) or separable(X)), [0.25, 1.5])
    x, after = _reference_search(box, separable)
    assert np.array_equal(x, [0.25, 1.5])
    assert calls == _distinct_start_rows(box, after) == [2112, 2112, 33, 33, 1]


def test_the_search_module_imports_nothing_from_the_library():
    tree = ast.parse(Path(search.__file__).read_text())
    assert not [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def _reference_ucb(state):
    """The upper confidence bound of the state's next plan, from its model's predict."""
    plan = state.plan()

    def ucb(X):
        mean, var = plan.model.predict(X)
        return mean + math.sqrt(plan.beta) * np.sqrt(var)

    return ucb


def _reference_search(domain, acquisition):
    """The per-start coordinate search the batched one replaced: each Sobol
    start refined on its own, the first start kept on equal final values.
    Returns that point and, for each of the 2*d coordinate blocks, every
    start's point after it."""
    d, k = domain.dim, domain.coord_grid
    x = qmc.scale(qmc.Sobol(d, scramble=False).random(domain.n_starts), domain.bounds[:, 0], domain.bounds[:, 1])
    after = []
    for _ in range(2):
        for j in range(d):
            for i in range(domain.n_starts):
                cand = np.tile(x[i], (k, 1))
                cand[:, j] = np.linspace(domain.bounds[j, 0], domain.bounds[j, 1], k)
                x[i] = cand[int(np.argmax(acquisition(cand)))]
            after.append(x.copy())
    best_x, best_v = None, -np.inf
    for xi in x:
        v = float(acquisition(np.atleast_2d(xi))[0])
        if v > best_v:
            best_x, best_v = xi, v
    return best_x, after


def _distinct_start_rows(domain, after):
    """The row counts of the batched search's 2*d + 1 acquisition calls, from
    the reference's points: coord_grid rows per distinct start in each block,
    the first block's starts being the n_starts Sobol points, and one row per
    distinct start in the last call."""
    distinct = [domain.n_starts] + [len(np.unique(x, axis=0)) for x in after]
    return [domain.coord_grid * m for m in distinct[:-1]] + [distinct[-1]]


@pytest.mark.parametrize("d", [1, 2, 3, 6, 9])
def test_sobol_points_are_scipys_draw_without_the_warning(d):
    # the scrambled initial design and the unscrambled search starts both draw through it
    unit = np.tile([0.0, 1.0], (d, 1))
    bounds = np.column_stack([-np.arange(1.0, d + 1), np.linspace(0.5, 7.0, d)])
    for n in (0, 1, 2, 3, 5, 7, 8, 33, 64, 100):
        for seed in (None, 0, 1, 2):
            rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(3)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # random(n) warns unless n is a power of two
                want = qmc.Sobol(d, scramble=seed is not None, seed=rngs[0]).random(n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = search.sobol_points(unit, n, rngs[1])
                scaled = search.sobol_points(bounds, n, rngs[2])
            assert got.shape == (n, d) and np.array_equal(got, want)
            if n:
                assert np.array_equal(scaled, qmc.scale(want, bounds[:, 0], bounds[:, 1]))


def test_sobol_points_check_the_dimension_and_count():
    with pytest.raises(ValueError, match="21201"):
        search.sobol_points(np.tile([0.0, 1.0], (21202, 1)), 4)
    with pytest.raises(ValueError, match="2\\*\\*30"):  # not 2**30 + 1: with a broken check that allocates 8 GB
        search.sobol_points(np.tile([0.0, 1.0], (2, 1)), -1)
    directions = search._sobol_directions(3)
    assert directions is search._sobol_directions(3) and not directions.flags.writeable


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # in a fresh interpreter: this one imports qmc above as the oracle
    src = str(Path(search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, robustbo, robustbo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


_BRANIN = make_objective("branin", 1.0)
_SPHERE3 = Objective("sphere3", np.array([[-1.0, 1.0], [0.0, 2.0], [-2.0, 0.5]]),
                     lambda x: -float(np.sum((x - 0.3) ** 2)), 0.01)
_SEARCH_CASES = {
    # objective, lengthscale, seed points, eager outlier for the corrupted fc state
    "branin2d": (_BRANIN, [3.0, 3.0], np.array([[0.0, 5.0], [5.0, 10.0], [-3.0, 2.0], [8.0, 12.0], [2.0, 1.0]]), 300.0),
    "sphere3d": (_SPHERE3, [0.6, 0.6, 0.6], np.array([[-0.5, 0.5, -1.0], [0.5, 1.5, 0.0], [0.9, 0.1, -1.8],
                                                     [-0.9, 1.9, 0.3], [0.0, 1.0, -0.5]]), 5.0),
}


def make_search_state(case, algorithm, n_starts=64, steps=0, with_data=True, **kw):
    objective, lengthscale, X0, outlier = _SEARCH_CASES[case]
    domain = dataclasses.replace(DomainSpec.from_bounds(objective.bounds), n_starts=n_starts)
    if algorithm == "fc":  # corrupted: the first observations are outliers the robust fit downweights
        kw = dict(policy=EagerBudget(outlier), budget_count=2, pimq_policy="manual", **kw)
    state = make_state(algorithm, objective=objective, domain=domain, spec=KernelSpec("matern52", lengthscale, 1.0),
                       case=FiniteDomain(1001), **kw)
    if with_data:
        state.add_initial(X0)
    run_loop(state, steps)
    return state


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol:UserWarning")  # n_starts = 10
@pytest.mark.parametrize("n_starts", [64, 10])
@pytest.mark.parametrize("algorithm", ["gp_ucb", "fc"])
@pytest.mark.parametrize("case", ["branin2d", "sphere3d"])
def test_batched_search_matches_the_per_start_loop(case, algorithm, n_starts):
    state = make_search_state(case, algorithm, n_starts, steps=3)
    if algorithm == "fc":
        assert [r.corrupted for r in state.records[-3:]] == [True, True, False]
        assert np.any(state.plan().model.corrections.jw != 1.0)
    x = maximize_acquisition(state.domain, state.plan().ucb)
    assert np.array_equal(x, _reference_search(state.domain, _reference_ucb(state))[0])
    assert np.array_equal(x, full_block_search(state.domain, state.plan().ucb))  # the slow twin
    assert state.objective.in_domain(x)


@pytest.mark.parametrize("name", ["branin_small", "branin_hyperfit"])
def test_the_search_writes_the_traces_of_its_full_block_twin(name, tmp_path, monkeypatch):
    # dropping repeated starts is a fast path: its slow twin predicts every start in every block
    cfg = bench.ExperimentConfig.from_dict(dict(ci_variants.VARIANTS[name](), seeds=[0]))
    assert cfg.algorithms == ("gp_ucb", "fc", "a2")
    bench.run_experiment(cfg, tmp_path / "fast")
    calls = []
    monkeypatch.setattr(algorithms, "maximize_acquisition",  # the binding each step searches through
                        lambda domain, acquisition: calls.append(1) or full_block_search(domain, acquisition))
    bench.run_experiment(cfg, tmp_path / "full")
    assert len(calls) == len(cfg.algorithms) * cfg.n_iterations
    traces = sorted(path.name for path in (tmp_path / "fast").glob("*.csv"))
    assert traces == sorted(path.name for path in (tmp_path / "full").glob("*.csv")) and len(traces) == 3
    for trace in traces:
        assert (tmp_path / "fast" / trace).read_bytes() == (tmp_path / "full" / trace).read_bytes(), trace


@pytest.mark.parametrize("case", ["branin2d", "sphere3d"])
def test_batched_search_predicts_once_per_sweep_coordinate(case, monkeypatch):
    state = make_search_state(case, "fc", steps=2)
    state.plan()  # the fit is not part of the search
    want = _distinct_start_rows(state.domain, _reference_search(state.domain, _reference_ucb(state))[1])
    sizes = []
    predict = gp.GpPosterior.predict
    monkeypatch.setattr(gp.GpPosterior, "predict", lambda self, Xq: sizes.append(len(Xq)) or predict(self, Xq))
    maximize_acquisition(state.domain, state.plan().ucb)
    # 2*d + 1 predicts, each over the distinct starts alone
    assert len(sizes) == 2 * state.domain.dim + 1 and sizes == want
    assert sizes[0] == state.domain.n_starts * state.domain.coord_grid and sizes[-1] < state.domain.n_starts


def test_batched_search_on_the_prior_keeps_the_first_start():
    # A flat acquisition ties everywhere: every sweep keeps the lowest grid
    # index, so every start ends at the lower corner and the first one is kept.
    state = make_search_state("sphere3d", "gp_ucb", with_data=False, standardize="none")
    x = maximize_acquisition(state.domain, state.plan().ucb)
    assert np.array_equal(x, _reference_search(state.domain, _reference_ucb(state))[0])
    assert np.array_equal(x, state.domain.bounds[:, 0])


def test_batched_search_keeps_the_first_of_tied_starts():
    # One low observation in a corner of the unit square, with a short
    # lengthscale: away from it the acquisition is exactly the prior's, so
    # starts settle on different points of equal value and the first start wins.
    square = Objective("square", np.array([[0.0, 1.0], [0.0, 1.0]]), lambda x: -10.0, 0.01)
    state = make_state("gp_ucb", objective=square, domain=DomainSpec.from_bounds(square.bounds),
                       spec=KernelSpec("rbf", [0.02, 0.02], 1.0), case=FiniteDomain(1001), standardize="none")
    state.add_initial(np.zeros((1, 2)))
    ucb = state.plan().ucb
    x = maximize_acquisition(state.domain, ucb)
    assert np.array_equal(x, _reference_search(state.domain, _reference_ucb(state))[0])
    assert not np.array_equal(x, x[::-1]) and ucb(np.atleast_2d(x))[0] == ucb(np.atleast_2d(x[::-1]))[0]


def test_search_starts_are_drawn_once_per_domain_without_a_warning():
    state = make_search_state("branin2d", "gp_ucb", n_starts=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no balance warning for 10 starts, a non-power of two
        step(state)
        maximize_acquisition(state.domain, state.plan().ucb)
    starts = state.domain.starts
    assert starts is state.domain.starts and not starts.flags.writeable
    with pytest.warns(UserWarning, match="balance properties"):
        prefix = qmc.Sobol(2, scramble=False).random(10)
    assert np.array_equal(starts, qmc.scale(prefix, state.domain.bounds[:, 0], state.domain.bounds[:, 1]))
