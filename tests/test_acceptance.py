"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the whole gate is readable from
the pytest output (run with -s to see them on success).
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import deviation_schur
from robustbo.bench import ExperimentConfig, load_config, run_experiment
from robustbo.gp import gp_fit
from robustbo.kernels import KernelSpec
from robustbo.rcgp import rcgp_fit
from robustbo.weights import (
    ZERO_CENTER,
    PimqParams,
    build_corrections,
    c1_bound,
    cw_from_c1,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GRID = np.linspace(0.0, 1.0, 101)


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {num} ({name}) failed{tail}"


@pytest.fixture(scope="module")
def corrupted_results():
    cfg = load_config(CONFIG_DIR / "forrester_corrupted.json")
    start = time.monotonic()
    results = run_experiment(cfg)
    return results, time.monotonic() - start, cfg


@pytest.fixture(scope="module")
def clean_results():
    cfg = load_config(CONFIG_DIR / "forrester_clean.json")
    return run_experiment(cfg), cfg


def _final_regrets(results, algorithm, seeds):
    return np.array([results[(algorithm, s)][-1]["cum_regret"] for s in seeds])


def test_criterion_01_plateau_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    start = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(1, 21))
        spec = KernelSpec("rbf", float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.5, 2.0)))
        noise_var = float(rng.uniform(0.05, 1.0))
        X = rng.uniform(0, 1, size=n)
        y = rng.normal(0, 0.5, size=n)
        params = PimqParams(ZERO_CENTER, float(np.max(np.abs(y))) + 0.1, 1.0)
        pm, pv = gp_fit(X, y, spec, noise_var).predict(GRID)
        rm, rv = rcgp_fit(X, y, spec, noise_var, params).predict(GRID)
        worst = max(worst, float(np.max(np.abs(pm - rm))), float(np.max(np.abs(pv - rv))))
    elapsed = time.monotonic() - start
    report(1, "robust posterior equals plain GP inside the plateau",
           worst < 1e-10 and elapsed < 10.0, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_zero_cost_sequence_equality(clean_results):
    results, cfg = clean_results
    identical = True
    for seed in cfg.seeds:
        qa = [r["x0"] for r in results[("gp_ucb", seed)]]
        qb = [r["x0"] for r in results[("fc", seed)]]
        if qa != qb:
            identical = False
    report(2, "uncorrupted robust loop matches the baseline query-for-query",
           identical, f"{len(cfg.seeds)} seeds x {cfg.n_iterations} steps")


def _random_deviation_instance(rng):
    spec = KernelSpec("rbf", float(rng.uniform(0.1, 0.6)), 1.0)
    noise_var = float(rng.uniform(0.1, 0.5))
    n_corrupt = int(rng.integers(1, 5))
    n_clean = int(rng.integers(1, 11 - n_corrupt))
    Xu = rng.uniform(0, 1, size=n_clean)
    yu = np.clip(rng.normal(0, 0.4, size=n_clean), -1.9, 1.9)
    Xc = rng.uniform(0, 1, size=n_corrupt)
    yc = rng.uniform(5, 20, size=n_corrupt) * rng.choice([-1.0, 1.0], size=n_corrupt)
    params = PimqParams(ZERO_CENTER, 2.0, 1.0)
    return spec, noise_var, (Xu, yu), (Xc, yc), params


def test_criterion_03_deviation_formula_oracle():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        spec, nv, clean, corrupt, params = _random_deviation_instance(rng)
        X = np.concatenate([clean[0], corrupt[0]])
        y = np.concatenate([clean[1], corrupt[1]])
        full_mean, _ = rcgp_fit(X, y, spec, nv, params).predict(GRID)
        clean_mean, _ = gp_fit(*clean, spec, nv).predict(GRID)
        dev = deviation_schur(clean, corrupt, spec, nv, params, GRID)
        worst = max(worst, float(np.max(np.abs(dev - (full_mean - clean_mean)))))
    report(3, "block-solve deviation equals the direct posterior-mean gap",
           worst < 1e-8, f"max dev {worst:.2e} over 200 instances")


def test_criterion_04_deviation_bound():
    rng = np.random.default_rng(29)
    violations = 0
    for _ in range(200):
        spec, nv, clean, corrupt, params = _random_deviation_instance(rng)
        X = np.concatenate([clean[0], corrupt[0]])
        y = np.concatenate([clean[1], corrupt[1]])
        full_mean, _ = rcgp_fit(X, y, spec, nv, params).predict(GRID)
        uc = gp_fit(*clean, spec, nv)
        probe = np.concatenate([GRID, corrupt[0]])
        mu_probe, _ = uc.predict(probe)
        sup_delta = float(np.max(np.abs(mu_probe)))  # zero center vs clean mean
        c_w = cw_from_c1(c1_bound(params, nv, sup_delta), nv)
        mu_uc, var_uc = uc.predict(GRID)
        bound = c_w * np.sqrt(len(corrupt[1])) * np.sqrt(var_uc) + 1e-9
        violations += int(np.any(np.abs(full_mean - mu_uc) > bound))
    report(4, "posterior deviation respects the certified bound",
           violations == 0, f"{violations} violating instances of 200")


def test_criterion_05_mean_shift_gradient_check():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        L = float(rng.uniform(0.0, 3.0))
        c = float(rng.uniform(0.2, 5.0))
        nv = float(rng.uniform(0.1, 2.0))
        z = float(rng.uniform(0.01, 10.0))
        y = (L + z) * (1.0 if rng.random() < 0.5 else -1.0)
        params = PimqParams(ZERO_CENTER, L, c)
        h = 1e-6

        def log_w2(val):
            return 2.0 * np.log(build_corrections(params, 1.0, 0.0, [val]).weights[0])

        fd = nv * (log_w2(y + h) - log_w2(y - h)) / (2.0 * h)
        analytic = build_corrections(params, nv, 0.0, [y]).mw[0]
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-12))
    report(5, "mean-shift term matches the weight-gradient definition",
           worst < 1e-5, f"max rel err {worst:.2e} over 1000 draws")


def test_criterion_06_influence_constant_domination():
    rng = np.random.default_rng(37)
    ys = np.linspace(-40.0, 40.0, 801)
    failures = 0
    for _ in range(50):
        spec = KernelSpec("rbf", float(rng.uniform(0.1, 0.6)), 1.0)
        nv = float(rng.uniform(0.1, 2.0))
        L = float(rng.uniform(0.0, 3.0))
        c = float(rng.uniform(0.2, 3.0))
        params = PimqParams(ZERO_CENTER, L, c)
        n = int(rng.integers(2, 10))
        uc = gp_fit(rng.uniform(0, 1, size=n), rng.normal(0, 0.5, size=n), spec, nv)
        mu_uc, _ = uc.predict(GRID)
        corr = build_corrections(params, nv, np.zeros(ys.shape), ys)
        w, mw = corr.weights, corr.mw
        influence = np.abs(w[:, None] * (ys[:, None] - mw[:, None] - mu_uc[None, :]))
        bound = c1_bound(params, nv, float(np.max(np.abs(mu_uc))))
        failures += int(np.max(influence) > bound + 1e-9)
    report(6, "measured influence never exceeds its closed-form constant",
           failures == 0, f"{failures} failing instances of 50")


def test_criterion_07_corrupted_benchmark_ordering(corrupted_results):
    results, elapsed, cfg = corrupted_results
    gp = _final_regrets(results, "gp_ucb", cfg.seeds).mean()
    fc = _final_regrets(results, "fc", cfg.seeds).mean()
    a2 = _final_regrets(results, "a2", cfg.seeds).mean()
    ok = fc < 0.7 * gp and a2 < 0.7 * gp and elapsed < 900.0
    report(7, "robust variants beat the baseline under corruption", ok,
           f"fc/gp={fc / gp:.3f}, a2/gp={a2 / gp:.3f}, {elapsed:.1f}s")


def test_criterion_08_uncorrupted_parity(clean_results):
    results, cfg = clean_results
    gp = _final_regrets(results, "gp_ucb", cfg.seeds)
    fc = _final_regrets(results, "fc", cfg.seeds)
    n = len(cfg.seeds)
    pooled_se = np.sqrt(gp.std(ddof=1) ** 2 / n + fc.std(ddof=1) ** 2 / n)
    diff = abs(gp.mean() - fc.mean())
    report(8, "robustness costs nothing on clean data", diff <= 2.0 * pooled_se + 1e-9,
           f"|diff|={diff:.3g}, 2SE={2 * pooled_se:.3g}")


def test_criterion_09_outlier_magnitude_invariance():
    cfg = load_config(CONFIG_DIR / "forrester_corrupted.json")

    def query_sequences(magnitude):
        adv = dict(cfg.adversary)
        adv.update(high_value=magnitude, low_value=-magnitude)
        variant = dataclasses.replace(cfg, adversary=adv, algorithms=("fc", "a2"))
        results = run_experiment(variant)
        return {key: [r["x0"] for r in rows] for key, rows in results.items()}

    same = query_sequences(1e6) == query_sequences(1e12)
    report(9, "query sequences ignore outlier magnitude", same, "1e6 vs 1e12")


def test_criterion_10_late_regret_collapse(corrupted_results):
    results, _, cfg = corrupted_results
    first = np.mean([
        np.mean([r["inst_regret"] for r in results[("a2", s)][:20]]) for s in cfg.seeds
    ])
    last = np.mean([
        np.mean([r["inst_regret"] for r in results[("a2", s)][-20:]]) for s in cfg.seeds
    ])
    report(10, "per-step regret shrinks as the run progresses",
           last < 0.5 * first, f"last/first={last / first:.3f}")


def test_criterion_11_byte_identical_reruns(tmp_path):
    cfg = load_config(CONFIG_DIR / "forrester_corrupted_small.json")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_experiment(cfg, d)
    mismatches = []
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    for name in names:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            mismatches.append(name)
    meta = [json.loads((d / "metadata.json").read_text()) for d in dirs]
    same_meta = {k: v for k, v in meta[0].items() if k != "wall_time_s"} == {
        k: v for k, v in meta[1].items() if k != "wall_time_s"
    }
    report(11, "reruns reproduce traces byte for byte",
           not mismatches and len(names) == 30 and same_meta,
           f"{len(names)} files compared")
