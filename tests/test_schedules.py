import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustbo.schedules import (
    CompactConvex,
    FiniteDomain,
    Rkhs,
    beta_prime,
    noise_bound,
    plateau_width,
    robust_beta,
)


def test_beta_prime_finite_domain_value():
    val = beta_prime(FiniteDomain(100), 1, 0.1)
    assert val == pytest.approx(2.0 * math.log(100 * math.pi**2 / 0.6), abs=1e-10)
    assert val == pytest.approx(14.811, abs=1e-3)


def test_beta_prime_norm_bound_case_without_gain():
    assert beta_prime(Rkhs(1.0), 3, 0.1, gamma_t=0.0) == 2.0


def test_beta_prime_nondecreasing_in_t():
    for case in (FiniteDomain(50), CompactConvex(1.0, 1.0, 1.0, 2), Rkhs(2.0)):
        vals = [beta_prime(case, t, 0.1, gamma_t=1.0) for t in range(1, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_beta_prime_validation():
    with pytest.raises(ValueError):
        beta_prime(FiniteDomain(10), 0, 0.1)
    with pytest.raises(ValueError):
        beta_prime(FiniteDomain(10), 1, 1.5)


def test_noise_bound_values():
    assert noise_bound(FiniteDomain(10), 1.0, 100, 0.05) == pytest.approx(
        math.sqrt(2.0 * math.log(2000.0)), abs=1e-12
    )
    assert noise_bound(FiniteDomain(10), 1.0, 100, 0.05) == pytest.approx(3.8990, abs=1e-4)
    assert noise_bound(Rkhs(1.0), 0.7, 100, 0.05) == 0.7


def test_noise_bound_monotone_in_horizon():
    vals = [noise_bound(FiniteDomain(10), 1.0, T, 0.05) for T in (10, 100, 1000)]
    assert vals[0] < vals[1] < vals[2]


def test_widths():
    # the anchor's b_f * sqrt(kappa) + n_t, the wrench's fixed sqrt(beta) * sqrt(kappa) + n_t and its
    # adaptive sqrt(beta) * std + n_t
    assert plateau_width(1.0, math.sqrt(1.0), 3.899) == pytest.approx(4.899)
    assert plateau_width(2.0, math.sqrt(4.0), 0.0) == 4.0
    assert plateau_width(math.sqrt(4.0), math.sqrt(1.0), 1.0) == 3.0
    assert plateau_width(math.sqrt(0.0), math.sqrt(1.0), 1.5) == 1.5
    assert plateau_width(math.sqrt(4.0), 0.5, 1.0) == 2.0
    assert plateau_width(math.sqrt(4.0), 0.0, 1.5) == 1.5
    for b, k, n in ((8.0, 1.0, 3.899), (0.7, 0.3, 0.1), (math.sqrt(14.8), 2.5, 1e-3)):
        width = plateau_width(b, math.sqrt(k), n)
        assert type(width) is float and width == b * math.sqrt(k) + n
    with pytest.raises(ValueError, match="nonnegative"):
        plateau_width(1.0, -0.1, 1.0)


def test_adaptive_width_vectorized_and_dominated():
    proxies = np.array([0.2, 0.5, 1.0])
    out = plateau_width(math.sqrt(4.0), proxies, 1.0)
    np.testing.assert_allclose(out, 2.0 * proxies + 1.0)
    # never exceeds the fixed width when the proxy is below the prior std
    assert np.all(out <= plateau_width(math.sqrt(4.0), math.sqrt(1.0), 1.0) + 1e-12)
    # per point, the scalar expression's bits
    b, stds, n = math.sqrt(14.8), np.sqrt([0.013, 0.5, 0.97]), 0.31
    out = plateau_width(b, stds, n)
    assert out.shape == stds.shape and np.array_equal(out, [b * s + n for s in stds.tolist()])
    assert np.array_equal(out, [plateau_width(b, s, n) for s in stds])


def test_robust_beta_zero_corruptions_is_exact():
    bp = beta_prime(FiniteDomain(100), 7, 0.05)
    assert robust_beta(bp, 3.7, 0) is bp or robust_beta(bp, 3.7, 0) == bp
    assert robust_beta(bp, 0.0, 12) == bp


def test_robust_beta_value():
    assert robust_beta(4.0, 1.0, 4) == pytest.approx(16.0, abs=1e-12)


@given(tc1=st.integers(0, 40), tc2=st.integers(0, 40), cw=st.floats(0.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_robust_beta_monotone_in_corruption_count(tc1, tc2, cw):
    lo, hi = sorted([tc1, tc2])
    assert robust_beta(3.0, cw, hi) >= robust_beta(3.0, cw, lo) - 1e-12


def test_anchor_width_contains_clean_residuals(rng):
    # noiseless magnitude bound plus the high-probability noise bound covers
    # every simulated clean residual against the zero center
    case = FiniteDomain(100)
    b_f, kappa, sigma, T = 2.0, 1.0, 1.0, 200
    width = plateau_width(b_f, math.sqrt(kappa), noise_bound(case, sigma, T, 0.05))
    f = rng.uniform(-b_f * math.sqrt(kappa), b_f * math.sqrt(kappa), size=T)
    noise = np.clip(rng.normal(0, sigma, size=T), -3.5, 3.5)
    assert np.all(np.abs(f + noise) <= width)


def test_case_validation():
    with pytest.raises(ValueError):
        FiniteDomain(0)
    with pytest.raises(ValueError):
        CompactConvex(0.0, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        Rkhs(0.0)
