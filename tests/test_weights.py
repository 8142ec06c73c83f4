import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustbo.weights import (
    ZERO_CENTER,
    PimqParams,
    build_corrections,
    c1_bound,
    cw_from_c1,
    pimq_mw,
    pimq_params_for_noise,
    pimq_weight,
    pimq_weights,
)

FIG_PARAMS = PimqParams(ZERO_CENTER, 2.0, 1.0, 1.0)  # cap 1, width 2, shape 1


def test_plateau_value():
    assert pimq_weight(FIG_PARAMS, 0.0, 1.0) == 1.0


def test_decay_just_outside():
    assert pimq_weight(FIG_PARAMS, 0.0, 3.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_plateau_boundary_inclusive():
    assert pimq_weight(FIG_PARAMS, 0.0, -2.0) == 1.0
    assert pimq_weight(FIG_PARAMS, 0.0, 2.0) == 1.0


def test_imq_weight_values():
    # a zero-width plateau leaves the plain inverse multi-quadric
    assert pimq_weight(PimqParams(ZERO_CENTER, 0.0, 1.0, 2.5), 0.0, 0.0) == 2.5
    imq = PimqParams(ZERO_CENTER, 0.0, 1.0, 1.0)
    assert pimq_weight(imq, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, 0.0, 0.0, 1.0)


@given(r1=st.floats(0, 50), r2=st.floats(0, 50))
@settings(max_examples=50, deadline=None)
def test_weight_nonincreasing_in_residual(r1, r2):
    lo, hi = sorted([r1, r2])
    assert pimq_weight(FIG_PARAMS, 0.0, hi) <= pimq_weight(FIG_PARAMS, 0.0, lo) + 1e-15


@given(y=st.floats(-1e6, 1e6))
@settings(max_examples=100, deadline=None)
def test_weight_range(y):
    w = pimq_weight(FIG_PARAMS, 0.0, y)
    assert 0.0 < w <= 1.0
    assert (w == 1.0) == (abs(y) <= 2.0)


def test_bounded_influence_over_huge_targets():
    # y * w(y)^2 must stay bounded, the defining property of a redescending
    # correction: w ~ c/|y| far out, so y * w^2 ~ c^2 / y -> 0.
    ys = np.concatenate([np.linspace(-1e6, 1e6, 2001), [1e6, -1e6]])
    w = pimq_weights(FIG_PARAMS, np.zeros(ys.shape), ys)
    assert np.max(np.abs(ys) * w**2) < 10.0


def test_mw_inside_plateau_is_zero():
    assert pimq_mw(FIG_PARAMS, 1.0, 0.0, 1.5) == 0.0
    assert pimq_mw(FIG_PARAMS, 1.0, 0.0, -2.0) == 0.0


def test_mw_closed_form_value():
    # unit noise variance, shape 1, width 2: one unit past the plateau edge
    assert pimq_mw(FIG_PARAMS, 1.0, 0.0, 3.0) == pytest.approx(-1.0, abs=1e-12)


@given(r=st.floats(0.01, 30.0))
@settings(max_examples=60, deadline=None)
def test_mw_antisymmetry(r):
    up = pimq_mw(FIG_PARAMS, 1.0, 0.0, r)
    down = pimq_mw(FIG_PARAMS, 1.0, 0.0, -r)
    assert up == pytest.approx(-down, abs=1e-14)


def test_cap_tied_to_noise():
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 0.5)
    assert params.w_max == math.sqrt(0.25)


def test_corrections_identity_when_all_in_plateau():
    params = pimq_params_for_noise(ZERO_CENTER, 5.0, 1.0, 0.3)
    corr = build_corrections(params, 0.3, [0.1, 0.2, 0.9], [1.0, -2.0, 0.0])
    assert np.all(corr.jw == 1.0)
    assert np.all(corr.mw == 0.0)
    assert np.all(corr.weights == params.w_max)


def test_corrections_mixed_case():
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 1.0)
    corr = build_corrections(params, 1.0, [0.0, 0.5], [0.5, 4.0])
    assert corr.jw[0] == 1.0 and corr.mw[0] == 0.0
    assert corr.jw[1] > 1.0 and corr.mw[1] < 0.0


def test_extreme_outlier_influence_vanishes():
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 1.0)
    corr = build_corrections(params, 1.0, [0.0], [1e12])
    assert corr.jw[0] > 1e20  # effective noise explodes, influence ~ 0
    assert abs(corr.mw[0]) < 1e-5


def test_adaptive_width_per_point():
    params = pimq_params_for_noise(ZERO_CENTER, np.array([1.0, 4.0]), 1.0, 1.0)
    w = pimq_weights(params, [0.0, 3.0], [1.5, 1.5])
    assert w[0] < params.w_max  # width 1 at the first point, residual 1.5 outside
    assert w[1] == params.w_max  # width 4 at the second point, inside


def test_per_point_center():
    params = pimq_params_for_noise(np.array([0.0, 10.0]), 1.0, 1.0, 1.0)
    w = pimq_weights(params, [0.0, 0.5], [10.0, 10.5])
    assert w[0] < params.w_max  # 10 away from center 0
    assert w[1] == params.w_max  # 0.5 away from center 10


@pytest.mark.parametrize("field", ["center", "half_width"])
@pytest.mark.parametrize("length", [1, 3])
def test_per_point_values_of_wrong_length_rejected(field, length):
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 1.0)
    params = dataclasses.replace(params, **{field: np.ones(length)})
    with pytest.raises(ValueError):
        build_corrections(params, 1.0, [0.0, 0.5], [1.0, 2.0])


def test_nan_observation_is_the_infinite_outlier():
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, 1.0)
    nan, inf = build_corrections(params, 1.0, [0.0, 0.5], [math.nan, math.inf]).weights
    assert nan == inf == 0.0


def test_hard_threshold_collapses_fast():
    # the hard threshold is the shape_c -> 0 limit of the P-IMQ
    params = pimq_params_for_noise(ZERO_CENTER, 1.0, 1e-6, 1.0)
    assert pimq_weight(params, 0.0, 1.0) == params.w_max
    assert pimq_weight(params, 0.0, 1.001) < 1e-3 * params.w_max


def test_c1_bound_value():
    params = pimq_params_for_noise(ZERO_CENTER, 2.0, 1.0, 2.0)  # cap exactly 1
    c_m = 4.0 * 2.0 / (3.0 * math.sqrt(3.0))
    assert c1_bound(params, 2.0, 0.0) == pytest.approx(math.sqrt(5.0) + c_m, abs=1e-12)


def test_c1_bound_monotone_in_width_and_gap():
    nv = 1.0
    narrow = pimq_params_for_noise(ZERO_CENTER, 1.0, 1.0, nv)
    wide = pimq_params_for_noise(ZERO_CENTER, 3.0, 1.0, nv)
    assert c1_bound(wide, nv, 0.0) > c1_bound(narrow, nv, 0.0)
    assert c1_bound(narrow, nv, 2.0) > c1_bound(narrow, nv, 0.0)


def test_c1_bound_rejects_per_point_width():
    params = pimq_params_for_noise(ZERO_CENTER, np.ones(3), 1.0, 1.0)
    with pytest.raises(ValueError):
        c1_bound(params, 1.0, 0.0)


def test_cw_values():
    assert cw_from_c1(1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert cw_from_c1(0.0, 1.0) == 0.0
    assert cw_from_c1(3.0, 1.0) == pytest.approx(3.0 * cw_from_c1(1.0, 1.0), abs=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, np.array([1.0, -1e-300]), 1.0, 1.0)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, 1.0, 1.0, 0.0)
