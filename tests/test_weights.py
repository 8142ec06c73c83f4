import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import estimate_tc
from robustbo.weights import (
    ZERO_CENTER,
    PimqParams,
    WeightCorrections,
    build_corrections,
    c1_bound,
    cw_from_c1,
    plateau_cap,
)

FIG_PARAMS = PimqParams(ZERO_CENTER, 2.0, 1.0)  # width 2, shape 1
FIG_NV = 2.0  # the cap sqrt(FIG_NV / 2) is 1


def test_plateau_value():
    assert build_corrections(FIG_PARAMS, FIG_NV, [1.0]).weights[0] == 1.0


def test_decay_just_outside():
    w = build_corrections(FIG_PARAMS, FIG_NV, [3.0]).weights[0]
    assert w == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_plateau_boundary_inclusive():
    assert build_corrections(FIG_PARAMS, FIG_NV, [-2.0]).weights[0] == 1.0
    assert build_corrections(FIG_PARAMS, FIG_NV, [2.0]).weights[0] == 1.0


def test_imq_weight_values():
    # a zero-width plateau leaves the plain inverse multi-quadric
    imq = PimqParams(ZERO_CENTER, 0.0, 1.0)
    assert build_corrections(imq, 12.5, [0.0]).weights[0] == 2.5  # the cap sqrt(12.5 / 2)
    assert build_corrections(imq, FIG_NV, [1.0]).weights[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, 0.0, 0.0)


@given(r1=st.floats(0, 50), r2=st.floats(0, 50))
@settings(max_examples=50, deadline=None)
def test_weight_nonincreasing_in_residual(r1, r2):
    lo, hi = sorted([r1, r2])
    w_lo, w_hi = build_corrections(FIG_PARAMS, FIG_NV, [lo, hi]).weights
    assert w_hi <= w_lo + 1e-15


@given(y=st.floats(-1e6, 1e6))
@example(y=2.0000000000000004)  # w rounds to the cap, m_w = -8.9e-16 still marks it outside
@settings(max_examples=100, deadline=None)
def test_weight_range(y):
    w = build_corrections(FIG_PARAMS, FIG_NV, [y]).weights[0]
    assert 0.0 < w <= 1.0
    if abs(y) <= 2.0:
        assert w == 1.0
    # Just past the edge w can round to exactly the cap; the mean correction states the edge exactly.
    assert (build_corrections(FIG_PARAMS, FIG_NV, [y]).mw[0] == 0.0) == (abs(y) <= 2.0)


def test_bounded_influence_over_huge_targets():
    # y * w(y)^2 must stay bounded, the defining property of a redescending
    # correction: w ~ c/|y| far out, so y * w^2 ~ c^2 / y -> 0.
    ys = np.concatenate([np.linspace(-1e6, 1e6, 2001), [1e6, -1e6]])
    w = build_corrections(FIG_PARAMS, FIG_NV, ys).weights
    assert np.max(np.abs(ys) * w**2) < 10.0


def test_mw_inside_plateau_is_zero():
    assert build_corrections(FIG_PARAMS, 1.0, [1.5]).mw[0] == 0.0
    assert build_corrections(FIG_PARAMS, 1.0, [-2.0]).mw[0] == 0.0


def test_mw_closed_form_value():
    # unit noise variance, shape 1, width 2: one unit past the plateau edge
    assert build_corrections(FIG_PARAMS, 1.0, [3.0]).mw[0] == pytest.approx(-1.0, abs=1e-12)


@given(r=st.floats(0.01, 30.0))
@settings(max_examples=60, deadline=None)
def test_mw_antisymmetry(r):
    up = build_corrections(FIG_PARAMS, 1.0, [r]).mw[0]
    down = build_corrections(FIG_PARAMS, 1.0, [-r]).mw[0]
    assert up == pytest.approx(-down, abs=1e-14)


def test_cap_tied_to_noise():
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    assert plateau_cap(0.5) == math.sqrt(0.25)
    assert build_corrections(params, 0.5, [0.5]).weights[0] == math.sqrt(0.25)  # in-plateau: the cap


def test_corrections_identity_when_all_in_plateau():
    params = PimqParams(ZERO_CENTER, 5.0, 1.0)
    corr = build_corrections(params, 0.3, [1.0, -2.0, 0.0])
    assert np.all(corr.jw == 1.0)
    assert np.all(corr.mw == 0.0)
    assert np.all(corr.weights == plateau_cap(0.3))


def test_corrections_mixed_case():
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    corr = build_corrections(params, 1.0, [0.5, 4.0])
    assert corr.jw[0] == 1.0 and corr.mw[0] == 0.0
    assert corr.jw[1] > 1.0 and corr.mw[1] < 0.0


def test_extreme_outlier_influence_vanishes():
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    corr = build_corrections(params, 1.0, [1e12])
    assert corr.jw[0] > 1e20  # effective noise explodes, influence ~ 0
    assert abs(corr.mw[0]) < 1e-5


def test_adaptive_width_per_point():
    params = PimqParams(ZERO_CENTER, np.array([1.0, 4.0]), 1.0)
    w = build_corrections(params, 1.0, [1.5, 1.5]).weights
    assert w[0] < plateau_cap(1.0)  # width 1 at the first point, residual 1.5 outside
    assert w[1] == plateau_cap(1.0)  # width 4 at the second point, inside


def test_per_point_center():
    params = PimqParams(np.array([0.0, 10.0]), 1.0, 1.0)
    w = build_corrections(params, 1.0, [10.0, 10.5]).weights
    assert w[0] < plateau_cap(1.0)  # 10 away from center 0
    assert w[1] == plateau_cap(1.0)  # 0.5 away from center 10


@pytest.mark.parametrize("field", ["center", "half_width"])
@pytest.mark.parametrize("length", [1, 3])
def test_per_point_values_of_wrong_length_rejected(field, length):
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    params = dataclasses.replace(params, **{field: np.ones(length)})
    with pytest.raises(ValueError):
        build_corrections(params, 1.0, [1.0, 2.0])


def test_nan_observation_is_the_infinite_outlier():
    params = PimqParams(ZERO_CENTER, 1.0, 1.0)
    nan, inf = build_corrections(params, 1.0, [math.nan, math.inf]).weights
    assert nan == inf == 0.0


def test_hard_threshold_collapses_fast():
    # the hard threshold is the shape_c -> 0 limit of the P-IMQ
    params = PimqParams(ZERO_CENTER, 1.0, 1e-6)
    assert build_corrections(params, 1.0, [1.0]).weights[0] == plateau_cap(1.0)
    assert build_corrections(params, 1.0, [1.001]).weights[0] < 1e-3 * plateau_cap(1.0)


def test_estimate_tc():
    assert estimate_tc(PimqParams(ZERO_CENTER, 2.0, 1.0), [0.5, 3.0, -2.5]) == 2
    assert estimate_tc(PimqParams(ZERO_CENTER, np.array([]), 1.0), []) == 0
    assert estimate_tc(PimqParams(np.array([1.0, -1.0]), np.array([2.0, 2.0]), 1.0), [2.9, -2.8]) == 0
    assert estimate_tc(PimqParams(np.array([1.0, -1.0]), 2.0, 1.0), [3.1, -2.8]) == 1  # a per-point center
    with pytest.raises(ValueError):
        estimate_tc(PimqParams(ZERO_CENTER, np.ones(1), 1.0), [1.0, 2.0])


@given(
    residuals=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
    width=st.one_of(st.floats(0.0, 1e308), st.just(math.inf)),
    per_point=st.booleans(),
)
@example(residuals=[math.inf, -math.inf, 1e308], width=math.inf, per_point=False)
@settings(max_examples=200, deadline=None)
def test_estimate_tc_counts_nan_and_stays_finite(residuals, width, per_point):
    # A NaN residual is never inside the plateau, so it counts like an infinite outlier.  So does an
    # infinite residual at an infinite width (inf - inf is NaN), which the fit drops.
    params = PimqParams(ZERO_CENTER, np.full(len(residuals), width) if per_point else width, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tc = estimate_tc(params, residuals)
        corr = build_corrections(params, 1.0, residuals)
    outside = np.array([math.isnan(r) or abs(r) > width or abs(r) == width == math.inf for r in residuals], bool)
    assert isinstance(tc, int) and tc == np.count_nonzero(outside)
    assert np.array_equal(corr.outside, outside)  # the fit's own record of the same test
    # the points the count leaves out are the fit's in-plateau points, whose corrections are the plain GP's
    inside = corr[~outside]
    assert np.all(inside.weights == plateau_cap(1.0)) and np.all(inside.jw == 1.0) and np.all(inside.mw == 0.0)


def test_same_compares_the_outside_flag():
    # at width 0 and noise variance 0.125, y = 5e-324 is outside, yet its weight, jw and mw (-0.0) are the
    # in-plateau ones: only the outside flag tells it from y = 0
    params, nv = PimqParams(ZERO_CENTER, 0.0, 1.0), 0.125
    past, at = build_corrections(params, nv, [5e-324]), build_corrections(params, nv, [0.0])
    assert estimate_tc(params, [5e-324]) == 1 and estimate_tc(params, [0.0]) == 0
    assert (past.weights, past.jw, past.mw) == (at.weights, at.jw, at.mw) == ([plateau_cap(nv)], [1.0], [0.0])
    assert past.outside.tolist() == [True] and at.outside.tolist() == [False]
    assert past.same(at).tolist() == at.same(past).tolist() == [False]
    assert past.same(past).tolist() == [True] and at.same(WeightCorrections.in_plateau(1, nv)).tolist() == [True]


def test_c1_bound_value():
    c_m = 4.0 * 2.0 / (3.0 * math.sqrt(3.0))  # width 2, shape 1, noise 2: the cap is exactly 1
    assert c1_bound(2.0, 1.0, 2.0, 0.0) == pytest.approx(math.sqrt(5.0) + c_m, abs=1e-12)


def test_c1_bound_monotone_in_width_and_gap():
    nv = 1.0
    assert c1_bound(3.0, 1.0, nv, 0.0) > c1_bound(1.0, 1.0, nv, 0.0)
    assert c1_bound(1.0, 1.0, nv, 2.0) > c1_bound(1.0, 1.0, nv, 0.0)


def test_c1_bound_rejects_per_point_width():
    with pytest.raises(ValueError):
        c1_bound(np.ones(3), 1.0, 1.0, 0.0)


def test_cw_values():
    assert cw_from_c1(1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert cw_from_c1(0.0, 1.0) == 0.0
    assert cw_from_c1(3.0, 1.0) == pytest.approx(3.0 * cw_from_c1(1.0, 1.0), abs=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, 1.0, 0.0)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, -1.0, 1.0)
    with pytest.raises(ValueError):
        PimqParams(ZERO_CENTER, np.array([1.0, -1e-300]), 1.0)
    for shape_c in (-1.0, math.nan, math.inf, 1e200, 1e-300):  # a square of 0 or inf makes q or C1 inf or NaN
        with pytest.raises(ValueError, match="shape_c"):
            PimqParams(ZERO_CENTER, 1.0, shape_c)
    assert PimqParams(ZERO_CENTER, math.inf, 1e-150).half_width == math.inf  # the plain GP's limit
    for noise_var in (0.0, -1.0, math.nan, 5e-324):  # the cap needs a positive noise variance, half of it nonzero
        with pytest.raises(ValueError, match="noise_var"):
            build_corrections(PimqParams(ZERO_CENTER, 1.0, 1.0), noise_var, [0.0])


def test_shape_c_is_stored_as_a_float():
    shape_c = PimqParams(ZERO_CENTER, 1.0, 2).shape_c
    assert type(shape_c) is float and shape_c == 2.0
