import math

import pytest

from vclab import (
    PreconditionError,
    RangeError,
    ShapeError,
    ShatterProfile,
    classify_growth,
    fit_exponent,
)
from vclab.estimator import fit_report_json


def binomial_profile(d, t_range):
    return ShatterProfile.of(
        [(t, sum(math.comb(t, i) for i in range(d + 1)), True) for t in t_range]
    )


def test_profile_validation():
    with pytest.raises(PreconditionError):
        ShatterProfile.of([(2, 3, True), (2, 4, True)])  # t not increasing
    with pytest.raises(PreconditionError):
        ShatterProfile.of([(2, 4, True), (3, 3, True)])  # value decreasing
    with pytest.raises(PreconditionError):
        ShatterProfile.of([(2, 5, True)])  # value above 2^t


def test_negative_samples_are_a_range_error():
    with pytest.raises(RangeError):
        ShatterProfile.of([(-1, 0, True)])
    with pytest.raises(RangeError):
        ShatterProfile.of([(3, -1, True)])


@pytest.mark.parametrize(
    "sample",
    [("a", 1, True), (1, 2), (0, 1.5, True), (True, 1, True), 7],
    ids=["string-t", "pair", "float-value", "bool-t", "not-a-sequence"],
)
def test_malformed_samples_are_a_shape_error(sample):
    with pytest.raises(ShapeError):
        ShatterProfile.of([sample])


@pytest.mark.parametrize("row", ["0,1", "0,1,1,1", "0,x,1", "0,1.5,1"])
def test_csv_rows_of_three_integers(row):
    with pytest.raises(PreconditionError, match="not three integers"):
        ShatterProfile.from_csv(f"t,value,exact\n{row}\n")


def test_csv_round_trip():
    profile = binomial_profile(2, range(4, 9))
    text = profile.to_csv()
    assert text.splitlines()[0] == "t,value,exact"
    assert ShatterProfile.from_csv(text) == profile
    with pytest.raises(PreconditionError):
        ShatterProfile.from_csv("a,b\n1,2\n")


def test_fit_exact_power_law():
    profile = ShatterProfile.of([(t, t * t, True) for t in range(4, 11)])
    fit = fit_exponent(profile)
    assert abs(fit.slope - 2.0) < 1e-9
    assert abs(fit.r2 - 1.0) < 1e-9
    assert fit.t_range == (4, 10)


def test_fit_refuses_lower_bounds_unless_forced():
    profile = ShatterProfile.of([(t, t, t != 5) for t in range(3, 9)])
    with pytest.raises(PreconditionError):
        fit_exponent(profile)
    fit = fit_exponent(profile, force=True)
    assert abs(fit.slope - 1.0) < 1e-9


def test_fit_skips_zero_values_with_warning():
    profile = ShatterProfile.of([(1, 0, True)] + [(t, t, True) for t in range(2, 7)])
    with pytest.warns(UserWarning):
        fit = fit_exponent(profile)
    assert fit.n_used == 5


def test_fit_needs_enough_samples():
    profile = ShatterProfile.of([(2, 2, True), (3, 3, True)])
    with pytest.raises(PreconditionError):
        fit_exponent(profile)


def test_fit_constant_profile():
    profile = ShatterProfile.of([(t, 5, True) for t in range(3, 8)])
    fit = fit_exponent(profile)
    assert fit.slope == 0.0
    assert fit.r2 == 1.0


def test_fit_scale_equivariance():
    base = binomial_profile(2, range(7, 15))
    scaled = ShatterProfile.of([(t, 2 * v, e) for t, v, e in base.samples])
    f1 = fit_exponent(base)
    f2 = fit_exponent(scaled)
    assert abs(f1.slope - f2.slope) < 1e-9
    assert abs(f1.r2 - f2.r2) < 1e-9
    assert abs((f2.intercept - f1.intercept) - math.log(2)) < 1e-9


def test_binomial_slope_grows_toward_degree():
    for d in (1, 2, 3):
        slopes = [
            fit_exponent(binomial_profile(d, range(4, tmax + 1))).slope
            for tmax in (8, 10, 12, 14)
        ]
        assert slopes == sorted(slopes)
        assert slopes[-1] < d


def test_classify_power_set_is_exponential():
    for tmax in (4, 6, 8):
        profile = ShatterProfile.of([(t, 1 << t, True) for t in range(1, tmax)])
        assert classify_growth(profile).kind == "exponential_so_far"


def test_classify_power_like():
    result = classify_growth(binomial_profile(2, range(4, 13)))
    assert result.kind == "power_like"
    assert result.r2 >= 0.98


def test_classify_inconclusive_on_thin_data():
    profile = ShatterProfile.of([(2, 3, True), (3, 5, True)])
    assert classify_growth(profile).kind == "inconclusive"


def test_fit_report_json():
    report = fit_report_json(binomial_profile(2, range(4, 13)))
    assert set(report) == {"slope", "intercept", "r2", "t_range", "classification"}
    assert report["classification"] == "power_like"
    assert report["t_range"] == [4, 12]
    thin = fit_report_json(ShatterProfile.of([(2, 3, True), (3, 5, True)]))
    assert thin["slope"] is None
    assert thin["classification"] == "inconclusive"
