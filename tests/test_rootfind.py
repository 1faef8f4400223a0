import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortval import MaxIterExceeded, NanResidual, NoBracket, ValuationError, find_root_bracketed, grow_bracket
from mortval import rootfind

# Independent oracle for the cos fixed point: plain fixed-point iteration
# (cos is a contraction on [0, 1]), frozen to well below 1e-10.
COS_FIXED_POINT = 0.7390851332151607


def fixed_point_cos(iterations: int = 200) -> float:
    x = 0.5
    for _ in range(iterations):
        x = math.cos(x)
    return x


def test_quadratic_exact_root():
    # residual tolerance max(abs_tol, rel_tol * |f(lo)-f(hi)|) = 9e-12 here,
    # which pins the root within 2.25e-12 of 2
    assert find_root_bracketed(lambda x: x * x - 4.0, 0.0, 3.0) == pytest.approx(2.0, abs=3e-12)


def test_linear_root():
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-13)


def test_cos_fixed_point_matches_iteration_oracle():
    oracle = fixed_point_cos()
    assert abs(oracle - COS_FIXED_POINT) < 1e-12
    root = find_root_bracketed(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert abs(root - oracle) < 1e-10


def test_endpoint_root_returned_directly():
    assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_no_bracket_raises():
    with pytest.raises(NoBracket):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NoBracket):
        find_root_bracketed(lambda x: x, 2.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: math.nan,
    lambda x: math.nan if x == 0.0 else x - 0.5,
    lambda x: x - 0.5 if x < 1.0 else math.nan,
    lambda x: x if x < 1.0 else math.nan,  # a root at lo does not excuse NaN at hi
])
def test_nan_at_an_end_is_no_bracket(f):
    with pytest.raises(NoBracket):
        find_root_bracketed(f, 0.0, 1.0)


def test_nan_inside_the_bracket_raises():
    def f(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(NanResidual) as info:
        find_root_bracketed(f, 0.0, 1.0)
    assert isinstance(info.value, ValuationError) and info.value.code == "NanResidual"


def test_max_iter_exceeded(monkeypatch):
    monkeypatch.setattr(rootfind, "_MAX_ITER", 1)
    with pytest.raises(MaxIterExceeded):
        find_root_bracketed(lambda x: math.cos(x) - x, 0.0, 1.0)


def test_determinism_bit_identical():
    def f(x):
        return math.expm1(x) - 0.7 * x - 0.3

    first = find_root_bracketed(f, 0.01, 5.0)
    second = find_root_bracketed(f, 0.01, 5.0)
    assert first == second


@settings(max_examples=200, deadline=None)
@given(
    root=st.floats(-50.0, 50.0),
    slope=st.floats(1e-3, 1e3),
    cubic=st.floats(0.0, 1e2),
    pad_lo=st.floats(0.1, 10.0),
    pad_hi=st.floats(0.1, 10.0),
)
def test_monotone_residual_bound(root, slope, cubic, pad_lo, pad_hi):
    """For monotone f with a sign change, the residual meets the tolerance bound."""
    def f(x):
        return slope * (x - root) + cubic * (x - root) ** 3

    lo, hi = root - pad_lo, root + pad_hi
    x_star = find_root_bracketed(f, lo, hi)
    assert abs(f(x_star)) <= max(rootfind._ABS_TOL, rootfind._REL_TOL * abs(f(lo) - f(hi)))


def test_grow_bracket_expands_to_sign_change():
    lo, hi = grow_bracket(lambda x: x - 40.0, 1.0, 2.0)
    assert lo == 1.0 and hi >= 40.0
    with pytest.raises(NoBracket):
        grow_bracket(lambda x: x + 1.0, 1.0, 2.0, cap=100.0)


def _newton(f_and_slope, x, lo, hi):
    """``safeguarded_newton`` with the residuals at both ends taken from f."""
    return rootfind.safeguarded_newton(f_and_slope, x, lo, hi, f_and_slope(lo)[0], f_and_slope(hi)[0])


def _recorded(f_and_slope, xs):
    def recorded(x):
        xs.append(x)
        return f_and_slope(x)

    return recorded


def test_newton_falls_onto_a_convex_root_from_above():
    # expm1(x) - 1/2 is increasing and convex, as the FRM's pasting residual:
    # Newton steps from above the root stay above it and fall monotonically.
    xs = []
    root, lo, hi = _newton(_recorded(lambda x: (math.expm1(x) - 0.5, math.exp(x)), xs), 2.0, 0.0, 3.0)
    assert root == pytest.approx(math.log(1.5), abs=1e-14)
    xs = xs[2:]  # the two ends
    assert all(a > b > math.log(1.5) for a, b in zip(xs, xs[1:]))
    assert lo <= root <= hi


def test_newton_climbs_onto_a_concave_root_from_below():
    # log(x) - 1 is increasing and concave, as the spread's target value:
    # Newton steps from below the root stay below it and climb to it.
    xs = []
    root, lo, hi = _newton(_recorded(lambda x: (math.log(x) - 1.0, 1.0 / x), xs), 1.5, 1.0, 10.0)
    assert root == pytest.approx(math.e, rel=1e-14)
    xs = xs[2:]
    assert all(a < b <= math.e for a, b in zip(xs, xs[1:]))
    assert lo <= root <= hi


def test_newton_stops_by_the_brent_rule():
    def f_and_slope(x):
        return math.expm1(x) - 0.7 * x - 0.3, math.exp(x) - 0.7

    root, _, _ = _newton(f_and_slope, 1.0, 0.01, 5.0)
    f_lo, f_hi = f_and_slope(0.01)[0], f_and_slope(5.0)[0]
    assert abs(f_and_slope(root)[0]) <= max(rootfind._ABS_TOL, rootfind._REL_TOL * (f_hi - f_lo))
    assert abs(root - find_root_bracketed(lambda x: f_and_slope(x)[0], 0.01, 5.0)) <= 2e-12


def test_newton_nan_residual_raises():
    def f_and_slope(x):
        return (math.nan if 0.2 < x < 0.8 else x - 0.5), 1.0

    with pytest.raises(NanResidual):
        rootfind.safeguarded_newton(f_and_slope, 0.5, 0.0, 1.0, -0.5, 0.5)


@pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
def test_newton_bisects_without_a_positive_slope(slope):
    xs = []
    root, lo, hi = rootfind.safeguarded_newton(_recorded(lambda x: (x - 0.3, slope), xs), 0.9, 0.0, 1.0, -0.3, 0.7)
    assert root is None
    a, b, x, expected = 0.0, 1.0, 0.9, []
    for _ in range(rootfind._NEWTON_STEPS):
        expected.append(x)
        a, b = (x, b) if x < 0.3 else (a, x)
        x = 0.5 * (a + b)
    assert xs == expected
    assert (lo, hi) == (a, b)


def test_newton_out_of_steps_returns_a_bracket_that_holds_the_root(monkeypatch):
    monkeypatch.setattr(rootfind, "_NEWTON_STEPS", 1)
    root, lo, hi = _newton(lambda x: (math.expm1(x) - 0.5, math.exp(x)), 2.0, 0.0, 3.0)
    assert root is None
    assert (lo, hi) == (0.0, 2.0)
    assert lo < math.log(1.5) < hi


def test_newton_returns_an_end_where_f_is_zero():
    def unused(x):
        raise AssertionError("f evaluated although an end is a root")

    assert rootfind.safeguarded_newton(unused, 0.5, 0.0, 1.0, 0.0, 1.0) == (0.0, 0.0, 1.0)
    assert rootfind.safeguarded_newton(unused, 0.5, 0.0, 1.0, -1.0, 0.0) == (1.0, 0.0, 1.0)
