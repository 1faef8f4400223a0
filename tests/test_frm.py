import math

import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    ModelParams,
    NegativeSpread,
    ValuationError,
    perpetual_cashflows,
    solve_abm,
    solve_abm_no_prepay,
    solve_frm,
    solve_frm_no_prepay,
    threshold_policy_value,
)
from mortval import frm
from mortval.solution import Action

from conftest import (
    B0,
    M0,
    check_below_payoff,
    check_monotone_concave,
    check_ode_residual,
    check_pasting,
    stopping_values_match,
)


@pytest.fixture(scope="module")
def solved(params_low_benefit):
    return solve_frm(params_low_benefit, M0)


@pytest.fixture(scope="module")
def cashflows(params_low_benefit):
    return perpetual_cashflows(ContractSpec(kind=ContractKind.FRM, m=M0), params_low_benefit)


def test_published_boundaries(solved):
    assert solved.boundaries["h1"] == pytest.approx(0.54, abs=0.01)
    assert solved.boundaries["h2"] == pytest.approx(1.43, abs=0.01)
    assert 0.0 < solved.boundaries["h1"] < B0 < solved.boundaries["h2"]


def test_region_layout(solved):
    actions = [reg.action for reg in solved.regions]
    assert actions == [Action.DEFAULT, Action.CONTINUE, Action.PREPAY]
    cont = solved.regions[1]
    assert cont.c_p1 < 0.0 and cont.c_p2 < 0.0


def test_value_matching_at_boundaries(solved):
    h1, h2 = solved.boundaries["h1"], solved.boundaries["h2"]
    assert solved.value(h1) == pytest.approx(h1, abs=1e-9)
    assert solved.value(h2) == pytest.approx(B0, abs=1e-12)


def test_boundary_points_belong_to_stopping_side(solved):
    h1, h2 = solved.boundaries["h1"], solved.boundaries["h2"]
    assert solved.region_at(h1).action is Action.DEFAULT
    assert solved.region_at(h2).action is Action.PREPAY


def test_pasting_and_ode(params_low_benefit, solved, cashflows):
    check_pasting(solved)
    check_ode_residual(params_low_benefit, solved, cashflows)


def test_dominated_monotone_concave(solved, cashflows):
    h = np.geomspace(0.01, 50.0, 10_000)
    check_below_payoff(solved, cashflows, h)
    check_monotone_concave(solved)
    stopping_values_match(solved, cashflows)


def test_equality_exactly_on_stopping_regions(solved, cashflows):
    h = np.geomspace(0.01, 50.0, 2_000)
    v = solved.value(h)
    f = np.asarray(cashflows.payoff(h), dtype=float)
    idx = solved.region_index(h)
    stopping = np.array([solved.regions[i].action is not Action.CONTINUE for i in idx])
    assert np.max(np.abs(v[stopping] - f[stopping])) <= 1e-12
    interior = ~stopping & (h > solved.boundaries["h1"] * 1.02) & (h < solved.boundaries["h2"] * 0.98)
    assert np.all(v[interior] < f[interior])


def test_default_region_supersolution(params_low_benefit, solved):
    # On the default region the cash coupon must dominate the benefit flow:
    # m B0 - delta h >= 0 up to h1.
    h1 = solved.boundaries["h1"]
    assert M0 * B0 - params_low_benefit.delta * h1 >= 0.0


def test_threshold_perturbation_is_never_cheaper(params_low_benefit, solved, cashflows):
    h1, h2 = solved.boundaries["h1"], solved.boundaries["h2"]
    base = solved.value(1.0)
    for f1 in (0.99, 1.0, 1.01):
        for f2 in (0.99, 1.0, 1.01):
            policy_value = threshold_policy_value(
                params_low_benefit, cashflows, (h1 * f1, h2 * f2), 1.0
            )
            assert policy_value >= base - 1e-9


def test_value_nondecreasing_in_rate(params_low_benefit):
    rates = np.linspace(0.02, 0.056, 19)
    values = [solve_frm(params_low_benefit, float(m)).value(1.0) for m in rates]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))


def test_negative_spread_rejected(params_low_benefit):
    with pytest.raises(NegativeSpread):
        solve_frm(params_low_benefit, params_low_benefit.r)


def test_unrestricted_root_domain(params_low_benefit):
    # For m >= p1 delta/(p1-1) the boundary equation is defined on all of
    # (0, 1); exercise that branch of the bracket.
    ex = solve_frm(params_low_benefit, M0).exponents
    m_big = ex.p1 * params_low_benefit.delta / (ex.p1 - 1.0) * 1.1
    solved = solve_frm(params_low_benefit, m_big)
    assert 0.0 < solved.boundaries["h1"] < B0 < solved.boundaries["h2"]
    check_pasting(solved)


def test_tiny_spread_degenerates_gracefully(params_low_benefit):
    # Just above the risk-free rate the prepayment boundary runs away and
    # the default boundary approaches its analytic cap; the solve must
    # still produce a coherent contract (used by the rate search).
    m = params_low_benefit.r * (1.0 + 1e-6)
    solved = solve_frm(params_low_benefit, m)
    ex = solved.exponents
    cap = (ex.p1 - 1.0) / ex.p1 * m / params_low_benefit.delta * B0
    assert solved.boundaries["h1"] == pytest.approx(cap, rel=1e-9)
    assert solved.boundaries["h2"] > 100.0
    assert 0.0 < solved.value(1.0) < B0


def test_deterministic_bits(params_low_benefit):
    a = solve_frm(params_low_benefit, M0)
    b = solve_frm(params_low_benefit, M0)
    assert a.boundaries == b.boundaries and a.regions == b.regions


def test_overflowing_power_is_solved_in_logs():
    # base1**p1 overflowed here before the root was taken in logs; the
    # contract itself is representable.
    params = ModelParams(r=0.004643761804238267, delta=0.10725013287953396,
                         sigma=0.03827345439636824, b0=0.7689408648580224)
    solved = solve_frm(params, 0.004643763288308212)
    assert solved.boundaries["h2"] == pytest.approx(4.87e142, rel=1e-3)
    check_pasting(solved)


def test_boundary_past_the_float_range_is_at_infinity_as_for_the_abm():
    # h2 overflows here for both contracts: each is the contract that is never
    # prepaid, the FRM's with its default boundary and the ABM's held forever.
    params = ModelParams(r=0.006214696459187511, delta=0.009057486142342086,
                         sigma=0.7276568434419125, b0=0.601571017787069)
    m = 0.0062146969268798286
    solved, reference = solve_frm(params, m), solve_frm_no_prepay(params, m)
    assert solved.boundaries.keys() == {"h1"}
    assert solved.boundaries["h1"] == pytest.approx(0.013361, rel=1e-4)
    assert solved.boundaries["h1"] == pytest.approx(reference.boundaries["h1"], rel=1e-14)
    for h in (params.b0 / 2.0, params.b0, 2.0 * params.b0, 10.0):
        assert solved.value(h) == pytest.approx(reference.value(h), rel=1e-14, abs=1e-14)
    check_pasting(solved)
    held = solve_abm(params, m)
    assert held.boundaries == {} and held.regions == solve_abm_no_prepay(params, m).regions


def _markets(box: str, n: int, seed: int):
    """(params, m) draws.  ``quotes``: the benchmark's quote box.  ``spread``:
    its market with m/r - 1 log-uniform on [1e-4, 30].  ``wide``: r .002-.1,
    delta .002-.12, sigma .03-.8, b0 .05-1 and m/r - 1 log-uniform on
    [1e-10, 10^1.5], every tenth draw at m/r - 1 = 1e-10."""
    u = np.random.default_rng(seed).random((n, 5))
    out = []
    for i, (a, b, c, d, e) in enumerate(u.tolist()):
        if box == "wide":
            r, delta, sigma, b0 = .002 + .098 * a, .002 + .118 * b, .03 + .77 * c, .05 + .95 * d
            m = r * (1.0 + (1e-10 if i % 10 == 0 else 10.0 ** (-10.0 + 11.5 * e)))
        else:
            r, delta, sigma, b0 = .01 + .03 * a, .025 + .055 * b, .07 + .13 * c, .6 + .35 * d
            m = r + .005 + .05 * e if box == "quotes" else r * (1.0 + 10.0 ** (-4.0 + math.log10(3e5) * e))
        out.append((ModelParams(r=r, delta=delta, sigma=sigma, b0=b0), m))
    return out


class TestPastingRoot:
    def test_agrees_with_a_50_digit_root(self):
        # The same equation in tau at 50 digits, from the same float inputs
        # and exponents.  h2 comes out of exp() of an argument of size
        # log(h2/B0), whose own rounding no float evaluation avoids.
        mp = pytest.importorskip("mpmath")
        for params, m in _markets("quotes", 100, 231) + _markets("spread", 120, 232):
            solved = solve_frm(params, m)
            ex = solved.exponents
            with mp.workdps(50):
                p1, p2, r, mm, b0 = map(mp.mpf, (ex.p1, ex.p2, params.r, m, params.b0))
                a = r / (mm - r)
                k = (p1 - 1) / p1 * p2 / (1 + p2)
                big_l = mp.log1p(a)
                tau = mp.findroot(lambda t: (p1 + p2) * big_l + p2 * t + p1 * mp.log1p(k * mp.expm1(t)),
                                  (-(1 + p1 / p2) * big_l, mp.mpf(0)), solver="anderson")
                x = -(mm / r) * mp.expm1(tau) * p2 / (1 + p2)
                h1 = b0 * x
                h2 = h1 * ((1 + a) * (1 + k * mp.expm1(tau))) ** (1 / p2)
            got1, got2 = solved.boundaries["h1"], solved.boundaries["h2"]
            assert abs(got1 / h1 - 1) <= 1e-14, (params, m)
            tol2 = 1e-14 + 2.0 * np.finfo(float).eps * math.log(got2 / params.b0)
            assert abs(got2 / h2 - 1) <= tol2, (params, m)

    def test_every_solve_returns_or_raises_a_valuation_error(self):
        for params, m in _markets("quotes", 1000, 233) + _markets("wide", 1000, 234):
            try:
                solved = solve_frm(params, m)
            except ValuationError:
                continue
            h1 = solved.boundaries["h1"]
            if "h2" in solved.boundaries:
                assert 0.0 < h1 < params.b0 < solved.boundaries["h2"] < math.inf, (params, m)
            else:  # h2 at infinity: the contract that only defaults
                assert h1 == pytest.approx(solve_frm_no_prepay(params, m).boundaries["h1"], rel=1e-14), (params, m)

    def test_few_newton_steps_and_no_fallback_on_the_quote_box(self, monkeypatch):
        evals = 0
        pasting = frm._pasting

        def counted(*args):
            nonlocal evals
            evals += 1
            return pasting(*args)

        def fallback(*args):
            raise AssertionError("the Newton iteration fell back to find_root_bracketed")

        monkeypatch.setattr(frm, "_pasting", counted)
        monkeypatch.setattr(frm, "find_root_bracketed", fallback)
        draws = _markets("quotes", 1000, 235)
        for params, m in draws:
            solve_frm(params, m)
        assert evals / len(draws) <= 6.0

    def test_fallback_finishes_on_the_shrunken_bracket(self, params_low_benefit, monkeypatch):
        expected = solve_frm(params_low_benefit, M0).boundaries
        brackets = []
        find_root = frm.find_root_bracketed

        def recorded(f, lo, hi):
            brackets.append((lo, hi))
            return find_root(f, lo, hi)

        monkeypatch.setattr(frm.rootfind, "_NEWTON_STEPS", 1)
        monkeypatch.setattr(frm, "find_root_bracketed", recorded)
        solved = solve_frm(params_low_benefit, M0)
        # The start lies above the root, so one step leaves it as the top.
        (lo, hi), = brackets
        assert lo < hi < 0.0
        for key in ("h1", "h2"):
            assert solved.boundaries[key] == pytest.approx(expected[key], rel=1e-12)


class TestNoPrepay:
    def test_boundary_formula(self, params_low_benefit):
        solved = solve_frm_no_prepay(params_low_benefit, M0)
        ex = solved.exponents
        expected = (ex.p1 - 1.0) / ex.p1 * M0 * B0 / params_low_benefit.delta
        assert solved.boundaries["h1"] == pytest.approx(expected, rel=1e-14)

    def test_value_matching_and_tail(self, params_low_benefit):
        solved = solve_frm_no_prepay(params_low_benefit, M0)
        h1 = solved.boundaries["h1"]
        assert solved.value(h1) == pytest.approx(h1, rel=1e-12)
        assert solved.value(1e12) == pytest.approx(M0 * B0 / params_low_benefit.r, rel=1e-5)
        assert solved.regions[1].c_p2 < 0.0

    def test_shape(self, params_low_benefit):
        solved = solve_frm_no_prepay(params_low_benefit, M0)
        check_pasting(solved)
        check_monotone_concave(solved)
