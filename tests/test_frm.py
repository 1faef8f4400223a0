import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    NegativeSpread,
    perpetual_cashflows,
    solve_frm,
    solve_frm_no_prepay,
    threshold_policy_value,
)
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
