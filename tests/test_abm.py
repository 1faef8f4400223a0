import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    ModelParams,
    NegativeSpread,
    max_rate,
    perpetual_cashflows,
    solve_abm,
    solve_contract,
    solve_abm_no_prepay,
    threshold_policy_value,
)
from mortval.solution import Action

from conftest import (
    B0,
    M0,
    R0,
    SIGMA0,
    check_below_payoff,
    check_monotone_concave,
    check_ode_residual,
    check_pasting,
    stopping_values_match,
)


def cashflows_for(params, m=M0):
    return perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=m), params)


class TestSingleBoundaryCase:
    """m <= delta: prepayment only in high states."""

    def test_published_boundary(self, params_low_benefit):
        solved = solve_abm(params_low_benefit, M0)
        assert list(solved.boundaries) == ["h2"]
        assert solved.boundaries["h2"] == pytest.approx(2.02, abs=0.01)

    def test_layout_and_constants(self, params_low_benefit):
        solved = solve_abm(params_low_benefit, M0)
        assert [r.action for r in solved.regions] == [Action.CONTINUE, Action.CONTINUE, Action.PREPAY]
        low, mid, _ = solved.regions
        assert low.c_p1 < 0.0 and low.c_p2 == 0.0
        assert mid.c_p1 < 0.0 and mid.c_p2 < 0.0

    def test_low_state_slope_limit(self, params_low_benefit):
        # As h -> 0 the value behaves like (m/delta) h, a slope below one.
        solved = solve_abm(params_low_benefit, M0)
        assert solved.regions[0].k1 == pytest.approx(M0 / params_low_benefit.delta)
        assert solved.regions[0].k1 <= 1.0
        assert solved.derivative(1e-9) == pytest.approx(M0 / params_low_benefit.delta, rel=1e-9)

    def test_invariants(self, params_low_benefit):
        solved = solve_abm(params_low_benefit, M0)
        cf = cashflows_for(params_low_benefit)
        check_pasting(solved)
        check_ode_residual(params_low_benefit, solved, cf)
        check_below_payoff(solved, cf, np.geomspace(0.01, 50, 10_000))
        check_monotone_concave(solved)
        stopping_values_match(solved, cf)


class TestTwoBoundaryCase:
    """m > delta: an additional low-state prepayment region appears."""

    def test_published_boundaries(self, params_tiny_benefit):
        solved = solve_abm(params_tiny_benefit, M0)
        assert solved.boundaries["h1"] == pytest.approx(0.51, abs=0.01)
        assert solved.boundaries["h2"] == pytest.approx(1.24, abs=0.01)
        assert 0.0 < solved.boundaries["h1"] < B0 < solved.boundaries["h2"]

    def test_layout(self, params_tiny_benefit):
        solved = solve_abm(params_tiny_benefit, M0)
        assert [r.action for r in solved.regions] == [
            Action.PREPAY, Action.CONTINUE, Action.CONTINUE, Action.PREPAY,
        ]
        assert all(c < 0.0 for reg in solved.regions[1:3] for c in (reg.c_p1, reg.c_p2))

    def test_invariants(self, params_tiny_benefit):
        solved = solve_abm(params_tiny_benefit, M0)
        cf = cashflows_for(params_tiny_benefit)
        check_pasting(solved)
        check_ode_residual(params_tiny_benefit, solved, cf)
        check_below_payoff(solved, cf, np.geomspace(0.01, 50, 10_000))
        check_monotone_concave(solved)
        stopping_values_match(solved, cf)

    def test_bracket_regime_above_mstar(self):
        # Rates beyond p1 delta/(p1-1) exercise the bounded-bracket branch.
        params = ModelParams(r=R0, delta=0.03, sigma=SIGMA0, b0=B0)
        solved = solve_abm(params, 0.06)
        assert 0.0 < solved.boundaries["h1"] < B0 < solved.boundaries["h2"]
        check_pasting(solved)

    def test_bracket_regime_at_branch_point(self):
        # Exactly at m = p1 delta/(p1-1) the open-ended bracket in log y still
        # applies; the two bracketing strategies must agree across the seam.
        params = ModelParams(r=R0, delta=0.03, sigma=SIGMA0, b0=B0)
        from mortval import compute_exponents

        ex = compute_exponents(params)
        m_star = ex.p1 * params.delta / (ex.p1 - 1.0)
        below = solve_abm(params, m_star)
        above = solve_abm(params, m_star * (1.0 + 1e-9))
        assert below.boundaries["h2"] == pytest.approx(above.boundaries["h2"], rel=1e-6)
        assert below.boundaries["h1"] == pytest.approx(above.boundaries["h1"], rel=1e-6)
        check_pasting(below)

    def test_boundary_far_above_the_balance(self):
        # m just above r puts h2 near 9e15, far past any fixed multiple of
        # B0: the open-ended bracket in log y reaches it.
        params = ModelParams(r=0.0378, delta=0.029, sigma=0.318, b0=0.622)
        solved = solve_abm(params, 0.0378 * (1.0 + 1e-9))
        assert 1e15 < solved.boundaries["h2"] < 1e17
        check_pasting(solved)


def test_low_boundary_exists_iff_rate_exceeds_benefit(params_low_benefit):
    at_benefit = solve_abm(params_low_benefit, params_low_benefit.delta)
    assert "h1" not in at_benefit.boundaries
    just_above = solve_abm(params_low_benefit, params_low_benefit.delta * (1.0 + 1e-6))
    assert just_above.boundaries["h1"] > 0.0


def test_case_split_is_continuous(params_low_benefit):
    delta = params_low_benefit.delta
    v_at = solve_abm(params_low_benefit, delta).value(1.0)
    v_above = solve_abm(params_low_benefit, delta * (1.0 + 1e-9)).value(1.0)
    assert abs(v_at - v_above) <= 1e-6


def test_option_value_nonnegative(params_low_benefit):
    h = np.geomspace(0.01, 50, 2_000)
    gap = solve_abm_no_prepay(params_low_benefit, M0).value(h) - solve_abm(params_low_benefit, M0).value(h)
    assert float(np.min(gap)) >= -1e-10


@pytest.mark.filterwarnings("error")
def test_boundary_past_the_float_range_is_held_forever():
    # p2 = 0.0289 and m just above r put h2 = B0 (...)^{1/p2} past float range:
    # h2 is at infinity, and the contract is the one held forever.
    params = ModelParams(r=0.00547037976873022, delta=0.02399551246756193,
                         sigma=0.5766188358088469, b0=0.6881895655214953)
    solved = solve_abm(params, 0.0054703797742006)
    assert solved.boundaries == {}
    assert solved.regions == solve_abm_no_prepay(params, 0.0054703797742006).regions
    # The rate equation at h2 = 1 needs no solve there.
    assert params.r < max_rate(params, ContractKind.ABM) < 1.0


@pytest.mark.filterwarnings("error")
def test_numpy_scalar_inputs_take_the_float_path():
    # The market above with every input a numpy scalar: the inputs become
    # floats, so the overflow is caught as with floats and nothing warns.
    wrap = np.float64
    params = ModelParams(r=wrap(0.00547037976873022), delta=wrap(0.02399551246756193),
                         sigma=wrap(0.5766188358088469), b0=wrap(0.6881895655214953))
    spec = ContractSpec(ContractKind.ABM, wrap(0.0054703797742006))
    assert {type(x) for x in (params.r, params.delta, params.sigma, params.b0, spec.m, spec.alpha)} == {float}
    assert solve_contract(params, spec).boundaries == {}
    assert params.r < max_rate(params, ContractKind.ABM) < 1.0


def test_pasting_root_past_the_float_range_leaves_only_the_low_boundary():
    # At delta < m <= m*, g stays negative in log y up to the largest float:
    # h2 is at infinity, and h1 is x's limit as y -> inf, the empty band's
    # B0 (p1 (1 - delta/m))^{1/(p1-1)}.
    params = ModelParams(r=0.007738000519237355, delta=0.004186262984373592,
                         sigma=0.7922822828923965, b0=0.7208389971830662)
    m = 0.007738000548392585
    solved = solve_abm(params, m)
    p1 = solved.exponents.p1
    assert solved.boundaries == {"h1": params.b0 * (p1 * (1.0 - params.delta / m)) ** (1.0 / (p1 - 1.0))}
    assert solved.boundaries["h1"] == pytest.approx(2.0767e-26, rel=1e-4)
    check_pasting(solved)
    cashflows = perpetual_cashflows(ContractSpec(ContractKind.ABM, m), params)
    for h in (1.0, 2.0):
        policy = threshold_policy_value(params, cashflows, (solved.boundaries["h1"], None), h)
        assert policy == pytest.approx(solved.value(h), rel=1e-12, abs=1e-12)


def test_negative_spread_rejected(params_low_benefit):
    with pytest.raises(NegativeSpread):
        solve_abm(params_low_benefit, R0)


class TestNoPrepay:
    def test_constants_negative_after_rederivation(self, params_low_benefit):
        # The pasting system at B0 fixes both constants; they must come out
        # strictly negative for the value to stay concave and dominated.
        solved = solve_abm_no_prepay(params_low_benefit, M0)
        low, high = solved.regions
        assert low.c_p1 < 0.0
        assert high.c_p2 < 0.0

    def test_pasting_at_balance_kink(self, params_low_benefit):
        solved = solve_abm_no_prepay(params_low_benefit, M0)
        check_pasting(solved, tol=1e-12)
        check_ode_residual(params_low_benefit, solved, cashflows_for(params_low_benefit))

    def test_limits(self, params_low_benefit):
        solved = solve_abm_no_prepay(params_low_benefit, M0)
        tail = M0 * B0 / params_low_benefit.r
        assert solved.value(1e12) == pytest.approx(tail, rel=1e-5)
        assert solved.value(1e12) < tail  # approached from below
        assert solved.derivative(1e-12) == pytest.approx(M0 / params_low_benefit.delta, rel=1e-10)
        assert solved.value(1e-12) == pytest.approx(0.0, abs=1e-11)
