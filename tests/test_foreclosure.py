import numpy as np
import pytest

from mortval import (
    ContractKind,
    Degenerate,
    InvalidParams,
    InvalidPhi,
    InvalidSpec,
    NoBracket,
    endogenous_spread,
    equivalent_foreclosure_cost,
    frm_value_with_foreclosure,
    max_rate,
    solve_abm,
    solve_frm,
)
from mortval.foreclosure import RATE_CAP

from conftest import B0, M0, R0


class TestAdjustedValue:
    def test_zero_cost_recovers_frictionless_value(self, params_low_benefit):
        solved = solve_frm(params_low_benefit, M0)
        h = np.geomspace(0.1, 3.0, 50)
        adj = frm_value_with_foreclosure(params_low_benefit, M0, 0.0, h)
        assert np.allclose(adj, solved.value(h), rtol=0, atol=1e-14)

    def test_prepay_boundary_pins_balance(self, params_low_benefit):
        h2 = solve_frm(params_low_benefit, M0).boundaries["h2"]
        for phi in (0.0, 0.2, 0.6):
            assert frm_value_with_foreclosure(params_low_benefit, M0, phi, h2) == pytest.approx(B0, abs=1e-12)

    def test_default_boundary_scales_house(self, params_low_benefit):
        h1 = solve_frm(params_low_benefit, M0).boundaries["h1"]
        for phi in (0.1, 0.35):
            assert frm_value_with_foreclosure(params_low_benefit, M0, phi, h1) == pytest.approx((1 - phi) * h1, abs=1e-9)

    def test_affine_in_phi(self, params_low_benefit):
        # three-point collinearity at fixed h
        h = 1.0
        v0 = frm_value_with_foreclosure(params_low_benefit, M0, 0.0, h)
        v1 = frm_value_with_foreclosure(params_low_benefit, M0, 0.3, h)
        v2 = frm_value_with_foreclosure(params_low_benefit, M0, 0.6, h)
        assert abs((v2 - v1) - (v1 - v0)) <= 1e-12

    def test_phi_validation(self, params_low_benefit):
        with pytest.raises(InvalidPhi):
            frm_value_with_foreclosure(params_low_benefit, M0, 1.0, 1.0)
        with pytest.raises(InvalidPhi):
            frm_value_with_foreclosure(params_low_benefit, M0, -0.1, 1.0)


class TestEquivalentCost:
    def test_deep_depression_limits(self, params_low_benefit):
        # As h -> 0 the contracts' values become linear and the equivalent
        # cost tends to 1 - m/delta (balance-adjusted) and
        # 1 - m B0/delta (payment-adjusted).
        phi_a = equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.ABM, 0.0, 1e-9).phi
        phi_p = equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.APRM, 0.05, 1e-9).phi
        assert phi_a == pytest.approx(1.0 - M0 / params_low_benefit.delta, abs=1e-6)
        assert phi_p == pytest.approx(1.0 - M0 * B0 / params_low_benefit.delta, abs=1e-6)

    def test_zero_gap_means_zero_cost(self, params_low_benefit):
        # Comparing the fixed-rate contract against itself through the
        # balance-adjusted machinery is impossible, so check the algebra
        # directly: if the target value equals the frictionless value the
        # implied cost vanishes.
        solved = solve_frm(params_low_benefit, M0)
        h = 0.8
        abm_value = solve_abm(params_low_benefit, M0).value(h)
        result = equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.ABM, 0.0, h)
        reconstructed = frm_value_with_foreclosure(params_low_benefit, M0, min(result.phi, 0.999), h)
        if result.in_range:
            assert reconstructed == pytest.approx(abm_value, abs=1e-12)

    def test_balance_adjusted_needs_less_friction(self, params_low_benefit):
        a = equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.ABM, 0.0, 0.8).phi
        p = equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.APRM, 0.05, 0.8).phi
        assert a < p

    def test_degenerate_beyond_prepay_boundary(self, params_low_benefit):
        h2 = solve_frm(params_low_benefit, M0).boundaries["h2"]
        with pytest.raises(Degenerate):
            equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.ABM, 0.0, h2 * 1.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_bad_price_raises_without_warning(self, params_low_benefit, h):
        with pytest.raises(InvalidParams):
            equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.ABM, 0.0, h)

    def test_out_of_range_flagged_not_clamped(self, params_high_benefit):
        # Just below the prepayment boundary the phi-coefficient vanishes
        # while the value gap does not, so no admissible cost equates the
        # contracts; the implied phi exceeds one and is flagged, not capped.
        h2 = solve_frm(params_high_benefit, M0).boundaries["h2"]
        result = equivalent_foreclosure_cost(params_high_benefit, M0, ContractKind.APRM, 0.05, 0.98 * h2)
        assert result.phi > 1.0
        assert not result.in_range


class TestEndogenousSpread:
    def test_published_rates_at_35pct(self, params_low_benefit, params_high_benefit):
        cases = [
            (params_low_benefit, ContractKind.ABM, 0.0336),
            (params_low_benefit, ContractKind.APRM, 0.0363),
            (params_high_benefit, ContractKind.ABM, 0.0431),
            (params_high_benefit, ContractKind.APRM, 0.047),
        ]
        for params, target, expected in cases:
            spread = endogenous_spread(params, M0, 0.35, target, 0.05)
            assert M0 + spread / 1e4 == pytest.approx(expected, abs=2e-4)

    def test_published_spreads_at_30pct(self, params_low_benefit, params_high_benefit):
        cases = [
            (params_low_benefit, ContractKind.ABM, 19.0),
            (params_low_benefit, ContractKind.APRM, 47.0),
            (params_high_benefit, ContractKind.ABM, 115.0),
            (params_high_benefit, ContractKind.APRM, 156.0),
        ]
        for params, target, expected in cases:
            assert endogenous_spread(params, M0, 0.30, target, 0.05) == pytest.approx(expected, abs=2.0)

    def test_nonnegative_without_friction(self, params_low_benefit):
        # Free foreclosure: the reduced payments of either adjusted
        # contract must be compensated by a nonnegative spread.
        assert endogenous_spread(params_low_benefit, M0, 0.0, ContractKind.ABM, 0.0) >= 0.0
        assert endogenous_spread(params_low_benefit, M0, 0.0, ContractKind.APRM, 0.05) >= 0.0

    def test_nonincreasing_in_friction(self, params_low_benefit):
        phis = [0.0, 0.15, 0.3, 0.45, 0.6]
        spreads = [endogenous_spread(params_low_benefit, M0, p, ContractKind.ABM, 0.0) for p in phis]
        assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(spreads, spreads[1:]))

    def test_reproduces_adjusted_value(self, params_low_benefit):
        spread = endogenous_spread(params_low_benefit, M0, 0.3, ContractKind.ABM, 0.0)
        m_a = M0 + spread / 1e4
        want = frm_value_with_foreclosure(params_low_benefit, M0, 0.3, 1.0)
        assert solve_abm(params_low_benefit, m_a).value(1.0) == pytest.approx(want, abs=1e-10)


class TestMaxRate:
    def test_published_values(self, params_low_benefit, params_high_benefit):
        assert max_rate(params_low_benefit, ContractKind.FRM) == pytest.approx(0.0575, abs=5e-4)
        assert max_rate(params_high_benefit, ContractKind.FRM) == pytest.approx(0.0691, abs=5e-4)

    @pytest.mark.parametrize("kind", [ContractKind.FRM, ContractKind.ABM])
    def test_just_above_stops_at_origination(self, params_low_benefit, kind):
        from mortval.options import solve_contract
        from mortval import ContractSpec
        from mortval.solution import Action

        m_bar = max_rate(params_low_benefit, kind)
        solved = solve_contract(params_low_benefit, ContractSpec(kind=kind, m=m_bar * (1 + 1e-4)))
        assert solved.region_at(1.0).action is not Action.CONTINUE
        solved = solve_contract(params_low_benefit, ContractSpec(kind=kind, m=m_bar * (1 - 1e-4)))
        assert solved.region_at(1.0).action is Action.CONTINUE

    def test_sharing_contract_reaches_cap(self, params_low_benefit):
        # The payment-adjusted contract keeps a continuation sliver around
        # origination at any rate (its prepay band sits strictly above 1),
        # so the search reports the cap.
        assert max_rate(params_low_benefit, ContractKind.APRM, 0.05) == RATE_CAP


class TestTargets:
    def test_fixed_rate_target_rejected(self, params_low_benefit):
        with pytest.raises(InvalidSpec):
            endogenous_spread(params_low_benefit, M0, 0.35, ContractKind.FRM)
        with pytest.raises(InvalidSpec):
            equivalent_foreclosure_cost(params_low_benefit, M0, ContractKind.FRM, 0.0, 1.0)

    def test_balance_adjusted_target_ignores_sharing(self, params_low_benefit):
        p, abm = params_low_benefit, ContractKind.ABM
        assert endogenous_spread(p, M0, 0.35, abm, 0.5) == endogenous_spread(p, M0, 0.35, abm, 0.0)
        assert (equivalent_foreclosure_cost(p, M0, abm, 0.5, 1.0)
                == equivalent_foreclosure_cost(p, M0, abm, 0.0, 1.0))
        assert max_rate(p, abm, 0.5) == max_rate(p, abm, 0.0)
