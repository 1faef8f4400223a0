import math

import numpy as np
import pytest

from mortval import (
    ContractKind,
    Degenerate,
    InvalidParams,
    InvalidPhi,
    InvalidSpec,
    ModelParams,
    NegativeSpread,
    NoBracket,
    ValuationError,
    endogenous_spread,
    equivalent_foreclosure_cost,
    frm_value_with_foreclosure,
    max_rate,
    aprm_regime,
    solve_abm,
    solve_abm_no_prepay,
    solve_aprm,
    solve_aprm_no_prepay,
    solve_contract,
    solve_frm,
    spread_solver,
)
from mortval import foreclosure, rootfind
from mortval.contracts import contract_spec
from mortval.foreclosure import RATE_CAP
from mortval.aprm import RateRegime
from mortval.solution import Action

from conftest import B0, M0, R0


# A market whose FRM prepayment boundary h2 is about 1.2e39, so h2^{p1+p2}
# lies far past float range while the adjusted value is ordinary.
HUGE_H2_MARKET = (
    ModelParams(r=0.005567078517721982, delta=0.030933620527510877,
                sigma=0.07969619022556587, b0=0.4982838005442698),
    0.005567078618745934,
)


class TestAdjustedValue:
    @pytest.fixture
    def markets(self, params_low_benefit):
        return ((params_low_benefit, M0), HUGE_H2_MARKET)

    def test_zero_cost_recovers_frictionless_value(self, params_low_benefit):
        solved = solve_frm(params_low_benefit, M0)
        h = np.geomspace(0.1, 3.0, 50)
        adj = frm_value_with_foreclosure(params_low_benefit, M0, 0.0, h)
        assert np.allclose(adj, solved.value(h), rtol=0, atol=1e-14)

    def test_prepay_boundary_pins_balance(self, markets):
        for params, m in markets:
            h2 = solve_frm(params, m).boundaries["h2"]
            for phi in (0.0, 0.2, 0.6):
                assert frm_value_with_foreclosure(params, m, phi, h2) == pytest.approx(params.b0, abs=1e-12)

    def test_default_boundary_scales_house(self, markets):
        for params, m in markets:
            h1 = solve_frm(params, m).boundaries["h1"]
            for phi in (0.1, 0.35):
                assert frm_value_with_foreclosure(params, m, phi, h1) == pytest.approx((1 - phi) * h1, abs=1e-9)

    def test_affine_in_phi(self, markets):
        # three-point collinearity at fixed h
        h = 1.0
        for params, m in markets:
            v0 = frm_value_with_foreclosure(params, m, 0.0, h)
            v1 = frm_value_with_foreclosure(params, m, 0.3, h)
            v2 = frm_value_with_foreclosure(params, m, 0.6, h)
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
        spread = spread_solver(params_low_benefit, M0, ContractKind.ABM, 0.0)
        spreads = [spread(p) for p in (0.0, 0.15, 0.3, 0.45, 0.6)]
        assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(spreads, spreads[1:]))

    def test_reproduces_adjusted_value(self, params_low_benefit):
        spread = endogenous_spread(params_low_benefit, M0, 0.3, ContractKind.ABM, 0.0)
        m_a = M0 + spread / 1e4
        want = frm_value_with_foreclosure(params_low_benefit, M0, 0.3, 1.0)
        assert solve_abm(params_low_benefit, m_a).value(1.0) == pytest.approx(want, abs=1e-10)


    @pytest.mark.parametrize("h,phis", [(1.5, (0.0, 0.5, 0.99)), (0.3, (0.0,)), (0.5, (0.0,))])
    def test_flat_target_is_degenerate(self, params_low_benefit, h, phis):
        # At these prices the ABM at the bracket's top rate stops, and so does
        # the adjusted FRM with a value the ABM reaches over a range of rates.
        spread = spread_solver(params_low_benefit, M0, ContractKind.ABM, 0.0, h)
        for phi in phis:
            with pytest.raises(Degenerate):
                endogenous_spread(params_low_benefit, M0, phi, ContractKind.ABM, 0.0, h)
            with pytest.raises(Degenerate):
                spread(phi)

    # Wide-box markets (r, delta, sigma, b0, m_f) where the FRM prepays at
    # h = 1, so the adjusted FRM is worth B0 exactly, and the ABM at its top
    # rate, whose h2 lies a few ulp above 1, is worth B0 up to the rounding
    # of its evaluation.  Each once raised NoBracket or returned a spread by
    # that rounding.
    ROUNDING_AT_THE_TOP = (
        (0.09477954396299781, 0.11000583550204734, 0.5845806905146614, 0.16661675285714098, 0.3665117467071639),
        (0.03510290729072247, 0.10223760836742299, 0.4620258514666775, 0.33290586959570906, 0.15522568536940273),
        (0.06028804699642893, 0.1191228146877652, 0.31491765044751674, 0.05757430985634624, 0.118921121170039),
        (0.013088363043699619, 0.044900888246064696, 0.4831765670410282, 0.21607054201130232, 0.3100314602403421),
        (0.025416718605693674, 0.025682023489344966, 0.3981145745674176, 0.10394322524869744, 0.17994563801856703),
    )

    @pytest.mark.parametrize("market", ROUNDING_AT_THE_TOP)
    def test_value_at_the_top_up_to_rounding_is_the_top(self, market):
        *mkt, m_f = market
        params = ModelParams(*mkt)
        assert solve_frm(params, m_f).region_at(1.0).action is Action.PREPAY
        top = max_rate(params, ContractKind.ABM)
        try:
            spread = endogenous_spread(params, m_f, 0.3, ContractKind.ABM)
        except Degenerate:
            assert solve_abm(params, top).region_at(1.0).action is not Action.CONTINUE
        else:
            assert abs(m_f + spread / 1e4 - top) <= rootfind._REL_TOL * top


class TestSpreadSolver:
    @pytest.mark.parametrize("target,alpha", [(ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)])
    def test_same_bits_as_endogenous_spread(self, params_low_benefit, params_high_benefit, target, alpha):
        phis = np.linspace(0.0, 0.95, 20)
        for params in (params_low_benefit, params_high_benefit):
            spread = spread_solver(params, M0, target, alpha)
            got = [spread(phi).hex() for phi in phis]
            assert got == [endogenous_spread(params, M0, phi, target, alpha).hex() for phi in phis]

    def test_phi_free_work_runs_once(self, params_low_benefit, monkeypatch):
        calls = []
        original = foreclosure.max_rate

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(foreclosure, "max_rate", counted)
        spread = spread_solver(params_low_benefit, M0, ContractKind.ABM)
        assert calls == []
        for phi in (0.1, 0.2, 0.3, 0.4):
            spread(phi)
        assert calls == [(params_low_benefit, ContractKind.ABM, 0.0)]

    def test_errors_in_the_order_of_endogenous_spread(self, params_low_benefit):
        # Each case fixes the first fault of the one before it.  At h = 0.8
        # the ABM cannot fall as low as the FRM with phi = 0.99.
        p, frm, abm = params_low_benefit, ContractKind.FRM, ContractKind.ABM
        cases = [
            (0.5 * R0, 1.5, frm, NegativeSpread),
            (M0, 1.5, frm, InvalidPhi),
            (M0, 0.99, frm, InvalidSpec),
            (M0, 0.99, abm, NoBracket),
        ]
        for m_f, phi, target, error in cases:
            with pytest.raises(error):
                endogenous_spread(p, m_f, phi, target, 0.0, 0.8)
            with pytest.raises(error):
                spread_solver(p, m_f, target, 0.0, 0.8)(phi)

    def test_later_calls_raise_per_phi(self, params_low_benefit):
        p, abm = params_low_benefit, ContractKind.ABM
        spread = spread_solver(p, M0, abm, 0.0, 0.8)
        with pytest.raises(InvalidPhi):
            spread(-0.1)  # before the phi-free work has run
        want = endogenous_spread(p, M0, 0.5, abm, 0.0, 0.8)
        assert spread(0.5) == want
        with pytest.raises(NoBracket):
            spread(0.99)
        with pytest.raises(InvalidPhi):
            spread(1.0)
        assert spread(0.5) == want


def _counting_solves(monkeypatch):
    calls = []
    original = foreclosure.solve_contract

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(foreclosure, "solve_contract", counted)
    return calls


class TestNewtonSpread:
    def test_agrees_with_brent(self):
        # Brent on the same gap and bracket is the reference.  Each method
        # stops within _REL_TOL max(m, 1) of the root, so they agree to twice
        # that; where Brent returns, so must Newton.
        rng = np.random.default_rng(21)
        targets = ((ContractKind.ABM, 0.0), (ContractKind.APRM, 0.0),
                   (ContractKind.APRM, 0.05), (ContractKind.APRM, 0.3))
        compared = 0
        for i, draw in enumerate(rng.uniform((0.005, 0.005, 0.05, 0.1, 1.05, 0.0),
                                             (0.08, 0.1, 0.6, 1.0, 2.5, 0.95), (600, 6))):
            r, delta, sigma, b0, lift, phi = map(float, draw)
            params, m_f = ModelParams(r, delta, sigma, b0), r * lift
            target, alpha = targets[i % len(targets)]
            try:
                value, weight, lo, hi, v_lo, v_hi, _ = foreclosure._spread_bracket(
                    params, m_f, phi, target, alpha, 1.0)
            except ValuationError:
                continue
            want = float(value - phi * weight)
            if not v_lo < want < v_hi:
                continue

            def gap(m):
                return solve_contract(params, contract_spec(target, m, alpha)).value(1.0) - want

            try:
                reference = rootfind.find_root_bracketed(gap, lo, hi)
            except ValuationError:
                continue
            got = m_f + endogenous_spread(params, m_f, phi, target, alpha) / 1e4
            assert abs(got - reference) <= 2.0 * rootfind._REL_TOL * max(reference, 1.0) + 1e-16, (
                params, m_f, phi, target, alpha, got, reference)
            compared += 1
        assert compared >= 300

    @pytest.mark.parametrize("target,alpha", [(ContractKind.ABM, 0.0), (ContractKind.APRM, 0.0),
                                              (ContractKind.APRM, 0.05), (ContractKind.APRM, 0.3)])
    def test_few_solves_at_the_paper_market(self, params_low_benefit, monkeypatch, target, alpha):
        # The two solves at the bracket ends included; max_rate needs none.
        calls = _counting_solves(monkeypatch)
        for phi in np.linspace(0.05, 0.6, 12):
            calls.clear()
            endogenous_spread(params_low_benefit, M0, phi, target, alpha)
            assert len(calls) <= 8, (phi, len(calls))

    @pytest.mark.parametrize("target,alpha", [(ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)])
    def test_fallback_finishes_on_the_shrunken_bracket(self, params_low_benefit, monkeypatch, target, alpha):
        phi = 0.3
        expected = M0 + endogenous_spread(params_low_benefit, M0, phi, target, alpha) / 1e4
        _, _, lo, hi, _, _, _ = foreclosure._spread_bracket(params_low_benefit, M0, phi, target, alpha, 1.0)
        brackets = []
        find_root = foreclosure.find_root_bracketed

        def recorded(f, a, b):
            brackets.append((a, b))
            return find_root(f, a, b)

        monkeypatch.setattr(rootfind, "_NEWTON_STEPS", 1)
        monkeypatch.setattr(foreclosure, "find_root_bracketed", recorded)
        got = M0 + endogenous_spread(params_low_benefit, M0, phi, target, alpha) / 1e4
        # One step from m_f moves one end of the bracket onto m_f.
        (a, b), = brackets
        assert lo <= a < b <= hi and (a, b) != (lo, hi)
        assert M0 in (a, b)
        assert abs(got - expected) <= 2.0 * rootfind._REL_TOL * max(expected, 1.0)

    @pytest.mark.parametrize("rel", [1e-3, 1e-6, 1e-10, 1e-14, 1e-16])
    def test_near_flat_target_ends_in_the_bracket(self, params_low_benefit, rel):
        # The ABM's value at h = 1 flattens out as the rate nears max_rate,
        # where it stops there, so roots just below v_hi have slopes near 0.
        abm = ContractKind.ABM
        _, _, lo, hi, v_lo, v_hi, _ = foreclosure._spread_bracket(params_low_benefit, M0, 0.0, abm, 0.0, 1.0)
        want = v_hi - rel * (v_hi - v_lo)
        m = foreclosure._rate_root(params_low_benefit, abm, 0.0, 1.0, want, M0, lo, hi, v_lo - want, v_hi - want)
        assert lo <= m <= hi
        residual = solve_abm(params_low_benefit, m).value(1.0) - want
        assert abs(residual) <= max(rootfind._ABS_TOL, rootfind._REL_TOL * (v_hi - v_lo))


def _inside(lo, hi):
    """A price well inside (lo, hi)."""
    if lo == 0.0:
        return 0.5 * hi
    return 2.0 * lo if hi == math.inf else math.sqrt(lo * hi)


class TestRateSlope:
    KINDS = ((ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.0),
             (ContractKind.APRM, 0.05), (ContractKind.APRM, 0.3))

    def test_matches_central_difference(self):
        # One price inside every region of every solve, on markets whose
        # rates span every kind's layouts and every APRM regime.
        rng = np.random.default_rng(2002)
        layouts, regimes, stopped, outer, compared = set(), set(), 0, 0, 0
        for draw in rng.uniform((0.005, 0.005, 0.05, 0.3, 0.0), (0.08, 0.1, 0.45, 1.0, 1.0), (100, 5)):
            r, delta, sigma, b0, u = map(float, draw)
            params = ModelParams(r, delta, sigma, b0)
            m = r * 1.02 * (4.0 / 1.02) ** u
            regimes.add(aprm_regime(params, m).regime)
            for kind, alpha in self.KINDS:
                try:
                    solved, up, down = (solve_contract(params, contract_spec(kind, rate, alpha))
                                        for rate in (m, m * (1 + 1e-6), m * (1 - 1e-6)))
                except ValuationError:
                    continue
                layouts.add((kind, tuple(sorted(solved.boundaries))))
                for region in solved.regions:
                    h = _inside(region.lo, region.hi)
                    slope = foreclosure._rate_slope(solved, m, h)
                    if region.action is not Action.CONTINUE:
                        assert slope == 0.0
                        stopped += 1
                        continue
                    outer += region.lo == solved.boundaries.get("h3")
                    diff = (up.value(h) - down.value(h)) / (2e-6 * m)
                    if abs(diff) > 1e-2:
                        assert abs(slope - diff) <= 1e-5 * abs(diff), (params, m, kind, alpha, h)
                        compared += 1
        assert regimes == set(RateRegime)
        assert {
            (ContractKind.FRM, ("h1", "h2")), (ContractKind.ABM, ("h2",)), (ContractKind.ABM, ("h1", "h2")),
            (ContractKind.APRM, ()), (ContractKind.APRM, ("h1",)), (ContractKind.APRM, ("h2", "h3")),
            (ContractKind.APRM, ("h1", "h2", "h3")),
        } <= layouts
        assert stopped > 100 and outer > 50 and compared > 500

    def test_held_forever_is_value_over_rate(self, params_low_benefit):
        solves = [solve_abm_no_prepay(params_low_benefit, M0), solve_aprm_no_prepay(params_low_benefit, M0),
                  solve_aprm(params_low_benefit, M0, 0.3)]  # low rate, alpha above alpha*
        for solved in solves:
            assert solved.component_at(1.0) == (0.0, math.inf)
            for h in (1e-3, 0.5, 1.0, 2.0, 1e3):
                assert foreclosure._rate_slope(solved, M0, h) == solved.value(h) / M0


def _action_at_one(params, kind, m):
    return solve_contract(params, contract_spec(kind, m, 0.0)).region_at(1.0).action


class TestMaxRate:
    def test_published_values(self, params_low_benefit, params_high_benefit):
        assert max_rate(params_low_benefit, ContractKind.FRM) == pytest.approx(0.0575, abs=5e-4)
        assert max_rate(params_high_benefit, ContractKind.FRM) == pytest.approx(0.0691, abs=5e-4)

    @pytest.mark.parametrize("kind", [ContractKind.FRM, ContractKind.ABM])
    def test_just_above_stops_at_origination(self, params_low_benefit, kind):
        m_bar = max_rate(params_low_benefit, kind)
        for rel in (1e-4, 1e-9):
            assert _action_at_one(params_low_benefit, kind, m_bar * (1 + rel)) is not Action.CONTINUE
            assert _action_at_one(params_low_benefit, kind, m_bar * (1 - rel)) is Action.CONTINUE

    # (r, delta, sigma, b0) drawn with a fixed seed, one per way the ABM's
    # rate equation resolves, and a benefit rate above the cap.
    ABM_BRANCHES = {
        "explicit": (0.02600569719726195, 0.0488089374312795, 0.11694583091704303, 0.5703475165470393),
        "root": (0.035687630658065364, 0.011805756984443166, 0.10443167170019249, 0.9876595275700722),
        "clamp": (0.07685259986485808, 0.04979728824677996, 0.06958551074551056, 0.2175263000090063),
        "cap": (0.07042780920853496, 0.018881818405541657, 0.5684649094154308, 0.9499019263694459),
        "cap below delta": (0.02, 1.5, 0.2, 1.0),
    }

    @pytest.mark.parametrize("branch", ABM_BRANCHES)
    def test_balance_adjusted_branches_flip_at_the_rate(self, branch):
        params = ModelParams(*self.ABM_BRANCHES[branch])
        abm, m_bar = ContractKind.ABM, max_rate(params, ContractKind.ABM)
        lo = params.r * (1.0 + 1e-9)
        assert {
            "explicit": lo < m_bar <= params.delta,
            "root": max(lo, params.delta) < m_bar < RATE_CAP,
            "clamp": m_bar == lo and params.delta < lo,
            "cap": m_bar == RATE_CAP,
            "cap below delta": m_bar == RATE_CAP < params.delta,
        }[branch]
        if m_bar == RATE_CAP:
            assert _action_at_one(params, abm, RATE_CAP) is Action.CONTINUE
        else:
            assert _action_at_one(params, abm, m_bar * (1 + 1e-9)) is not Action.CONTINUE
        if branch != "clamp":  # below lo lies r, where no contract is priced
            assert _action_at_one(params, abm, m_bar * (1 - 1e-9)) is Action.CONTINUE

    def test_balance_adjusted_rate_solves_no_contract(self, params_low_benefit, params_high_benefit, monkeypatch):
        calls = []
        original = foreclosure.solve_contract

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(foreclosure, "solve_contract", counted)
        for params in (params_low_benefit, params_high_benefit):
            max_rate(params, ContractKind.ABM)
        assert calls == []

    def test_balance_adjusted_rate_agrees_with_bisection(self):
        # Bisection on the region of h = 1, the way max_rate finds the FRM's
        # rate, is the reference wherever every solve on its path returns.
        def bisected(params):
            def continues(m):
                return solve_abm(params, m).region_at(1.0).action is Action.CONTINUE

            lo = params.r * (1.0 + 1e-9)
            if not continues(lo):
                return lo
            hi = lo * 2.0
            while continues(hi):
                lo, hi = hi, hi * 2.0
                if hi >= RATE_CAP:
                    if continues(RATE_CAP):
                        return RATE_CAP
                    hi = RATE_CAP
                    break
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if continues(mid) else (lo, mid)
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(2020)
        compared = 0
        for draw in rng.uniform((0.005, 0.005, 0.05, 0.1), (0.08, 0.1, 0.6, 1.0), (120, 4)):
            params = ModelParams(*map(float, draw))
            got = max_rate(params, ContractKind.ABM)
            try:
                want = bisected(params)
            except ValuationError:
                continue
            assert abs(got - want) <= 1e-12 * want, (params, got, want)
            compared += 1
        assert compared >= 80

    def test_sharing_contract_reaches_cap(self, params_low_benefit):
        # The payment-adjusted contract keeps a continuation sliver around
        # origination at any rate (its prepay band sits strictly above 1),
        # so the cap is its rate.
        assert max_rate(params_low_benefit, ContractKind.APRM, 0.05) == RATE_CAP

    def test_payment_adjusted_rate_solves_no_contract(self, params_low_benefit, params_high_benefit, monkeypatch):
        calls = _counting_solves(monkeypatch)
        for params in (params_low_benefit, params_high_benefit):
            for alpha in (0.0, 0.05, 0.3):
                assert max_rate(params, ContractKind.APRM, alpha) == RATE_CAP
        assert calls == []
        with pytest.raises(InvalidSpec):
            max_rate(params_low_benefit, ContractKind.APRM, 1.0)

    def test_payment_adjusted_contract_continues_at_origination(self):
        # At the cap and below it, wherever the solve returns.
        rng = np.random.default_rng(2020)
        solved_at_cap = 0
        for draw in rng.uniform((0.005, 0.005, 0.05, 0.1, 0.0), (0.08, 0.1, 0.6, 1.0, 1.0), (100, 5)):
            r, delta, sigma, b0, u = map(float, draw)
            params = ModelParams(r, delta, sigma, b0)
            for alpha in (0.0, 0.05, 0.3):
                cap = max_rate(params, ContractKind.APRM, alpha)
                assert cap == RATE_CAP
                for m in (r * (1 + 1e-6), r + u * (cap - r), cap):
                    try:
                        solved = solve_aprm(params, m, alpha)
                    except ValuationError:
                        continue
                    assert solved.region_at(1.0).action is Action.CONTINUE, (params, m, alpha)
                    solved_at_cap += m == cap
        assert solved_at_cap >= 150


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
