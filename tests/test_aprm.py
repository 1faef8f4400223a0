import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    ModelParams,
    NegativeSpread,
    UnsupportedRegime,
    aprm_regime,
    perpetual_cashflows,
    solve_abm,
    solve_aprm,
    solve_aprm_no_prepay,
)
from mortval import aprm, rootfind
from mortval.aprm import RateRegime
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

M_MID = 0.047
M_HIGH = 0.06


def cashflows_for(params, m, alpha):
    return perpetual_cashflows(ContractSpec(kind=ContractKind.APRM, m=m, alpha=alpha), params)


class TestRegime:
    def test_low_rate_threshold(self, params_low_benefit):
        regime = aprm_regime(params_low_benefit, M0)
        assert regime.regime is RateRegime.LOW_RATE
        assert regime.m_star == pytest.approx(0.0544, abs=1e-4)
        assert regime.alpha_star == pytest.approx(0.0766, abs=0.001)

    def test_high_benefit_threshold(self, params_high_benefit):
        regime = aprm_regime(params_high_benefit, M0)
        assert regime.alpha_star == pytest.approx(0.014, abs=0.001)

    def test_mid_and_high_rates(self, params_low_benefit):
        assert aprm_regime(params_low_benefit, M_MID).regime is RateRegime.MID_RATE
        high = aprm_regime(params_low_benefit, M_HIGH)
        assert high.regime is RateRegime.HIGH_RATE
        assert high.alpha_star is None

    def test_threshold_is_a_root(self, params_low_benefit):
        regime = aprm_regime(params_low_benefit, M0)
        ex = solve_aprm_no_prepay(params_low_benefit, M0).exponents
        p2 = ex.p2
        beta = (ex.p1 - 1.0) / (p2 * (ex.p1 + p2)) * M0 * B0 / params_low_benefit.delta
        a = regime.alpha_star
        g = (
            (1.0 + p2) / p2 * (p2 * beta) ** (1.0 / (1.0 + p2)) * a ** (p2 / (1.0 + p2))
            - a
            - B0 * (M0 / R0 - 1.0)
        )
        assert abs(g) <= 1e-10

    def test_threshold_bounds(self, params_low_benefit):
        regime = aprm_regime(params_low_benefit, M0)
        p2 = solve_aprm_no_prepay(params_low_benefit, M0).exponents.p2
        assert 0.0 < regime.alpha_star < p2 * B0 * (M0 / R0 - 1.0)

    def test_solver_branch_agrees_with_the_threshold(self):
        # solve_aprm decides the band by the sign of the pasting equation at
        # h3, not by comparing alpha with the root alpha*.  Every solve
        # returns; draws at and around alpha* may land on the other side of
        # it, but only within the root's tolerance.
        rng = np.random.default_rng(21)
        compared = differ = 0
        for draw in rng.uniform((0.005, 0.005, 0.05, 0.1, 1.01), (0.08, 0.1, 0.6, 1.0, 3.0), (300, 5)):
            r, delta, sigma, b0, lift = map(float, draw)
            params, m = ModelParams(r, delta, sigma, b0), r * lift
            alpha_star = aprm_regime(params, m).alpha_star
            if alpha_star is None:
                continue
            near = alpha_star * (1.0 + rng.uniform(-1e-9, 1e-9))
            far = rng.uniform(0.0, 2.0 * alpha_star)
            for alpha in (far, near, np.nextafter(alpha_star, 0.0), alpha_star, np.nextafter(alpha_star, 1.0)):
                alpha = float(alpha)
                if not alpha < 1.0:
                    continue
                solved = solve_aprm(params, m, alpha)
                compared += 1
                if ("h2" not in solved.boundaries) != (alpha >= alpha_star):
                    differ += 1
                    assert abs(alpha - alpha_star) <= rootfind._REL_TOL * max(alpha_star, 1.0)
        assert compared >= 600

    def test_one_ulp_below_the_threshold_has_no_band(self):
        # The band equation is zero at h3 up to rounding here: the band is
        # empty, and the contract is the held-forever one.
        params = ModelParams(0.04041766210342577, 0.07732050218425135, 0.38351248736580196, 0.48717552634734973)
        assert solve_aprm(params, 0.05618647726001073, 0.0011668058680941974).boundaries == {}


class TestLowRate:
    def test_published_band(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M0, 0.05)
        assert solved.boundaries["h2"] == pytest.approx(2.67, abs=0.01)
        assert solved.boundaries["h3"] == pytest.approx(5.22, abs=0.01)
        assert [r.action for r in solved.regions] == [
            Action.CONTINUE, Action.CONTINUE, Action.PREPAY, Action.CONTINUE,
        ]

    def test_above_threshold_never_prepays(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M0, 0.08)
        assert solved.boundaries == {}
        assert all(r.action is Action.CONTINUE for r in solved.regions)

    def test_never_stopping_is_the_held_forever_contract(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M0, 0.08)
        assert solved.regions == solve_aprm_no_prepay(params_low_benefit, M0).regions

    def test_constants_negative(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M0, 0.05)
        low, mid, _, outer = solved.regions
        assert low.c_p1 < 0.0
        assert mid.c_p1 < 0.0 and mid.c_p2 < 0.0
        assert outer.c_p2 < 0.0

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.08])
    def test_invariants(self, params_low_benefit, alpha):
        solved = solve_aprm(params_low_benefit, M0, alpha)
        cf = cashflows_for(params_low_benefit, M0, alpha)
        check_pasting(solved)
        check_ode_residual(params_low_benefit, solved, cf)
        check_below_payoff(solved, cf, np.geomspace(0.01, 50, 10_000))
        check_monotone_concave(solved)
        stopping_values_match(solved, cf)

    def test_band_supersolution(self, params_low_benefit):
        # On [h2, h3]: m B0 - alpha delta h - r (B0 - alpha) >= 0.
        solved = solve_aprm(params_low_benefit, M0, 0.05)
        h = np.linspace(solved.boundaries["h2"], solved.boundaries["h3"], 64)
        slack = M0 * B0 - 0.05 * params_low_benefit.delta * h - R0 * (B0 - 0.05)
        assert float(np.min(slack)) >= 0.0


class TestMidRate:
    def test_published_boundaries(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M_MID, 0.05)
        assert solved.boundaries["h1"] == pytest.approx(0.65, abs=0.01)
        assert solved.boundaries["h2"] == pytest.approx(1.2, abs=0.01)
        assert [r.action for r in solved.regions] == [
            Action.PREPAY, Action.CONTINUE, Action.CONTINUE, Action.PREPAY, Action.CONTINUE,
        ]

    def test_large_sharing_single_boundary(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M_MID, 0.6)
        assert list(solved.boundaries) == ["h1"]
        assert solved.boundaries["h1"] == pytest.approx(0.75, abs=0.01)
        ex = solved.exponents
        closed = (ex.p1 * (1.0 - params_low_benefit.delta / M_MID)) ** (1.0 / (ex.p1 - 1.0))
        assert solved.boundaries["h1"] == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.6])
    def test_invariants(self, params_low_benefit, alpha):
        solved = solve_aprm(params_low_benefit, M_MID, alpha)
        cf = cashflows_for(params_low_benefit, M_MID, alpha)
        check_pasting(solved)
        check_ode_residual(params_low_benefit, solved, cf)
        check_below_payoff(solved, cf, np.geomspace(0.01, 80, 10_000))
        check_monotone_concave(solved, h_hi=80.0)
        stopping_values_match(solved, cf)

    def test_low_region_supersolution(self, params_low_benefit):
        # On (0, h1]: (m - delta) B0 h >= 0 reduces to m >= delta.
        assert M_MID >= params_low_benefit.delta


class TestHighRate:
    def test_published_boundaries(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M_HIGH, 0.05)
        assert solved.boundaries["h1"] == pytest.approx(0.87, abs=0.01)
        assert solved.boundaries["h2"] == pytest.approx(1.1, abs=0.01)
        # The outer band edge follows the explicit pasting formula
        # h3 = p2/(1+p2) ((m B0/alpha)(1/r - 1/m) + 1).
        ex = solved.exponents
        h3 = ex.p2 / (1.0 + ex.p2) * (M_HIGH * B0 / 0.05 * (1.0 / R0 - 1.0 / M_HIGH) + 1.0)
        assert solved.boundaries["h3"] == pytest.approx(h3, rel=1e-12)

    def test_invariants(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M_HIGH, 0.05)
        cf = cashflows_for(params_low_benefit, M_HIGH, 0.05)
        check_pasting(solved)
        check_ode_residual(params_low_benefit, solved, cf)
        check_below_payoff(solved, cf, np.geomspace(0.01, 100, 10_000))
        check_monotone_concave(solved, h_hi=100.0)
        stopping_values_match(solved, cf)

    def test_large_sharing_rejected(self, params_low_benefit):
        with pytest.raises(UnsupportedRegime):
            solve_aprm(params_low_benefit, M_HIGH, 0.95)


class TestZeroSharing:
    def test_reduces_to_unit_balance_adjustable_contract(self, params_low_benefit):
        # With no penalty the payoff and coupon are B0 times those of a
        # balance-capped contract on a unit loan, so values scale by B0.
        solved = solve_aprm(params_low_benefit, M0, 0.0)
        unit = solve_abm(ModelParams(r=R0, delta=params_low_benefit.delta, sigma=SIGMA0, b0=1.0), M0)
        h = np.geomspace(0.05, 10.0, 500)
        assert np.allclose(solved.value(h), B0 * unit.value(h), rtol=1e-12, atol=1e-14)

    def test_alpha_continuity_at_zero(self, params_low_benefit):
        v0 = solve_aprm(params_low_benefit, M0, 0.0).value(1.0)
        v_eps = solve_aprm(params_low_benefit, M0, 1e-7).value(1.0)
        assert abs(v0 - v_eps) <= 1e-5

    def test_tiny_sharing_pastes_and_meets_zero_sharing(self):
        # At alpha = 1e-12, h3 is 1.2e11: a shrink of the band's bracket
        # relative to h3 would start it above the root h2 = 1.106.
        params = ModelParams(r=0.0733, delta=0.0622, sigma=0.0757, b0=0.937)
        tiny, zero = solve_aprm(params, 0.0841, 1e-12), solve_aprm(params, 0.0841, 0.0)
        check_pasting(tiny)
        assert tiny.boundaries["h3"] > 1e11
        for key in ("h1", "h2"):
            assert tiny.boundaries[key] == pytest.approx(zero.boundaries[key], rel=1e-9)

    def test_mid_rate_zero_sharing(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M_MID, 0.0)
        assert "h3" not in solved.boundaries
        assert 0.0 < solved.boundaries["h1"] < 1.0 < solved.boundaries["h2"]
        check_pasting(solved)
        check_ode_residual(params_low_benefit, solved, cashflows_for(params_low_benefit, M_MID, 0.0))


class TestStructure:
    def test_no_low_boundary_at_or_below_benefit_rate(self, params_low_benefit):
        assert "h1" not in solve_aprm(params_low_benefit, M0, 0.05).boundaries
        assert "h1" not in solve_aprm(params_low_benefit, params_low_benefit.delta, 0.05).boundaries

    def test_low_boundary_appears_above_benefit_rate(self, params_low_benefit):
        m = params_low_benefit.delta * (1.0 + 1e-6)
        assert solve_aprm(params_low_benefit, m, 0.05).boundaries["h1"] > 0.0

    def test_regions_constant_above_threshold(self, params_low_benefit):
        a_star = aprm_regime(params_low_benefit, M0).alpha_star
        frozen = solve_aprm(params_low_benefit, M0, a_star)
        for alpha in (a_star, 0.1, 0.3, 0.8):
            assert solve_aprm(params_low_benefit, M0, alpha).regions == frozen.regions

    def test_band_ordering(self, params_low_benefit):
        solved = solve_aprm(params_low_benefit, M_HIGH, 0.05)
        b = solved.boundaries
        assert b["h1"] < 1.0 < b["h2"] < b["h3"]

    def test_sharing_insensitivity_of_value(self, params_low_benefit):
        v_low = solve_aprm(params_low_benefit, M0, 0.01).value(1.0)
        v_high = solve_aprm(params_low_benefit, M0, 0.05).value(1.0)
        assert abs(v_low - v_high) <= 1e-3

    def test_regime_continuity(self, params_low_benefit):
        delta = params_low_benefit.delta
        assert abs(
            solve_aprm(params_low_benefit, delta, 0.05).value(1.0)
            - solve_aprm(params_low_benefit, delta * (1.0 + 1e-9), 0.05).value(1.0)
        ) <= 1e-6
        m_star = aprm_regime(params_low_benefit, M0).m_star
        assert abs(
            solve_aprm(params_low_benefit, m_star * (1.0 - 1e-9), 0.05).value(1.0)
            - solve_aprm(params_low_benefit, m_star, 0.05).value(1.0)
        ) <= 1e-6

    def test_negative_spread_rejected(self, params_low_benefit):
        with pytest.raises(NegativeSpread):
            solve_aprm(params_low_benefit, R0, 0.05)


class TestNoPrepay:
    def test_printed_constants(self, params_low_benefit):
        solved = solve_aprm_no_prepay(params_low_benefit, M0)
        ex = solved.exponents
        load = M0 * B0 / params_low_benefit.delta
        low, high = solved.regions
        assert low.c_p1 == pytest.approx(-(1.0 + ex.p2) / (ex.p1 * (ex.p1 + ex.p2)) * load, rel=1e-14)
        assert high.c_p2 == pytest.approx(-(ex.p1 - 1.0) / (ex.p2 * (ex.p1 + ex.p2)) * load, rel=1e-14)
        assert low.c_p1 < 0.0 and high.c_p2 < 0.0

    def test_value_matching_at_par_forced_by_identity(self, params_low_benefit):
        solved = solve_aprm_no_prepay(params_low_benefit, M0)
        low, high = solved.regions
        lhs = low.c_p1 + M0 * B0 / params_low_benefit.delta
        rhs = high.c_p2 + M0 * B0 / R0
        assert abs(lhs - rhs) <= 1e-12

    def test_shape(self, params_low_benefit):
        solved = solve_aprm_no_prepay(params_low_benefit, M0)
        check_pasting(solved, tol=1e-12)
        check_monotone_concave(solved)
        assert solved.value(1e12) == pytest.approx(M0 * B0 / R0, rel=1e-5)


# one per regime: low band, low never-stop, mid band, mid frozen, high
@pytest.mark.parametrize("m, alpha", [(M0, 0.05), (M0, 0.08), (M_MID, 0.05), (M_MID, 0.6), (0.06, 0.05)])
def test_exponents_computed_once_per_solve(params_low_benefit, monkeypatch, m, alpha):
    calls = []

    def counted(params):
        calls.append(params)
        return compute(params)

    compute = aprm.compute_exponents
    monkeypatch.setattr(aprm, "compute_exponents", counted)
    solve_aprm(params_low_benefit, m, alpha)
    assert len(calls) == 1
