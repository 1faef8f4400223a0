import math

import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    InvalidParams,
    InvalidSpec,
    InvalidTime,
    ModelParams,
    NegativeSpread,
    abm_state,
    aprm_state,
    frm_schedule,
    no_prepay_cashflows,
    perpetual_cashflows,
)

from conftest import B0, M0, R0, SIGMA0

# 50-digit evaluation of the level-payment formulas at
# m=0.0326, b0=0.9, T=30, t=15.
BALANCE_AT_15 = 0.55788374665837026478
COUPON_30Y = 0.047023938601889127743


@pytest.fixture(scope="module")
def params():
    return ModelParams(r=R0, delta=0.045, sigma=SIGMA0, b0=B0)


def spec(kind, m=M0, alpha=0.0):
    return ContractSpec(kind=kind, m=m, alpha=alpha)


class TestPerpetualCashflows:
    def test_frm_table(self, params):
        cf = perpetual_cashflows(spec(ContractKind.FRM), params)
        assert float(cf.coupon(2.0)) == pytest.approx(M0 * B0)
        assert float(cf.payoff(2.0)) == pytest.approx(B0)
        assert float(cf.prepay_amount(0.3)) == pytest.approx(B0)
        assert float(cf.payoff(0.3)) == pytest.approx(0.3)

    def test_abm_table(self, params):
        cf = perpetual_cashflows(spec(ContractKind.ABM), params)
        assert float(cf.prepay_amount(0.5)) == pytest.approx(0.5)
        assert float(cf.payoff(0.5)) == pytest.approx(0.5)
        assert float(cf.coupon(0.5)) == pytest.approx(M0 * 0.5)
        assert float(cf.coupon(2.0)) == pytest.approx(M0 * B0)

    def test_aprm_table(self, params):
        cf = perpetual_cashflows(spec(ContractKind.APRM, alpha=0.05), params)
        assert float(cf.prepay_amount(1.5)) == pytest.approx(0.9 + 0.05 * 0.5)
        assert float(cf.payoff(1.5)) == pytest.approx(0.925)  # house worth 1.5 > 0.925
        assert float(cf.coupon(0.5)) == pytest.approx(M0 * B0 * 0.5)
        assert float(cf.coupon(3.0)) == pytest.approx(M0 * B0)

    def test_negative_spread_rejected(self, params):
        with pytest.raises(NegativeSpread):
            perpetual_cashflows(spec(ContractKind.FRM, m=0.01), params)

    def test_alpha_only_for_aprm(self):
        with pytest.raises(InvalidSpec):
            ContractSpec(kind=ContractKind.FRM, m=M0, alpha=0.05)
        with pytest.raises(InvalidSpec):
            ContractSpec(kind=ContractKind.APRM, m=M0, alpha=1.0)

    @pytest.mark.parametrize(
        "kind,alpha",
        [(ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)],
    )
    def test_payoff_dominated(self, params, kind, alpha):
        # payoff <= house value and payoff <= prepayment amount, sampled
        # on 1e4 log-spaced prices.
        cf = perpetual_cashflows(spec(kind, alpha=alpha), params)
        h = np.geomspace(1e-3, 1e3, 10_000)
        payoff = np.asarray(cf.payoff(h), dtype=float)
        assert np.all(payoff <= h + 1e-15)
        assert np.all(payoff <= np.asarray(cf.prepay_amount(h), dtype=float) + 1e-15)

    def test_adjusted_contracts_give_up_cashflows(self, params):
        h = np.geomspace(1e-3, 1e3, 10_000)
        frm = perpetual_cashflows(spec(ContractKind.FRM), params)
        abm = perpetual_cashflows(spec(ContractKind.ABM), params)
        aprm = perpetual_cashflows(spec(ContractKind.APRM, alpha=0.05), params)
        assert np.all(abm.prepay_amount(h) <= frm.prepay_amount(h) + 1e-15)
        low = h[h <= 1.0]
        assert np.all(aprm.coupon(low) <= frm.coupon(low) + 1e-15)


    @pytest.mark.parametrize(
        "kind,alpha",
        [(ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)],
    )
    def test_no_prepay_keeps_coupon_and_hands_over_house(self, params, kind, alpha):
        h = np.geomspace(1e-3, 1e3, 101)
        full = perpetual_cashflows(spec(kind, alpha=alpha), params)
        nopp = no_prepay_cashflows(spec(kind, alpha=alpha), params)
        assert np.array_equal(nopp.coupon(h), full.coupon(h))
        assert np.array_equal(nopp.payoff(h), h)
        assert np.array_equal(nopp.prepay_amount(h), h)
        assert nopp.kinks == (() if kind is ContractKind.FRM else full.kinks)


class TestFrmSchedule:
    def test_full_balance_at_origination(self):
        balance, _ = frm_schedule(M0, B0, 30.0, 0.0)
        assert balance == pytest.approx(B0, rel=1e-15)

    def test_zero_balance_at_maturity(self):
        balance, _ = frm_schedule(M0, B0, 30.0, 30.0)
        assert balance == pytest.approx(0.0, abs=1e-15)

    def test_midlife_against_extended_precision(self):
        balance, coupon = frm_schedule(M0, B0, 30.0, 15.0)
        assert balance == pytest.approx(BALANCE_AT_15, rel=1e-14)
        assert coupon == pytest.approx(COUPON_30Y, rel=1e-14)
        # the coupon also equals m * balance / (1 - e^{-m (T-t)})
        assert coupon == pytest.approx(M0 * balance / -np.expm1(-M0 * 15.0), rel=1e-12)

    def test_balance_decreasing_in_time(self):
        ts = np.linspace(0.0, 30.0, 121)
        balances = [frm_schedule(M0, B0, 30.0, float(t))[0] for t in ts]
        assert all(b2 < b1 + 1e-15 for b1, b2 in zip(balances, balances[1:]))

    def test_time_validation(self):
        with pytest.raises(InvalidTime):
            frm_schedule(M0, B0, 30.0, -0.1)
        with pytest.raises(InvalidTime):
            frm_schedule(M0, B0, 30.0, 31.0)
        with pytest.raises(InvalidSpec):
            frm_schedule(0.0, B0, 30.0, 1.0)


class TestAbmState:
    def test_matches_frm_when_index_high(self):
        assert abm_state(M0, B0, 30.0, 10.0, 5.0) == frm_schedule(M0, B0, 30.0, 10.0)

    def test_vanishing_index_limit(self):
        balance, coupon = abm_state(M0, B0, 30.0, 10.0, 1e-12)
        assert balance == pytest.approx(0.0, abs=1e-12)
        assert coupon == pytest.approx(0.0, abs=1e-12)

    def test_capped_state_composes_with_schedule(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        m, b0, T, t = (mpmath.mpf(x) for x in ("0.0326", "0.9", "30", "10"))
        nominal_balance = b0 * (1 - mpmath.e ** (-m * (T - t))) / (1 - mpmath.e ** (-m * T))
        nominal_coupon = m * b0 / (1 - mpmath.e ** (-m * T))
        balance, coupon = abm_state(M0, B0, 30.0, 10.0, 0.4)
        assert balance == 0.4
        assert coupon == pytest.approx(float(nominal_coupon * mpmath.mpf("0.4") / nominal_balance), rel=1e-13)


class TestAprmState:
    def test_high_index_matches_frm(self):
        balance, coupon, prepay = aprm_state(M0, B0, 30.0, 10.0, 1.7, 0.0)
        nominal = frm_schedule(M0, B0, 30.0, 10.0)
        assert (balance, coupon) == nominal
        assert prepay == balance

    def test_linear_scaling_below_par(self):
        nominal = frm_schedule(M0, B0, 30.0, 10.0)
        balance, coupon, _ = aprm_state(M0, B0, 30.0, 10.0, 0.5, 0.05)
        assert balance == pytest.approx(0.5 * nominal[0], rel=1e-15)
        assert coupon == pytest.approx(0.5 * nominal[1], rel=1e-15)

    def test_penalty_component(self):
        balance, _, prepay = aprm_state(M0, B0, 30.0, 10.0, 1.4, 0.05)
        assert prepay - balance == pytest.approx(0.05 * 0.4, rel=1e-12)


@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
def test_schedule_states_take_one_price_rule(h):
    # The same rule as every other price: positive and finite, else InvalidParams.
    with pytest.raises(InvalidParams):
        abm_state(M0, B0, 30.0, 10.0, h)
    with pytest.raises(InvalidParams):
        aprm_state(M0, B0, 30.0, 10.0, h, 0.1)
