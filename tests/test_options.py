import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    InvalidParams,
    default_option_value,
    perpetual_cashflows,
    prepay_option_value,
    solve_frm,
)
from mortval.options import solve_contract

from conftest import B0, M0


def spec(kind, alpha=0.0, m=M0):
    return ContractSpec(kind=kind, m=m, alpha=alpha)


class TestDefaultOption:
    def test_frm_zero_in_prepay_region(self, params_low_benefit):
        solved = solve_frm(params_low_benefit, M0)
        h = solved.boundaries["h2"] * 1.5
        assert default_option_value(params_low_benefit, spec(ContractKind.FRM), h) == pytest.approx(0.0, abs=1e-12)

    def test_frm_positive_at_default_boundary(self, params_low_benefit):
        solved = solve_frm(params_low_benefit, M0)
        h1 = solved.boundaries["h1"]
        assert default_option_value(params_low_benefit, spec(ContractKind.FRM), h1) == pytest.approx(B0 - h1, abs=1e-9)
        assert B0 - h1 > 0.0

    @pytest.mark.parametrize("kind,alpha", [(ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)])
    def test_adjusted_contracts_have_none(self, params_low_benefit, kind, alpha):
        h = np.geomspace(0.01, 50, 100)
        assert np.all(default_option_value(params_low_benefit, spec(kind, alpha), h) == 0.0)

    @pytest.mark.parametrize("h", [-1.0, [1.0, np.nan]], ids=["scalar", "array"])
    @pytest.mark.parametrize("kind,alpha", [(ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)])
    def test_bad_price_raises_for_every_kind(self, params_low_benefit, kind, alpha, h):
        with pytest.raises(InvalidParams):
            default_option_value(params_low_benefit, spec(kind, alpha), h)

    @pytest.mark.parametrize("kind,alpha", [(ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)])
    def test_termination_payment_equals_prepay_amount(self, params_low_benefit, kind, alpha):
        # The no-default variant replaces the termination payment
        # min(h, prepay) by prepay; for the adjusted contracts these
        # coincide in every state, so the two stopping problems are one
        # and the same and the option is exactly zero.
        cf = perpetual_cashflows(spec(kind, alpha), params_low_benefit)
        h = np.geomspace(1e-3, 1e3, 10_000)
        gap = np.abs(np.asarray(cf.payoff(h)) - np.asarray(cf.prepay_amount(h)))
        assert float(np.max(gap)) <= 1e-9


class TestPrepayOption:
    @pytest.mark.parametrize(
        "kind,alpha",
        [(ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)],
    )
    def test_nonnegative_everywhere(self, params_low_benefit, kind, alpha):
        h = np.geomspace(0.01, 50, 500)
        pp = prepay_option_value(params_low_benefit, spec(kind, alpha), h)
        assert float(np.min(pp)) >= -1e-10

    def test_frm_default_region(self, params_low_benefit):
        # Where the full contract defaults, its value is h; the no-prepay
        # variant stops at a (lower) boundary so its value is at least h.
        solved = solve_frm(params_low_benefit, M0)
        h = solved.boundaries["h1"] * 0.7
        pp = prepay_option_value(params_low_benefit, spec(ContractKind.FRM), h)
        assert pp >= -1e-12

    def test_relative_values_small_for_high_benefit(self, params_high_benefit):
        # With a high benefit rate the borrower stays put and prepayment
        # is nearly worthless for all three contracts.
        for kind, alpha in ((ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)):
            s = spec(kind, alpha)
            rel = 100.0 * prepay_option_value(params_high_benefit, s, 1.0) / solve_contract(params_high_benefit, s).value(1.0)
            assert rel < 0.5

    def test_adjusted_contracts_cheaper_to_prepay(self, params_low_benefit):
        # At the common baseline rate the balance- and payment-adjusted
        # contracts carry smaller relative prepayment options than the
        # fixed-rate contract.
        rel = {}
        for kind, alpha in ((ContractKind.FRM, 0.0), (ContractKind.ABM, 0.0), (ContractKind.APRM, 0.05)):
            s = spec(kind, alpha)
            rel[kind] = prepay_option_value(params_low_benefit, s, 1.0) / solve_contract(params_low_benefit, s).value(1.0)
        assert rel[ContractKind.ABM] < rel[ContractKind.FRM]
        assert rel[ContractKind.APRM] < rel[ContractKind.FRM]
