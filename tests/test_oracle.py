import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    GridSpec,
    InvalidHorizon,
    InvalidParams,
    InvalidThresholds,
    ModelParams,
    PerpetualCashflows,
    mc_cashflow_value,
    perpetual_cashflows,
    psor_value,
    solve_abm,
    solve_abm_no_prepay,
    solve_aprm,
    solve_frm,
    threshold_policy_value,
)
from mortval.cli import grid_window
from mortval.options import solve_contract

from conftest import B0, M0, R0


@pytest.fixture(scope="module")
def frm_cashflows(params_low_benefit):
    return perpetual_cashflows(ContractSpec(kind=ContractKind.FRM, m=M0), params_low_benefit)


def identity(x):
    return np.asarray(x, dtype=float)


class TestPsor:
    def test_frm_agreement_and_boundary_bracketing(self, params_low_benefit, frm_cashflows):
        solved = solve_frm(params_low_benefit, M0)
        grid = GridSpec(h_min=0.02, h_max=4.5, n_points=1001)
        result = psor_value(params_low_benefit, frm_cashflows, grid)
        window = (result.grid >= 0.1) & (result.grid <= 3.0)
        gap = np.max(np.abs(result.values[window] - solved.value(result.grid[window])))
        assert gap <= 1e-3

        # the inferred stopping set brackets both boundaries within a cell
        cell = result.grid[1] / result.grid[0]
        (default_lo, default_hi), (prepay_lo, _) = result.stop_intervals
        assert default_hi <= solved.boundaries["h1"] <= default_hi * cell
        assert prepay_lo / cell <= solved.boundaries["h2"] <= prepay_lo * cell

    def test_refinement_reduces_error(self, params_low_benefit, frm_cashflows):
        solved = solve_frm(params_low_benefit, M0)
        errors = {}
        for n in (1001, 4001):
            grid = GridSpec(h_min=0.02, h_max=4.5, n_points=n)
            result = psor_value(params_low_benefit, frm_cashflows, grid)
            window = (result.grid >= 0.1) & (result.grid <= 3.0)
            errors[n] = np.max(np.abs(result.values[window] - solved.value(result.grid[window])))
        assert errors[4001] <= errors[1001]

    def test_zero_coupon_obstacle_feasible(self, params_low_benefit, frm_cashflows):
        # A minimizing stopper with nothing to collect waits forever.
        cf = PerpetualCashflows(
            coupon=lambda h: np.zeros_like(np.asarray(h, dtype=float)),
            payoff=frm_cashflows.payoff,
            prepay_amount=frm_cashflows.prepay_amount,
            kinks=frm_cashflows.kinks,
        )
        grid = GridSpec(h_min=0.05, h_max=5.0, n_points=501)
        result = psor_value(params_low_benefit, cf, grid)
        payoff = np.asarray(cf.payoff(result.grid), dtype=float)
        assert np.all(result.values <= payoff + 1e-12)
        interior = result.values[1:-1]
        assert np.all(interior >= -1e-12)

    def test_frm_no_prepay_agreement(self, params_low_benefit, frm_cashflows):
        # The stop-only contract pays the house value on termination:
        # same coupon, payoff = h (prepay amount formally the house too).
        from mortval import solve_frm_no_prepay

        cf = PerpetualCashflows(coupon=frm_cashflows.coupon, payoff=identity,
                                prepay_amount=identity, kinks=())
        solved = solve_frm_no_prepay(params_low_benefit, M0)
        grid = GridSpec(h_min=0.02, h_max=30.0, n_points=2001)
        result = psor_value(params_low_benefit, cf, grid)
        window = (result.grid >= 0.1) & (result.grid <= 3.0)
        gap = np.max(np.abs(result.values[window] - solved.value(result.grid[window])))
        assert gap <= 1e-3

    def test_kink_lands_on_node(self, params_low_benefit, frm_cashflows):
        grid = GridSpec(h_min=0.02, h_max=4.5, n_points=501)
        result = psor_value(params_low_benefit, frm_cashflows, grid)
        assert np.min(np.abs(result.grid - B0)) < 1e-12 * B0

    @pytest.mark.parametrize("spec, h_max", [
        (ContractSpec(kind=ContractKind.FRM, m=M0), 4.5),
        (ContractSpec(kind=ContractKind.APRM, m=0.06, alpha=0.05), 171.0),
    ], ids=["frm low-benefit", "aprm high-rate"])
    def test_values_solve_the_discrete_lcp(self, params_low_benefit, spec, h_max):
        params = params_low_benefit
        cf = perpetual_cashflows(spec, params)
        grid = GridSpec(h_min=0.02, h_max=h_max, n_points=2001)
        result = psor_value(params, cf, grid)
        assert result.sweeps <= grid.n_points

        # rebuild the central-difference stencil of L_H - r from the nodes
        h, v = result.grid, result.values
        dx = np.log(h[1] / h[0])
        sig2 = params.sigma**2
        nu = params.r - params.delta - 0.5 * sig2
        lower = 0.5 * sig2 / dx**2 - 0.5 * nu / dx
        upper = 0.5 * sig2 / dx**2 + 0.5 * nu / dx
        diag = sig2 / dx**2 + params.r
        f = np.asarray(cf.payoff(h), dtype=float)[1:-1]
        q = np.asarray(cf.coupon(h), dtype=float)[1:-1]
        av = diag * v[1:-1] - lower * v[:-2] - upper * v[2:]

        # complementarity at every interior node, both slacks in value units
        stop_slack = f - v[1:-1]
        continue_slack = (q - av) / diag
        tol = 1e-10 * (1.0 + np.abs(f))
        assert np.all(stop_slack >= -tol)
        assert np.all(continue_slack >= -tol)
        assert np.all(np.abs(np.minimum(stop_slack, continue_slack)) <= tol)

    # Draws of the benchmark's grid workload on which projected SOR did not
    # converge within 20 000 sweeps (parameters rounded as printed).
    @pytest.mark.parametrize("r, delta, sigma, b0, spec", [
        (0.01551, 0.05548, 0.07529, 0.8946, ContractSpec(kind=ContractKind.ABM, m=0.04896)),
        (0.02398, 0.06747, 0.11123, 0.6864, ContractSpec(kind=ContractKind.ABM, m=0.05118)),
        (0.01281, 0.04118, 0.07716, 0.7055, ContractSpec(kind=ContractKind.APRM, m=0.02322, alpha=0.402)),
        (0.01945, 0.06464, 0.13385, 0.8198, ContractSpec(kind=ContractKind.APRM, m=0.03997, alpha=0.272)),
    ], ids=["abm-a", "abm-b", "aprm-a", "aprm-b"])
    def test_former_sor_failures_solve(self, r, delta, sigma, b0, spec):
        params = ModelParams(r=r, delta=delta, sigma=sigma, b0=b0)
        solved = solve_contract(params, spec)
        h_max, window_top = grid_window(solved)
        grid = GridSpec(h_min=2e-3, h_max=h_max, n_points=2001)
        result = psor_value(params, perpetual_cashflows(spec, params), grid)
        window = (result.grid >= 0.05) & (result.grid <= window_top)
        gap = np.max(np.abs(result.values[window] - solved.value(result.grid[window])))
        assert gap <= 1e-3

    def test_grid_validation(self):
        with pytest.raises(InvalidParams):
            GridSpec(h_min=0.0, h_max=1.0)
        with pytest.raises(InvalidParams):
            GridSpec(h_min=0.1, h_max=1.0, n_points=50)


class TestThresholdPolicy:
    def test_matches_solver_at_its_own_boundaries(self, params_low_benefit, frm_cashflows):
        solved = solve_frm(params_low_benefit, M0)
        value = threshold_policy_value(
            params_low_benefit, frm_cashflows,
            (solved.boundaries["h1"], solved.boundaries["h2"]), 1.0,
        )
        assert value == pytest.approx(solved.value(1.0), abs=1e-9)

    def test_abm_band_from_below(self, params_low_benefit):
        cf = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        solved = solve_abm(params_low_benefit, M0)
        value = threshold_policy_value(params_low_benefit, cf, (None, solved.boundaries["h2"]), 1.0)
        assert value == pytest.approx(solved.value(1.0), abs=1e-9)

    def test_aprm_band_from_below(self, params_low_benefit):
        cf = perpetual_cashflows(ContractSpec(kind=ContractKind.APRM, m=M0, alpha=0.05), params_low_benefit)
        solved = solve_aprm(params_low_benefit, M0, 0.05)
        value = threshold_policy_value(params_low_benefit, cf, (None, solved.boundaries["h2"]), 1.0)
        assert value == pytest.approx(solved.value(1.0), abs=1e-9)

    def test_never_stopping_recovers_held_forever_value(self, params_low_benefit):
        cf = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        nopp = solve_abm_no_prepay(params_low_benefit, M0)
        for h in (0.3, 1.0, 2.5):
            assert threshold_policy_value(params_low_benefit, cf, (None, None), h) == pytest.approx(
                nopp.value(h), rel=1e-12
            )

    def test_perturbed_thresholds_cost_more(self, params_low_benefit, frm_cashflows):
        solved = solve_frm(params_low_benefit, M0)
        h1, h2 = solved.boundaries["h1"], solved.boundaries["h2"]
        base = solved.value(1.0)
        for df1, df2 in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
            assert threshold_policy_value(params_low_benefit, frm_cashflows, (h1 * df1, h2 * df2), 1.0) >= base - 1e-9

    def test_outside_band_returns_payoff(self, params_low_benefit, frm_cashflows):
        assert threshold_policy_value(params_low_benefit, frm_cashflows, (0.5, 1.4), 0.3) == pytest.approx(0.3)
        assert threshold_policy_value(params_low_benefit, frm_cashflows, (0.5, 1.4), 2.0) == pytest.approx(B0)

    def test_validation(self, params_low_benefit, frm_cashflows):
        with pytest.raises(InvalidThresholds):
            threshold_policy_value(params_low_benefit, frm_cashflows, (1.4, 0.5), 1.0)
        with pytest.raises(InvalidThresholds):
            threshold_policy_value(params_low_benefit, frm_cashflows, (-1.0, 2.0), 1.0)


class TestMonteCarlo:
    def test_constant_coupon_discounts_to_annuity(self, params_low_benefit):
        coupon = 0.03
        cf = PerpetualCashflows(
            coupon=lambda h: np.full_like(np.asarray(h, dtype=float), coupon),
            payoff=identity, prepay_amount=identity, kinks=(),
        )
        result = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 10_000, 200.0, 99)
        # deterministic integrand: zero variance, gap equals the documented
        # truncation bound
        assert result.std_error <= 1e-12
        assert abs(result.estimate - coupon / R0) <= result.tail_bound + 3.0 * result.std_error + 1e-10

    def test_same_seed_same_bits(self, params_low_benefit, frm_cashflows):
        a = mc_cashflow_value(params_low_benefit, frm_cashflows, (0.5, 1.5), 1.0, 10_000, 200.0, 42)
        b = mc_cashflow_value(params_low_benefit, frm_cashflows, (0.5, 1.5), 1.0, 10_000, 200.0, 42)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_optimal_policy_not_below_solver_value(self, params_low_benefit, frm_cashflows):
        solved = solve_frm(params_low_benefit, M0)
        result = mc_cashflow_value(
            params_low_benefit, frm_cashflows,
            (solved.boundaries["h1"], solved.boundaries["h2"]), 1.0, 10_000, 200.0, 7,
        )
        assert result.estimate >= solved.value(1.0) - 3.0 * result.std_error

    def test_validation(self, params_low_benefit, frm_cashflows):
        with pytest.raises(InvalidParams):
            mc_cashflow_value(params_low_benefit, frm_cashflows, None, 1.0, 5_000, 200.0, 1)
        with pytest.raises(InvalidHorizon):
            mc_cashflow_value(params_low_benefit, frm_cashflows, None, 1.0, 10_000, 100.0, 1)
        with pytest.raises(InvalidThresholds):
            mc_cashflow_value(params_low_benefit, frm_cashflows, (2.0, 1.0), 1.0, 10_000, 200.0, 1)

    def test_started_outside_band_pays_off_immediately(self, params_low_benefit, frm_cashflows):
        result = mc_cashflow_value(params_low_benefit, frm_cashflows, (0.5, 1.5), 2.0, 10_000, 200.0, 5)
        assert result.estimate == pytest.approx(B0)
        assert result.std_error == 0.0
