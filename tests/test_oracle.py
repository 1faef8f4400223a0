import math
import threading

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
    UnsupportedRegime,
    ValuationError,
    mc_cashflow_value,
    no_prepay_cashflows,
    perpetual_cashflows,
    psor_value,
    solve_abm,
    solve_abm_no_prepay,
    solve_aprm,
    solve_frm,
    threshold_policy_value,
)
from mortval import oracle
from mortval.oracle import _level, _log_grid, _policy_value, oracle_triangle
from mortval.options import solve_contract, solve_no_prepay

from conftest import B0, M0, R0, SIGMA0


@pytest.fixture(scope="module")
def frm_cashflows(params_low_benefit):
    return perpetual_cashflows(ContractSpec(kind=ContractKind.FRM, m=M0), params_low_benefit)


def identity(x):
    return np.asarray(x, dtype=float)


def _lattice(n, g, shifts):
    """The points (k / n, k g / n mod 1) moved mod 1 by each shift, one row
    per shift, a coordinate at 0 taken as 2^-53."""
    k = np.arange(n)
    points = []
    for base, shift in zip((k / n, k * g % n / n), shifts):
        x = base + shift[:, None]
        points.append(np.maximum(np.where(x >= 1.0, x - 1.0, x), 2.0**-53))
    return points


def _stencil(params, dx):
    """lower, diag, upper of the central-difference stencil of L_H - r in log price."""
    sig2 = params.sigma**2
    nu = params.r - params.delta - 0.5 * sig2
    return 0.5 * sig2 / dx**2 - 0.5 * nu / dx, sig2 / dx**2 + params.r, 0.5 * sig2 / dx**2 + 0.5 * nu / dx


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
        (ContractSpec(kind=ContractKind.ABM, m=M0), 4.5),
        (ContractSpec(kind=ContractKind.APRM, m=M0, alpha=0.05), 20.0),
        (ContractSpec(kind=ContractKind.APRM, m=0.06, alpha=0.05), 171.0),
    ], ids=["frm low-benefit", "abm low-benefit", "aprm low-benefit", "aprm high-rate"])
    def test_values_solve_the_discrete_lcp(self, params_low_benefit, spec, h_max):
        params = params_low_benefit
        cf = perpetual_cashflows(spec, params)
        grid = GridSpec(h_min=0.02, h_max=h_max, n_points=2001)
        result = psor_value(params, cf, grid)
        assert result.sweeps <= grid.n_points

        # rebuild the central-difference stencil of L_H - r at the solver's spacing
        h, dx = _log_grid(grid.h_min, grid.h_max, grid.n_points, cf.kinks)
        assert np.array_equal(h, result.grid)
        v = result.values
        lower, diag, upper = _stencil(params, dx)
        f = np.asarray(cf.payoff(h), dtype=float)
        q = np.asarray(cf.coupon(h), dtype=float)
        av = np.empty_like(v)
        av[1:-1] = diag * v[1:-1] - lower * v[:-2] - upper * v[2:]
        # the far-field end rows V_0 - kb V_1 = q_0 and V_N - kt V_{N-1} = q_N
        level = _level(params, cf, h, dx)
        av[0], av[-1] = v[0] - level.kb * v[1], v[-1] - level.kt * v[-2]
        q[0], q[-1] = level.rhs[0], level.rhs[-1]

        # complementarity at every node, both slacks in value units
        stop_slack = f - v
        continue_slack = (q - av) / np.r_[1.0, np.full(len(h) - 2, diag), 1.0]
        tol = 1e-12 * (1.0 + np.abs(f))
        assert np.all(stop_slack >= -tol)
        assert np.all(continue_slack >= -tol)
        assert np.all(np.abs(np.minimum(stop_slack, continue_slack)) <= tol)
        assert np.array_equal(result.stopping, stop_slack == 0.0)

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
        triangle = oracle_triangle(params, spec, 1.0, 2001, 10_000, 1)
        assert all(v.ok for v in triangle.verdicts), triangle.verdicts

    @pytest.mark.filterwarnings("error")
    def test_grid_validation(self):
        with pytest.raises(InvalidParams):
            GridSpec(h_min=0.0, h_max=1.0)
        with pytest.raises(InvalidParams):
            GridSpec(h_min=0.1, h_max=1.0, n_points=50)
        # An infinite top would give an infinite spacing, not a grid.
        with pytest.raises(InvalidParams, match="window"):
            GridSpec(h_min=0.1, h_max=math.inf)

    @pytest.mark.parametrize("n_points", [2001, 4001])
    def test_tied_residuals_keep_their_action(self, n_points):
        # At m - delta = 1.1e-7 stopping and continuing tie to rounding below
        # h1 = 0.0137, where both residuals are 1e-16 to 2e-13.  Switching
        # on their sign flipped one node for ever (NotConverged); keeping the
        # action on a tie settles, with the window in the gate.
        params = ModelParams(r=0.036133221837073556, delta=0.07588341753957853,
                             sigma=0.18002924756289757, b0=0.842540773262249)
        spec = ContractSpec(kind=ContractKind.ABM, m=0.07588352500116996)
        result = psor_value(params, perpetual_cashflows(spec, params), GridSpec(2e-3, 3.0, n_points))
        window = (result.grid >= 0.05) & (result.grid <= 3.0)
        gap = np.max(np.abs(result.values[window] - solve_contract(params, spec).value(result.grid[window])))
        assert gap <= oracle.GRID_TOL


def _masks(n, rng):
    """Stopping sets: random at three densities, none, all, one-node runs,
    and continuation runs touching each end."""
    touching = np.zeros(n, dtype=bool)
    touching[n // 3 : 2 * n // 3] = True
    ends = np.ones(n, dtype=bool)
    ends[[0, -1]] = False
    yield from (rng.random(n) < p for p in (0.1, 0.5, 0.9))
    yield from (np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.arange(n) % 2 == 0, ~touching, touching, ends)


class TestPolicyEvaluation:
    # Each level's closed-form evaluation of a stopping set against a dense
    # solve of the same system: V = f on stopped rows, the stencil elsewhere,
    # and the far-field rows V_0 - kb V_1 = rhs_0 and V_N - kt V_{N-1} = rhs_N.
    @pytest.mark.parametrize("kind, h_min, h_max, n", [
        (ContractKind.FRM, 0.02, 4.5, 101),
        (ContractKind.ABM, 0.05, 3.0, 201),
        (ContractKind.APRM, 0.02, 12.0, 301),
        (ContractKind.ABM, B0 * 0.9995, 3.0, 151),    # the kink on node 1
        (ContractKind.APRM, 0.05, 1.0005, 151),       # the kink on node n - 2
        (ContractKind.ABM, 0.05, 0.8, 121),           # the kink above the top: the top piece has a slope
    ], ids=["frm", "abm", "aprm", "kink-node-1", "kink-node-n-2", "kink-above-top"])
    def test_matches_a_dense_solve(self, params_low_benefit, kind, h_min, h_max, n):
        params = params_low_benefit
        spec = ContractSpec(kind, M0, 0.05 if kind is ContractKind.APRM else 0.0)
        cf = perpetual_cashflows(spec, params)
        h, dx = _log_grid(h_min, h_max, n, cf.kinks)
        level = _level(params, cf, h, dx)
        lower, diag, upper = _stencil(params, dx)
        assert (level.lower, level.diag, level.upper) == (lower, diag, upper)
        assert np.array_equal(level.rhs[1:-1], cf.coupon(h[1:-1]))
        f = np.asarray(cf.payoff(h), dtype=float)
        stops = np.array(list(_masks(n, np.random.default_rng(n))))
        a = np.diag(np.full(n, diag)) - np.diag(np.full(n - 1, lower), -1) - np.diag(np.full(n - 1, upper), 1)
        a[0, :2] = 1.0, -level.kb
        a[-1, -2:] = -level.kt, 1.0
        systems = np.where(stops[:, :, None], np.eye(n), a)
        wants = np.linalg.solve(systems, np.where(stops, f, level.rhs)[:, :, None])[:, :, 0]
        for stop, want in zip(stops, wants):
            got = _policy_value(level, stop, f)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), stop.astype(int)

    def test_coupon_that_is_not_affine_between_kinks_is_refused(self, params_low_benefit, frm_cashflows):
        cf = PerpetualCashflows(
            coupon=lambda h: 0.03 * np.sqrt(np.asarray(h, dtype=float)),
            payoff=frm_cashflows.payoff, prepay_amount=frm_cashflows.prepay_amount, kinks=frm_cashflows.kinks,
        )
        with pytest.raises(InvalidParams, match="not affine"):
            psor_value(params_low_benefit, cf, GridSpec(h_min=0.02, h_max=4.5, n_points=501))


# One threshold that is not positive and finite, on either side: each must
# raise InvalidThresholds, never return NaN or the payoff, or warn.
BAD_THRESHOLDS = [(math.nan, None), (None, math.nan), (None, math.inf), (None, -1.0), (None, 0.0), (math.inf, None)]


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

    @pytest.mark.parametrize("m", [0.047, 0.06])
    def test_unbounded_side_stays_pinned_far_out(self, params_low_benefit, m):
        # Above an APRM band the policy stops only on a fall to h3, and the
        # h^{p1} coefficient is pinned to zero.  Left at its LU rounding, it
        # grows with h: a gap of 4e-8 at h = 50 and over 0.5 at h = 1e3.
        spec = ContractSpec(kind=ContractKind.APRM, m=m, alpha=0.357)
        solved = solve_contract(params_low_benefit, spec)
        cf = perpetual_cashflows(spec, params_low_benefit)
        for h in (5.0, 20.0, 50.0, 1e3):
            value = threshold_policy_value(params_low_benefit, cf, (solved.boundaries["h3"], None), h)
            assert abs(value - solved.value(h)) <= 1e-12, h

    def test_coupon_that_is_not_affine_between_kinks_is_refused(self, params_low_benefit, frm_cashflows):
        # The chord through two probes of 0.03 sqrt(h) would value the policy
        # (0.5, 1.4) at 0.79528 and holding forever at 1.03733, with no error.
        cf = PerpetualCashflows(
            coupon=lambda h: 0.03 * np.sqrt(np.asarray(h, dtype=float)),
            payoff=frm_cashflows.payoff, prepay_amount=frm_cashflows.prepay_amount, kinks=frm_cashflows.kinks,
        )
        for policy in ((0.5, 1.4), (None, None), (0.5, None), (None, 1.4)):
            with pytest.raises(InvalidParams, match="not affine"):
                threshold_policy_value(params_low_benefit, cf, policy, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_validation(self, params_low_benefit, frm_cashflows):
        with pytest.raises(InvalidThresholds):
            threshold_policy_value(params_low_benefit, frm_cashflows, (1.4, 0.5), 1.0)
        with pytest.raises(InvalidThresholds):
            threshold_policy_value(params_low_benefit, frm_cashflows, (-1.0, 2.0), 1.0)
        for policy in BAD_THRESHOLDS:
            with pytest.raises(InvalidThresholds):
                threshold_policy_value(params_low_benefit, frm_cashflows, policy, 1.0)

    def test_threshold_power_past_float_range_is_a_typed_error(self):
        # A wide-box FRM whose h2 is 1.6e12: the unanchored basis forms
        # h2^{p1}, which overflows; the oracle says so as a ValuationError.
        params = ModelParams(0.029238479507935594, 0.11572979639657417, 0.08182883232762994, 0.7883325899472953)
        spec = ContractSpec(kind=ContractKind.FRM, m=0.029240044220984713)
        bounds = solve_contract(params, spec).boundaries
        with pytest.raises(UnsupportedRegime, match="float range"):
            threshold_policy_value(params, perpetual_cashflows(spec, params), (bounds["h1"], bounds["h2"]), 1.0)


def test_float_fault_message_is_the_same_on_every_run():
    # Each call builds new cashflow closures at new addresses.  The message
    # names the function, the arguments (the cashflows by their type's name
    # only) and the fault.
    params = ModelParams(0.029238479507935594, 0.11572979639657417, 0.08182883232762994, 0.7883325899472953)
    spec = ContractSpec(kind=ContractKind.FRM, m=0.029240044220984713)
    bounds = solve_contract(params, spec).boundaries
    messages = []
    for _ in range(2):
        with pytest.raises(UnsupportedRegime, match="float range") as info:
            threshold_policy_value(params, perpetual_cashflows(spec, params), (bounds["h1"], bounds["h2"]), 1.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "0x" not in messages[0]
    assert messages[0].startswith("threshold_policy_value leaves the float range at (ModelParams(r=0.0292")
    assert f"PerpetualCashflows, ({bounds['h1']!r}, {bounds['h2']!r}), 1.0): OverflowError" in messages[0]


# The six Monte Carlo cases of the acceptance oracle triangle: the FRM stops
# at its default boundary, the others have none and are held forever.
MC_GATE_CASES = [
    ("frm default-only", 0.045, ContractSpec(kind=ContractKind.FRM, m=M0)),
    ("abm low-benefit", 0.045, ContractSpec(kind=ContractKind.ABM, m=M0)),
    ("abm tiny-benefit", 0.03, ContractSpec(kind=ContractKind.ABM, m=M0)),
    ("aprm m=0.0326", 0.045, ContractSpec(kind=ContractKind.APRM, m=M0, alpha=0.05)),
    ("aprm m=0.047", 0.045, ContractSpec(kind=ContractKind.APRM, m=0.047, alpha=0.05)),
    ("aprm m=0.06", 0.045, ContractSpec(kind=ContractKind.APRM, m=0.06, alpha=0.05)),
]


class TestMonteCarlo:
    def test_constant_coupon_discounts_to_annuity(self, params_low_benefit):
        coupon = 0.03
        cf = PerpetualCashflows(
            coupon=lambda h: np.full_like(np.asarray(h, dtype=float), coupon),
            payoff=identity, prepay_amount=identity, kinks=(),
        )
        result = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 10_000, 200.0, 99)
        # deterministic integrand: zero variance, and nothing truncated
        assert result.tail_bound == 0.0
        assert result.std_error <= 1e-12
        assert result.estimate == pytest.approx(coupon / R0, rel=1e-12, abs=0.0)

    def test_linear_coupon_integrates_to_h_over_delta(self, params_low_benefit):
        # E[H_t] = h e^{(r - delta) t}, so the integral of c(h) = h is h / delta:
        # a value no closed-form solver computes.
        h = 1.3
        cf = PerpetualCashflows(coupon=identity, payoff=identity, prepay_amount=identity, kinks=())
        result = mc_cashflow_value(params_low_benefit, cf, None, h, 20_000, 200.0, 17)
        assert result.std_error > 0.0
        assert abs(result.estimate - h / params_low_benefit.delta) <= 3.0 * result.std_error

    def test_same_seed_same_bits(self, params_low_benefit, frm_cashflows):
        a = mc_cashflow_value(params_low_benefit, frm_cashflows, (0.5, None), 1.0, 10_000, 200.0, 42)
        b = mc_cashflow_value(params_low_benefit, frm_cashflows, (0.5, None), 1.0, 10_000, 200.0, 42)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_same_seed_same_bits_held_forever(self, params_low_benefit):
        # The ABM coupon varies with the price, so the estimate depends on the draws.
        cf = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        a = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 20_000, 200.0, 42)
        b = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 20_000, 200.0, 42)
        c = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 20_000, 200.0, 43)
        assert a.estimate == b.estimate and a.std_error == b.std_error
        assert c.estimate != a.estimate

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("delta,spec", [c[1:] for c in MC_GATE_CASES],
                             ids=[c[0] for c in MC_GATE_CASES])
    def test_held_forever_gate_is_its_floor(self, delta, spec, seed):
        # At the acceptance path count the gate max(3 SE, 5e-4) is its fixed
        # floor, and the gap sits well inside it, for the FRM stopped at its
        # default boundary as for the contracts held forever.
        params = ModelParams(r=R0, delta=delta, sigma=SIGMA0, b0=B0)
        closed = solve_no_prepay(params, spec)
        policy = (closed.boundaries.get("h1"), None)
        cashflows = no_prepay_cashflows(spec, params)
        result = mc_cashflow_value(params, cashflows, policy, 1.0, 20_000, 200.0, seed)
        assert 3.0 * result.std_error < 5e-4
        assert abs(result.estimate - closed.value(1.0)) <= 0.7 * 5e-4

    @pytest.mark.parametrize("delta,spec", [c[1:] for c in MC_GATE_CASES[1:]],
                             ids=[c[0] for c in MC_GATE_CASES[1:]])
    def test_held_forever_standard_error_is_small(self, delta, spec):
        # Sampling only the time leaves the oracle's own error bar at most
        # 5e-5 at the acceptance path count, a tenth of the gate's floor, so
        # the gate cannot pass by widening it.
        params = ModelParams(r=R0, delta=delta, sigma=SIGMA0, b0=B0)
        result = mc_cashflow_value(params, no_prepay_cashflows(spec, params), None, 1.0, 20_000, 200.0, 1)
        assert 0.0 < result.std_error <= 5e-5
        assert result.n_paths == 79 * oracle._TIME_STRATA

    def test_held_forever_standard_error_is_calibrated(self, params_low_benefit):
        # Over 100 seeds the gaps to the closed form, in standard errors,
        # have mean near 0 and spread near 1: the replicates' spread neither
        # hides nor inflates the error.
        spec = ContractSpec(kind=ContractKind.ABM, m=M0)
        closed = solve_no_prepay(params_low_benefit, spec).value(1.0)
        cf = no_prepay_cashflows(spec, params_low_benefit)
        z = []
        for seed in range(100):
            result = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 20_000, 200.0, seed)
            z.append((result.estimate - closed) / result.std_error)
        assert abs(np.mean(z)) <= 0.3
        assert 0.7 <= np.std(z, ddof=1) <= 1.3

    @pytest.mark.parametrize("kind,m,alpha,h", [(ContractKind.ABM, M0, 0.0, B0), (ContractKind.APRM, M0, 0.05, 1.0)],
                             ids=["abm at b0", "aprm at 1"])
    def test_held_forever_priced_on_the_coupon_kink(self, params_low_benefit, kind, m, alpha, h):
        spec = ContractSpec(kind=kind, m=m, alpha=alpha)
        cf = no_prepay_cashflows(spec, params_low_benefit)
        assert h in cf.kinks
        result = mc_cashflow_value(params_low_benefit, cf, None, h, 10_000, 200.0, 2)
        assert math.isfinite(result.estimate) and math.isfinite(result.std_error)
        gap = abs(result.estimate - solve_no_prepay(params_low_benefit, spec).value(h))
        assert gap <= max(3.0 * result.std_error, 5e-4)

    @pytest.mark.filterwarnings("error")
    def test_held_forever_edge_times_stay_finite(self, params_low_benefit):
        # A time of 0 pays the coupon at h, also on the kink, where the
        # standardized log-price z reads 0 / 0.  A flat coupon at a price
        # whose mean E[H_t] overflows is the coupon itself, not inf times 0.
        abm = no_prepay_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        t = np.array([0.0, 1e-300, 1.0])
        at_kink = oracle._coupon_given_time(params_low_benefit, abm, B0, t)
        assert np.isfinite(at_kink).all()
        assert at_kink[0] == float(abm.coupon(B0))
        assert at_kink[1] == pytest.approx(float(abm.coupon(B0)), rel=1e-12)
        flat = PerpetualCashflows(coupon=lambda h: 0.03, payoff=identity, prepay_amount=identity)
        growing = ModelParams(r=0.05, delta=0.01, sigma=SIGMA0, b0=B0)
        far = oracle._coupon_given_time(growing, flat, 1e307, np.array([0.0, 100.0, 1e4]))
        assert far.tolist() == [0.03, 0.03, 0.03]

    def test_normal_cdf_matches_math_erfc(self):
        # Relative accuracy matters: the coupon sum multiplies a large mean
        # E[H_t] by a tiny Phi.  Below 1e-300 Phi only has to stay as small.
        # Phi reaches 6e-14, most of it the rounding of x x in e^{-x x}.
        z = np.linspace(-37.5, 8.3, 400_001)
        reference = 0.5 * np.frompyfunc(math.erfc, 1, 1)(z * -math.sqrt(0.5)).astype(float)
        phi = oracle._normal_cdf(z)
        resolved = reference >= 1e-300
        assert np.max(np.abs(phi[resolved] - reference[resolved]) / reference[resolved]) <= 1e-13
        assert np.all(phi[~resolved] <= 1e-300)
        z = np.linspace(-8.0, 8.0, 160_001)
        assert np.max(np.abs(oracle._normal_cdf(z) + oracle._normal_cdf(-z) - 1.0)) <= 1e-15
        assert oracle._normal_cdf(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_normal_cdf_edges_raise_nothing(self):
        z = np.array([[-np.inf, np.inf, np.nan], [-40.0, 40.0, -1e308]])
        with np.errstate(all="raise"):
            phi = oracle._normal_cdf(z)
        assert phi.shape == z.shape
        np.testing.assert_array_equal(phi, [[0.0, 1.0, np.nan], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("spec", [ContractSpec(kind=ContractKind.ABM, m=M0),
                                      ContractSpec(kind=ContractKind.APRM, m=M0, alpha=0.05)],
                             ids=["abm", "aprm"])
    def test_held_forever_agrees_with_an_erfc_reference(self, params_low_benefit, spec, monkeypatch):
        # The README's held-forever estimates with Phi taken from math.erfc
        # element by element: the same draws, so only Phi's error separates them.
        cf = no_prepay_cashflows(spec, params_low_benefit)
        fast = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 20_000, 200.0, 1)
        erfc = np.frompyfunc(math.erfc, 1, 1)
        monkeypatch.setattr(oracle, "_normal_cdf", lambda z: 0.5 * erfc(z * -math.sqrt(0.5)).astype(float))
        slow = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 20_000, 200.0, 1)
        assert fast.estimate == pytest.approx(slow.estimate, rel=1e-12, abs=0.0)
        assert fast.std_error == pytest.approx(slow.std_error, rel=1e-12, abs=0.0)

    def test_one_threshold_agrees_with_the_policy_oracle(self, params_low_benefit):
        # The FRM without prepayment stopped at its optimal default boundary
        # h1 and at a higher, suboptimal 0.8, and the ABM stopped on a rise to
        # 1.5, against the exact value of the same policy.  Judging a stop by
        # the end price alone, without the bridge term, misses the FRM by
        # over 500 SE.
        frm = no_prepay_cashflows(ContractSpec(kind=ContractKind.FRM, m=M0), params_low_benefit)
        abm = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        h1 = solve_no_prepay(params_low_benefit, ContractSpec(kind=ContractKind.FRM, m=M0)).boundaries["h1"]
        for cf, policy in ((frm, (h1, None)), (frm, (0.8, None)), (abm, (None, 1.5))):
            exact = threshold_policy_value(params_low_benefit, cf, policy, 1.0)
            for seed in (1, 2, 3):
                result = mc_cashflow_value(params_low_benefit, cf, policy, 1.0, 20_000, 200.0, seed)
                gap = abs(result.estimate - exact)
                assert gap <= 3.0 * result.std_error, (policy, seed, gap / result.std_error)

    @pytest.mark.parametrize("n", [10946, 6765, 1024, 904, 784, 700, 8, 1])
    def test_integral_matches_the_slab_loop_bit_for_bit(self, params_low_benefit, n):
        # The in-place passes, a few shifts at a time, take the same points
        # and the same operations per element as one (shifts, n) array per
        # step of the loop below, so the shift means agree to the bit; both
        # sides run on this CPU, whatever its SIMD kernels.  10 946 and 6 765
        # points are the lattices of 20 000 and 10 000 paths; the other
        # sizes, with g = round(n / golden ratio), leave other remainders in
        # numpy's pairwise sums.  The FRM's flat coupon takes the path
        # without e^y, the ABM's kinked one the other.
        p, h = params_low_benefit, 1.3
        g = max(1, round(n * (math.sqrt(5.0) - 1.0) / 2.0))
        shifts = np.random.default_rng(2024).random((2, oracle._SHIFTS))

        def slab_loop(cashflows, level, flat):
            mu, x = p.r - p.delta - 0.5 * p.sigma**2, math.log(h)
            ell = math.log(level)
            dist = x - ell
            a = -2.0 * dist / p.sigma**2
            stop = p.r * float(cashflows.payoff(level))
            u, v = _lattice(n, g, shifts)
            t = np.log(1.0 - u) / -p.r
            s = oracle._LOGISTIC_SCALE
            logistic = np.log(v / (1.0 - v))
            weight = np.exp(logistic * logistic * (-0.5 * s**2)) / (v * (1.0 - v)) * (s / math.sqrt(2.0 * math.pi))
            z = logistic * (a * p.sigma * s / np.sqrt(t))
            centre = a * dist / t + a * mu
            e = np.stack((centre + z, centre - z))
            if flat is None:
                c = cashflows.coupon(np.exp(e * (t / a) + ell))
            prob = np.exp(np.minimum(e, 0.0))
            if flat is None:
                pay = prob * (stop - c)
                return np.sum((c[0] + c[1] + (pay[0] + pay[1])) * weight, axis=1) / (2 * n * p.r)
            total = np.sum((prob[0] + prob[1]) * weight, axis=1) / (2 * n * p.r)
            return flat / p.r + (stop - flat) * total

        frm = ContractSpec(kind=ContractKind.FRM, m=M0)
        abm = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), p)
        h1 = solve_no_prepay(p, frm).boundaries["h1"]
        for cashflows, level in ((no_prepay_cashflows(frm, p), h1), (abm, 1.5)):
            flat = oracle._flat_coupon(cashflows)
            assert (flat is None) == (cashflows is abm)
            got = oracle._integral(p, cashflows, h, level, flat, n, g, shifts)
            want = slab_loop(cashflows, level, flat)
            assert got.tobytes() == want.tobytes(), level

    def test_integral_agrees_with_the_paper_form(self, params_low_benefit):
        # At the same points, the shift means of the paper's form of each
        # sample, c + p (stop - c) with p = exp(min(0, -2 (x - l)(y - l) / (sigma^2 t)))
        # and y = x + mu t +- sigma sqrt(t) Z, weighted by
        # w = s phi(Z) / (v (1 - v)) for Z = s log(v / (1 - v)), agree with
        # the leg's to rounding.  A flat coupon's mean is taken exactly, as
        # E[w] = 1, so only the stop's share of its sample is weighted.
        p, h, n, g = params_low_benefit, 1.3, 6765, 4181
        shifts = np.random.default_rng(11).random((2, oracle._SHIFTS))
        s = oracle._LOGISTIC_SCALE

        def paper_form(cashflows, level):
            mu, x = p.r - p.delta - 0.5 * p.sigma**2, math.log(h)
            ell, stop = math.log(level), p.r * float(cashflows.payoff(level))
            held = oracle._flat_coupon(cashflows) or 0.0
            u, v = _lattice(n, g, shifts)
            t = -np.log(1.0 - u) / p.r
            normal = s * np.log(v / (1.0 - v))
            weight = s * np.exp(-0.5 * normal**2) / math.sqrt(2.0 * math.pi) / (v * (1.0 - v))
            spread = normal * (p.sigma * np.sqrt(t))
            total = 0.0
            for y in (x + mu * t + spread, x + mu * t - spread):
                c = cashflows.coupon(np.exp(y))
                prob = np.exp(np.minimum(-2.0 * (x - ell) * (y - ell) / (p.sigma**2 * t), 0.0))
                total += np.sum(held + weight * (c - held + prob * (stop - c)), axis=1)
            return total / (2 * n * p.r)

        frm = ContractSpec(kind=ContractKind.FRM, m=M0)
        abm = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), p)
        h1 = solve_no_prepay(p, frm).boundaries["h1"]
        for cashflows, level in ((no_prepay_cashflows(frm, p), h1), (abm, 1.5)):
            got = oracle._integral(p, cashflows, h, level, oracle._flat_coupon(cashflows), n, g, shifts)
            want = paper_form(cashflows, level)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-14, level

    @pytest.mark.filterwarnings("error")
    def test_lattice_points_at_zero_stay_finite(self, params_low_benefit):
        # Shift (0, 0) puts the point k = 0 at u = v = 0, where t = 0 and
        # Z = -inf; (0, s) and (s, 0) put one coordinate there.  Each such
        # coordinate is taken as 2^-53, so every sample is finite, also
        # for a coupon that grows without bound.
        p = params_low_benefit
        shifts = np.random.default_rng(5).random((2, oracle._SHIFTS))
        shifts[:, 0] = 0.0
        shifts[0, 1] = shifts[1, 2] = 0.0
        frm = ContractSpec(kind=ContractKind.FRM, m=M0)
        h1 = solve_no_prepay(p, frm).boundaries["h1"]
        linear = PerpetualCashflows(coupon=lambda h: 0.04 * np.asarray(h, dtype=float),
                                    payoff=identity, prepay_amount=identity, kinks=())
        for cashflows, level in ((no_prepay_cashflows(frm, p), h1), (linear, 0.5), (linear, 1.5)):
            means = oracle._integral(p, cashflows, 1.0, level, oracle._flat_coupon(cashflows), 987, 610, shifts)
            assert np.isfinite(means).all(), level

    def test_logistic_weights_integrate_normal_moments(self):
        # On every shift of the 20 000-path lattice's v coordinates, the
        # weighted rule integrates 1, Z and Z^2 against N(0, 1).  Over 200
        # seeds of shifts the gaps reach 1.1e-9, 5.4e-9 and 3.3e-8.
        n, g = 10946, 6765
        shifts = np.random.default_rng(2024).random((2, oracle._SHIFTS))
        _, z = _lattice(n, g, shifts)
        w, scratch = np.empty_like(z), np.empty_like(z)
        oracle._logistic(z, w, scratch)
        z *= oracle._LOGISTIC_SCALE
        assert np.all(np.abs(np.mean(w, axis=1) - 1.0) <= 2e-9)
        assert np.all(np.abs(np.mean(w * z, axis=1)) <= 1e-8)
        assert np.all(np.abs(np.mean(w * z * z, axis=1) - 1.0) <= 6e-8)

    @pytest.mark.filterwarnings("error")
    def test_logistic_ends_are_finite(self):
        # The lattice's coordinates lie in [2^-53, 1 - 2^-53]; both ends give
        # a finite logistic, opposite, and the same tiny positive weight.
        z = np.array([2.0**-53, 1.0 - 2.0**-53, 0.5])
        w, scratch = np.empty(3), np.empty(3)
        oracle._logistic(z, w, scratch)
        assert np.isfinite(z).all() and np.isfinite(w).all()
        assert z[0] == -z[1] < -36.0 and z[2] == 0.0
        assert w[0] == w[1] and 0.0 < w[0] < 1e-80

    def test_stopped_standard_error_stays_small(self, params_low_benefit):
        # The integrands of the policy-agreement test above: no change may
        # pass that test by widening its own error bar.  Each SE is held to
        # 1.5 times the median, over 150 seeds at 20 000 paths, of Phi^{-1}
        # normals without weights: 6.68e-6, 4.91e-6 and 7.64e-6.  The
        # logistic-weighted leg's medians are 6.43e-6, 4.86e-6 and 8.63e-6.
        frm = no_prepay_cashflows(ContractSpec(kind=ContractKind.FRM, m=M0), params_low_benefit)
        abm = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        h1 = solve_no_prepay(params_low_benefit, ContractSpec(kind=ContractKind.FRM, m=M0)).boundaries["h1"]
        for cf, policy, median in ((frm, (h1, None), 6.68e-6), (frm, (0.8, None), 4.91e-6),
                                   (abm, (None, 1.5), 7.64e-6)):
            for seed in (1, 2, 3):
                result = mc_cashflow_value(params_low_benefit, cf, policy, 1.0, 20_000, 200.0, seed)
                assert result.std_error <= 1.5 * median, (policy, seed, result.std_error)

    def test_stopped_standard_error_is_calibrated(self, params_low_benefit):
        # Over 100 seeds the gaps of the README FRM without prepayment,
        # stopped at its default boundary, to the closed form, in standard
        # errors, have mean near 0 and spread near 1: the spread of the 32
        # shifts' means neither hides nor inflates the error.
        spec = ContractSpec(kind=ContractKind.FRM, m=M0)
        closed = solve_no_prepay(params_low_benefit, spec)
        cf, policy = no_prepay_cashflows(spec, params_low_benefit), (closed.boundaries["h1"], None)
        z = []
        for seed in range(100):
            result = mc_cashflow_value(params_low_benefit, cf, policy, 1.0, 10_000, 200.0, seed)
            z.append((result.estimate - closed.value(1.0)) / result.std_error)
        assert abs(np.mean(z)) <= 0.3
        assert 0.7 <= np.std(z, ddof=1) <= 1.3

    def test_coupon_that_is_not_affine_between_kinks_is_refused(self, params_low_benefit):
        # Both legs read the coupon's pieces between its kinks, as the grid
        # and the policy oracle do, so a coupon off its pieces is refused
        # held forever and stopped alike.
        cf = PerpetualCashflows(coupon=lambda h: 0.03 * np.sqrt(np.asarray(h, dtype=float)),
                                payoff=identity, prepay_amount=identity, kinks=())
        for policy in (None, (0.5, None), (None, 1.5)):
            with pytest.raises(InvalidParams, match="not affine"):
                mc_cashflow_value(params_low_benefit, cf, policy, 1.0, 10_000, 200.0, 1)

    @pytest.mark.filterwarnings("error")
    def test_validation(self, params_low_benefit, frm_cashflows):
        with pytest.raises(InvalidParams):
            mc_cashflow_value(params_low_benefit, frm_cashflows, None, 1.0, 5_000, 200.0, 1)
        with pytest.raises(InvalidHorizon):
            mc_cashflow_value(params_low_benefit, frm_cashflows, None, 1.0, 10_000, 100.0, 1)

    @pytest.mark.filterwarnings("error")
    def test_threshold_validation(self, params_low_benefit, frm_cashflows):
        for policy in ((2.0, 1.0), (0.5, 1.5), (-1.0, None), *BAD_THRESHOLDS):
            with pytest.raises(InvalidThresholds):
                mc_cashflow_value(params_low_benefit, frm_cashflows, policy, 1.0, 10_000, 200.0, 1)

    def test_started_outside_band_pays_off_immediately(self, params_low_benefit, frm_cashflows):
        for policy, h, payoff in (((None, 1.5), 2.0, B0), ((0.5, None), 0.3, 0.3)):
            result = mc_cashflow_value(params_low_benefit, frm_cashflows, policy, h, 10_000, 200.0, 5)
            assert result.estimate == pytest.approx(payoff)
            assert result.std_error == 0.0

    def test_band_never_left_agrees_with_the_integral(self, params_low_benefit):
        # With a threshold almost no path reaches and a zero payoff, the
        # policy estimate is the held-forever integral, less the coupons
        # after the rare crossings.  The held-forever run samples times only
        # and the stopped one paths, so the two are independent estimates
        # and the gap is judged by both standard errors.
        abm = perpetual_cashflows(ContractSpec(kind=ContractKind.ABM, m=M0), params_low_benefit)
        cf = PerpetualCashflows(
            coupon=abm.coupon, payoff=lambda h: np.zeros_like(np.asarray(h, dtype=float)),
            prepay_amount=identity, kinks=abm.kinks,
        )
        plain = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 10_000, 200.0, 11)
        banded = mc_cashflow_value(params_low_benefit, cf, (None, 1e9), 1.0, 10_000, 200.0, 11)
        assert plain.std_error > 0.0 and banded.std_error > 0.0
        tol = 3.0 * math.hypot(plain.std_error, banded.std_error)
        assert abs(banded.estimate - plain.estimate) <= tol

    def test_exit_bookkeeping_on_a_near_deterministic_path(self):
        # log H_t = mu t + sigma W_t with sigma = 1e-6 falls to the lower
        # threshold at tau = 6 years, so the value is the coupon integral up
        # to tau plus the payoff there, both discounted.  The lattice's times
        # still move with its random shifts, and the normals' weights vary
        # although the value hardly depends on Z, which leaves an SE of
        # 6e-6 to 1.2e-5; moving the exit by a week moves the value by 1.4e-4.
        params = ModelParams(r=0.02, delta=0.05, sigma=1e-6, b0=B0)
        mu = params.r - params.delta - 0.5 * params.sigma**2
        tau = 6.0
        lower = math.exp(mu * tau)
        cf = PerpetualCashflows(coupon=lambda h: 0.04 * np.asarray(h, dtype=float),
                                payoff=identity, prepay_amount=identity, kinks=())
        result = mc_cashflow_value(params, cf, (lower, None), 1.0, 10_000, 200.0, 3)

        def value(exit_time):
            growth = (mu - params.r) * exit_time
            return 0.04 * -math.expm1(growth) / (params.r - mu) + math.exp(growth)

        assert 3.0 * result.std_error < abs(value(tau + 1.0 / 52.0) - value(tau))
        assert abs(result.estimate - value(tau)) <= 3.0 * result.std_error


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
def test_path_oracles_take_one_price_rule(params_low_benefit, frm_cashflows, h):
    # A price that is not positive and finite is an invalid input to both
    # path oracles, whatever the policy, and never a value or a warning.
    for policy in ((0.5, None), (None, 1.5), (None, None)):
        with pytest.raises(InvalidParams):
            threshold_policy_value(params_low_benefit, frm_cashflows, policy, h)
        with pytest.raises(InvalidParams):
            mc_cashflow_value(params_low_benefit, frm_cashflows, policy, h, 10_000, 200.0, 1)


def test_scalar_cashflows_value_as_arrays_in_every_oracle(params_low_benefit):
    # A cashflow may return a scalar for an array of prices.  A coupon of 0.03
    # with a payoff of 100, never worth stopping for, is the annuity 0.03 / r
    # in all three oracles.
    cf = PerpetualCashflows(coupon=lambda h: 0.03, payoff=lambda h: 100.0, prepay_amount=lambda h: 100.0)
    annuity = 0.03 / R0
    grid = psor_value(params_low_benefit, cf, GridSpec(h_min=0.02, h_max=4.5, n_points=501))
    assert not grid.stopping.any()
    assert np.max(np.abs(grid.values - annuity)) <= 1e-9 * annuity
    assert threshold_policy_value(params_low_benefit, cf, (None, None), 1.0) == pytest.approx(annuity, rel=1e-12)
    mc = mc_cashflow_value(params_low_benefit, cf, None, 1.0, 10_000, 200.0, 1)
    assert mc.estimate == pytest.approx(annuity, rel=1e-12) and mc.std_error <= 1e-12
    # A result that does not broadcast to the prices is refused, with a typed error.
    bad = PerpetualCashflows(coupon=lambda h: np.zeros(3), payoff=cf.payoff, prepay_amount=cf.payoff)
    with pytest.raises(InvalidParams, match="shape"):
        psor_value(params_low_benefit, bad, GridSpec(h_min=0.02, h_max=4.5, n_points=501))
    with pytest.raises(InvalidParams, match="shape"):
        mc_cashflow_value(params_low_benefit, bad, None, 1.0, 10_000, 200.0, 1)


def test_threshold_coupon_error_leaves_no_thread_behind(params_low_benefit, frm_cashflows):
    # The stopped leg runs on the calling thread: an estimate that raises,
    # here on a coupon of the wrong shape, and one that returns leave the
    # thread count as it was.
    bad = PerpetualCashflows(coupon=lambda h: np.zeros(3), payoff=lambda h: 100.0, prepay_amount=lambda h: 100.0)
    before = threading.active_count()
    with pytest.raises(InvalidParams, match="shape"):
        mc_cashflow_value(params_low_benefit, bad, (0.5, None), 1.0, 10_000, 200.0, 1)
    assert threading.active_count() == before
    mc_cashflow_value(params_low_benefit, frm_cashflows, (0.5, None), 1.0, 10_000, 200.0, 1)
    assert threading.active_count() == before


def _grid_box_design(n: int = 300, seed: int = 909):
    """A Latin hypercube over r .005-.08, delta .005-.1, sigma .05-.45,
    b0 .3-1, m from 1.05 r to 3 r and alpha 0-.6, the kinds in rotation."""
    rng = np.random.default_rng(seed)
    lo = np.array([0.005, 0.005, 0.05, 0.3, 1.05, 0.0])
    hi = np.array([0.08, 0.1, 0.45, 1.0, 3.0, 0.6])
    strata = rng.permuted(np.tile(np.arange(n), (6, 1)), axis=1)
    draws = lo[:, None] + (hi - lo)[:, None] * (strata + rng.random((6, n))) / n
    kinds = list(ContractKind)
    for i, (r, delta, sigma, b0, factor, alpha) in enumerate(draws.T):
        kind = kinds[i % 3]
        spec = ContractSpec(kind, r * factor, alpha if kind is ContractKind.APRM else 0.0)
        yield ModelParams(r, delta, sigma, b0), spec


def test_grid_and_policy_oracles_over_a_box():
    # Each draw raises a ValuationError or passes the grid and policy legs of
    # the oracle triangle on the triangle's span: the grid within 1e-3 of the
    # closed form on [0.05, 3], the policy oracle within 1e-8 at h = 1, and
    # each boundary inside the span within a cell of an edge of the grid's
    # stopping set.
    bad = []
    for params, spec in _grid_box_design():
        try:
            solved = solve_contract(params, spec)
            cf = perpetual_cashflows(spec, params)
            grid = psor_value(params, cf, GridSpec(2e-3, 2.0 * max([3.0, *solved.boundaries.values()])))
        except ValuationError:
            continue
        h = grid.grid
        on = (h >= 0.05) & (h <= 3.0)
        gap = np.max(np.abs(grid.values[on] - solved.value(h[on])))
        if not gap <= 1e-3:
            bad.append(f"{spec} at {params}: grid gap {gap:.2e}")
        bounds = solved.boundaries
        policy = threshold_policy_value(params, cf, (bounds.get("h1"), bounds.get("h2")), 1.0)
        if not abs(policy - solved.value(1.0)) <= 1e-8:
            bad.append(f"{spec} at {params}: policy gap {abs(policy - solved.value(1.0)):.2e}")
        cell = math.log(h[1] / h[0])
        edges = np.log([edge for interval in grid.stop_intervals for edge in interval])
        for name, b in bounds.items():
            if h[0] < b < h[-1] and not np.min(np.abs(edges - math.log(b)), initial=math.inf) <= cell:
                bad.append(f"{spec} at {params}: {name} = {b:.4g} not within a cell of {grid.stop_intervals}")
    assert not bad, f"{len(bad)} failures, the first: {bad[:3]}"
