"""Property tests: solver invariants over random admissible parameters.

Each draw builds a market and a contract rate, solves the contract, and
checks the structural facts that do not depend on any particular
parameter choice: boundary ordering, negative continuation constants,
value matching and smooth pasting, dominance by the payoff, and the
sign structure of the stopping set.  A fixed Latin hypercube over a much
wider box checks that every solve there either returns a pasted, finite
contract or raises ``UnsupportedRegime``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mortval import (
    ContractKind,
    ModelParams,
    UnsupportedRegime,
    ValuationError,
    aprm_regime,
    compute_exponents,
    frm_value_with_foreclosure,
    solve_abm,
    solve_aprm,
    solve_contract,
    solve_frm,
    threshold_policy_value,
)
from mortval.abm import _skeleton
from mortval.contracts import contract_spec, perpetual_cashflows
from mortval.model import Exponents
from mortval.solution import build

from conftest import check_ode_residual, check_pasting

markets = st.builds(
    ModelParams,
    r=st.floats(0.005, 0.08),
    delta=st.floats(0.01, 0.12),
    sigma=st.floats(0.05, 0.45),
    b0=st.floats(0.3, 1.0),
)

spread_factors = st.floats(0.05, 3.0)


def _rate(params: ModelParams, factor: float) -> float:
    # A rate between 5% and 300% above the risk-free rate, capped so the
    # draws stay in an economically meaningful range.
    return min(params.r * (1.0 + factor), 0.25)


def _solve_or_discard(solver, *args):
    # Extreme draws can push boundary exponent products past float range;
    # they raise cleanly and are out of scope here.  Any other error fails
    # the test.
    try:
        return solver(*args)
    except UnsupportedRegime:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(params=markets, factor=spread_factors)
def test_frm_structure(params, factor):
    m = _rate(params, factor)
    assume(m > params.r * 1.01)
    solved = _solve_or_discard(solve_frm, params, m)
    h1, h2 = solved.boundaries["h1"], solved.boundaries["h2"]
    assert 0.0 < h1 < params.b0 < h2
    cont = solved.regions[1]
    assert cont.c_p1 < 0.0 and cont.c_p2 < 0.0
    assert abs(solved.value(h1) - h1) <= 1e-7 * max(1.0, h1)
    assert abs(solved.value(h2) - params.b0) <= 1e-9
    check_pasting(solved, tol=1e-6)
    # dominated by the payoff on a small grid
    h = np.geomspace(h1 / 3.0, 3.0 * h2, 64)
    payoff = np.minimum(h, params.b0)
    assert float(np.max(solved.value(h) - payoff)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(params=markets, factor=spread_factors)
def test_abm_structure(params, factor):
    m = _rate(params, factor)
    assume(m > params.r * 1.01)
    solved = _solve_or_discard(solve_abm, params, m)
    has_low = "h1" in solved.boundaries
    assert has_low == (m > params.delta)
    assert solved.boundaries["h2"] > params.b0
    if has_low:
        assert 0.0 < solved.boundaries["h1"] < params.b0
    check_pasting(solved, tol=1e-6)
    h = np.geomspace(0.01, 3.0 * solved.boundaries["h2"], 64)
    payoff = np.minimum(h, params.b0)
    assert float(np.max(solved.value(h) - payoff)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(params=markets, factor=spread_factors, alpha=st.floats(0.005, 0.9))
def test_aprm_structure(params, factor, alpha):
    m = _rate(params, factor)
    assume(m > params.r * 1.01)
    assume(alpha < params.b0)  # high-rate draws need an admissible share
    solved = _solve_or_discard(solve_aprm, params, m, alpha)
    bounds = solved.boundaries

    if "h1" in bounds:
        assert m > params.delta
        assert 0.0 < bounds["h1"] < 1.0
    if "h2" in bounds:
        regime = aprm_regime(params, m)
        assert regime.alpha_star is None or alpha < regime.alpha_star
        assert 1.0 < bounds["h2"] < bounds["h3"]
        # the outer edge obeys its pasting formula
        ex = solved.exponents
        h3 = ex.p2 / (1.0 + ex.p2) * (m * params.b0 / alpha * (1.0 / params.r - 1.0 / m) + 1.0)
        assert abs(bounds["h3"] - h3) <= 1e-9 * h3
    check_pasting(solved, tol=1e-6)

    top = 2.0 * max(2.0, bounds.get("h3", 1.0))
    h = np.geomspace(0.01, top, 64)
    payoff = params.b0 * np.minimum(1.0, h) + alpha * np.maximum(h - 1.0, 0.0)
    assert float(np.max(solved.value(h) - payoff)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(params=markets)
def test_exponent_identity_everywhere(params):
    ex = compute_exponents(params)
    lhs = (1.0 + ex.p2) / ex.p2 * (ex.p1 - 1.0) / ex.p1
    assert abs(lhs - params.delta / params.r) <= 1e-10 * (params.delta / params.r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [solve_frm, solve_abm, lambda p, m: solve_aprm(p, m, 0.05)],
                         ids=["frm", "abm", "aprm"])
def test_numpy_rate_takes_the_float_path(solve):
    # A market whose ABM prepayment boundary exceeds float range, priced at a
    # numpy rate: each solver converts the rate to a float first, so an
    # overflow meets its guard instead of numpy's warning.
    params = ModelParams(r=0.00547037976873022, delta=0.02399551246756193,
                         sigma=0.5766188358088469, b0=0.6881895655214953)
    try:
        solve(params, np.float64(0.0054703797742006))
    except ValuationError:
        pass


def _wide_box_markets(n: int = 2000, seed: int = 4242):
    """A Latin hypercube over r .002-.1, delta .002-.12, sigma .03-.8,
    b0 .05-1 and m = r (1 + 10^u), u in (-10, 1.5): each coordinate takes one
    draw from each of n equal strata."""
    rng = np.random.default_rng(seed)
    lo = np.array([0.002, 0.002, 0.03, 0.05, -10.0])
    hi = np.array([0.1, 0.12, 0.8, 1.0, 1.5])
    strata = rng.permuted(np.tile(np.arange(n), (5, 1)), axis=1)
    r, delta, sigma, b0, u = lo[:, None] + (hi - lo)[:, None] * (strata + rng.random((5, n))) / n
    m = r * (1.0 + 10.0**u)
    return [(ModelParams(*market[:4]), float(market[4])) for market in zip(r, delta, sigma, b0, m)]


WIDE_SPECS = {
    "frm": (ContractKind.FRM, 0.0),
    "abm": (ContractKind.ABM, 0.0),
    **{f"aprm alpha={a}": (ContractKind.APRM, a) for a in (0.0, 0.05, 0.3)},
}


def test_wide_box_returns_pasted_finite_contracts_or_typed_errors():
    # Each solve returns a contract that pastes, solves the pricing ODE on its
    # continuation regions, is finite and lies at or below its payoff on a
    # wide price grid, or raises UnsupportedRegime, a closed
    # form past the float range; so does the foreclosure-adjusted value of
    # every FRM that returns.  Any other exception fails the test as raised.  The policy oracle, an independent LU in an
    # unanchored basis, values the solver's own boundaries at h = 1, below any
    # h3, as the builder does.
    grid = np.geomspace(1e-3, 1e3, 64)
    bad = []
    for params, m in _wide_box_markets():
        for name, (kind, alpha) in WIDE_SPECS.items():
            spec = contract_spec(kind, m, alpha)
            try:
                solved = solve_contract(params, spec)
            except UnsupportedRegime:
                continue
            cashflows = perpetual_cashflows(spec, params)
            try:
                check_pasting(solved)
                check_ode_residual(params, solved, cashflows, tol=1e-8)
            except AssertionError as exc:
                bad.append(f"{name} at {params}, m={m}: {exc}")
            values = solved.value(grid)
            if not np.isfinite(values).all():
                bad.append(f"{name} at {params}, m={m}: non-finite value")
            payoff = cashflows.payoff(grid)
            if not (values <= payoff + 1e-9 * np.maximum(1.0, payoff)).all():
                bad.append(f"{name} at {params}, m={m}: value above the payoff")
            bounds = solved.boundaries
            try:
                policy = threshold_policy_value(
                    params, cashflows, (bounds.get("h1"), bounds.get("h2")), 1.0
                )
            except UnsupportedRegime:
                policy = None
            value = solved.value(1.0)
            if policy is not None and not abs(policy - value) <= 1e-12 * max(1.0, abs(value)):
                bad.append(f"{name} at {params}, m={m}: policy value {policy} vs {value} at h = 1")
            if name == "frm":
                try:
                    adjusted = frm_value_with_foreclosure(params, m, 0.3, 1.0)
                except UnsupportedRegime:
                    continue
                if not np.isfinite(adjusted):
                    bad.append(f"foreclosure at {params}, m={m}: {adjusted}")
    assert not bad, f"{len(bad)} failures, the first: {bad[:3]}"


# Markets (r, delta, sigma, b0, m, alpha) outside the wide box where a power
# or quotient of the closed form leaves the float range: a power in the
# pasting equation of the APRM's band overflows (a), the band edge h3 is inf
# at a subnormal alpha (d), h1 = (p1 ratio)^{1/(p1-1)} underflows to 0 at
# p1 = 1.0001 (b) or to a subnormal 2.4e-320, whose pasting slope read inf,
# at p1 = 1.0015 (e), and at sigma = .0035 the APRM's band equation
# overflows in solve_aprm (c), though aprm_regime's alpha* there is finite.
FLOAT_FAULTS = {
    "a": (.007036334715247404, .0004067010124769873, .01474631115168455, .0702230305639583,
          .007036334715253152, 1.4190504629790758e-218),
    "b": (.00017383317852632613, .00015499837994353987, .5986994690369721, .6686905226137378,
          .00017383318004801626, 1.0555523810548128e-211),
    "c": (.053688558747390785, .03625645172592631, .0035244742506698153, .7759378470039378,
          .053688558747414315, 2.4518058400534542e-111),
    "d": (.00014508149355996167, .008313470053784867, 1.2529274902795045, .7965294853280752,
          .0036803543331040867, 1.929e-320),
    "e": (.000267, .000179, .487, .321, .000267 * (1.0 + 8e-15), 1.4e-266),
}


@pytest.mark.parametrize("market, solve", [
    ("a", "aprm"), ("b", "aprm"), ("c", "aprm"), ("d", "aprm"), ("e", "aprm"),
])
def test_float_range_faults_raise_unsupported_regime(market, solve):
    r, delta, sigma, b0, m, alpha = FLOAT_FAULTS[market]
    params = ModelParams(r, delta, sigma, b0)
    call = {"abm": lambda: solve_abm(params, m), "aprm": lambda: solve_aprm(params, m, alpha),
            "regime": lambda: aprm_regime(params, m)}[solve]
    with pytest.raises(UnsupportedRegime, match="float range"):
        call()


def test_alpha_star_where_the_band_edge_power_nears_the_float_range():
    # At market (c), p2 is about 2 809, so h3^{p2} overflows once h3 passes
    # about 1.29; alpha*'s bracket starts above that, where g(h3) is finite,
    # and the band switches off at alpha* as it does elsewhere.
    r, delta, sigma, b0, m, _ = FLOAT_FAULTS["c"]
    params = ModelParams(r, delta, sigma, b0)
    alpha_star = aprm_regime(params, m).alpha_star
    assert alpha_star == pytest.approx(4.0179e-11, rel=1e-4)
    assert "h2" in solve_aprm(params, m, alpha_star * (1.0 - 1e-9)).boundaries
    assert "h2" not in solve_aprm(params, m, alpha_star * (1.0 + 1e-9)).boundaries


def test_abm_pastes_where_its_pasting_equation_overflows_in_y():
    # At market (c), p2 is about 2 809, so y^{p2} overflows just above y = 1;
    # the ABM roots the y^{-p2}-scaled equation in log y and returns.
    r, delta, sigma, b0, m, _ = FLOAT_FAULTS["c"]
    solved = solve_abm(ModelParams(r, delta, sigma, b0), m)
    assert b0 < solved.boundaries["h2"]
    check_pasting(solved)


def test_build_refuses_a_subnormal_free_boundary():
    # Every solver pastes through the one builder, so each refuses the same
    # h1; at market (e) the ABM's h2 already lies past the float range, and
    # it raises.
    r, delta, sigma, b0, m, _ = FLOAT_FAULTS["e"]
    with pytest.raises(UnsupportedRegime, match="float range"):
        solve_abm(ModelParams(r, delta, sigma, b0), m)
    for h1 in (0.0, 5e-324, 2.3997e-320):
        bounds = {"h1": h1, "h2": 2.0 * b0}
        with pytest.raises(UnsupportedRegime, match="below the normal float range"):
            build(_skeleton(b0, 1.0, m, bounds), bounds, Exponents(1.0015, 0.0022), r, delta)
