"""Property tests: solver invariants over random admissible parameters.

Each draw builds a market and a contract rate, solves the contract, and
checks the structural facts that do not depend on any particular
parameter choice: boundary ordering, negative continuation constants,
value matching and smooth pasting, dominance by the payoff, and the
sign structure of the stopping set.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mortval import (
    ModelParams,
    NoBracket,
    UnsupportedRegime,
    ValuationError,
    aprm_regime,
    compute_exponents,
    solve_abm,
    solve_aprm,
    solve_frm,
)
from mortval.solution import Action

from conftest import check_pasting

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
    # Extreme draws can push boundary exponent products past float range,
    # or (tiny p2) a prepayment boundary past the designed bracket cap of
    # 1e6 * b0; both raise cleanly and are out of scope here.  Unexpected
    # sign patterns in a pasting equation still fail the test.
    try:
        return solver(*args)
    except UnsupportedRegime:
        assume(False)
    except NoBracket as exc:
        assume("no sign change" not in str(exc))
        raise


def _representable(solved) -> bool:
    # Skip draws whose far-boundary coefficient underflows (p1 ln h past
    # float range): the value function there silently loses a sub-1e-3
    # component near the boundary and the tight pasting checks would
    # measure that representation limit, not the solver.
    p1 = solved.exponents.p1
    top = max(solved.boundaries.values(), default=1.0)
    return p1 * math.log(max(top, 1.0)) < 700.0


@settings(max_examples=60, deadline=None)
@given(params=markets, factor=spread_factors)
def test_frm_structure(params, factor):
    m = _rate(params, factor)
    assume(m > params.r * 1.01)
    solved = _solve_or_discard(solve_frm, params, m)
    assume(_representable(solved))
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
    assume(_representable(solved))
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
    assume(_representable(solved))
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
