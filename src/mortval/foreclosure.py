"""Foreclosure-cost-adjusted FRM values, equivalent costs, and spreads.

On default the bank recovers only (1 - phi) of the house value.  The
borrower does not bear phi, so the stopping boundaries are unchanged and
the adjustment is the expected discounted loss phi * h1 paid at the first
hit of h1 before h2:

    V_phi(h) = V(h) - phi * h1^{1+p2} h^{-p2}
               (h2^{p1+p2} - h^{p1+p2}) / (h2^{p1+p2} - h1^{p1+p2})

on the continuation region, (1 - phi) h below h1, and B0 above h2.

Two comparisons against the adjusted FRM are provided: the equivalent
foreclosure cost phi that equates values at a common rate, and the
endogenous rate spread that equates values at a fixed phi.  A sweep over
phi goes through ``spread_solver``, which solves the FRM, ``max_rate`` and
the rate bracket once per target rather than once per point.  Each spread
is then a few safeguarded Newton steps on the target's rate, each one
solve: the slope dV/dm comes from that solve by the envelope theorem
(``_rate_slope``).  ``max_rate`` solves no contract for the ABM and the
APRM; the FRM's is still a bisection.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .abm import _max_rate
# ``solve_abm`` and ``solve_aprm`` are unused here but stay bound: the
# tracer in perfbench/tracing.py wraps them through this module's namespace.
from .abm import solve_abm  # noqa: F401
from .aprm import solve_aprm  # noqa: F401
from .contracts import RATE_CAP, ContractKind, contract_spec, require_positive_spread
from .errors import Degenerate, InvalidPhi, InvalidSpec, NanResidual, NoBracket
from .frm import solve_frm
from .model import ModelParams
from .options import solve_contract
from . import rootfind
from .rootfind import find_root_bracketed
from .solution import Action, SolvedContract, checked_prices


def _solve(params: ModelParams, kind: ContractKind, m: float, alpha: float) -> SolvedContract:
    return solve_contract(params, contract_spec(kind, m, alpha))


def _require_target(kind: ContractKind) -> None:
    if kind is ContractKind.FRM:
        raise InvalidSpec(f"comparison target must be ABM or APRM, got {kind}")


def _loss_weight(h, h1: float, h2: float, p1: float, p2: float):
    """Coefficient of phi in the adjusted value: h1 * P[hit h1 before h2]."""
    h = np.asarray(h, dtype=float)
    span = h2 ** (p1 + p2) - h1 ** (p1 + p2)
    inner = h1 ** (1.0 + p2) * h ** (-p2) * (h2 ** (p1 + p2) - h ** (p1 + p2)) / span
    return np.where(h <= h1, h, np.where(h >= h2, 0.0, inner))


def _require_phi(phi: float) -> None:
    if not (0.0 <= phi < 1.0):
        raise InvalidPhi(f"foreclosure cost fraction must lie in [0, 1), got {phi}")


def _frm_terms(params: ModelParams, m: float, h):
    """The frictionless FRM value at h and the coefficient of phi there."""
    solved = solve_frm(params, m)
    h1, h2 = solved.boundaries["h1"], solved.boundaries["h2"]
    ex = solved.exponents
    return solved.value(h), _loss_weight(h, h1, h2, ex.p1, ex.p2)


def frm_value_with_foreclosure(params: ModelParams, m: float, phi: float, h):
    """FRM value when default costs the bank the fraction ``phi`` of h."""
    _require_phi(phi)
    value, weight = _frm_terms(params, m, h)
    out = value - phi * weight
    arr = np.asarray(out)
    return float(arr) if arr.ndim == 0 else out


class EquivalentCost(NamedTuple):
    """Equivalent foreclosure cost, flagged when outside [0, 1)."""

    phi: float
    in_range: bool


def equivalent_foreclosure_cost(
    params: ModelParams,
    m_common: float,
    target: ContractKind,
    alpha: float,
    h: float,
) -> EquivalentCost:
    """Foreclosure cost phi equating the adjusted FRM to the target contract.

    The adjusted FRM value is affine and strictly decreasing in phi for
    h < h2, so phi = (V_frm(h) - V_target(h)) / weight(h).  The result is
    returned unclamped; out-of-[0, 1) values are informative and flagged
    rather than rejected.
    """
    require_positive_spread(m_common, params)
    solved_frm = solve_frm(params, m_common)
    h1, h2 = solved_frm.boundaries["h1"], solved_frm.boundaries["h2"]
    ex = solved_frm.exponents
    weight = float(_loss_weight(checked_prices(h), h1, h2, ex.p1, ex.p2))
    if weight == 0.0:
        raise Degenerate(
            f"no foreclosure cost can equate values at h={h} >= prepayment boundary {h2}"
        )
    _require_target(target)
    gap = solved_frm.value(h) - _solve(params, target, m_common, alpha).value(h)
    phi = gap / weight
    return EquivalentCost(phi=phi, in_range=0.0 <= phi < 1.0)


def endogenous_spread(
    params: ModelParams,
    m_f: float,
    phi: float,
    target: ContractKind,
    alpha: float = 0.0,
    h: float = 1.0,
) -> float:
    """Rate spread (basis points) equating the target to the adjusted FRM.

    Solves V_target(h; m) = V_frm_phi(h; m_f) for m on
    (r (1 + 1e-6), max_rate), by Newton steps from m_f (``_rate_root``).
    The target value must be increasing in m across the bracket; that is
    checked at the bracket ends rather than assumed.  This is one call of
    ``spread_solver``; for many phis, call one solver, which solves the
    FRM, ``max_rate`` and the bracket once.
    """
    return spread_solver(params, m_f, target, alpha, h)(phi)


def spread_solver(
    params: ModelParams,
    m_f: float,
    target: ContractKind,
    alpha: float = 0.0,
    h: float = 1.0,
) -> Callable[[float], float]:
    """``endogenous_spread`` at these inputs, as a function of phi alone.

    The work that does not depend on phi (the FRM solve, ``max_rate`` and
    the solves at both bracket ends) runs on the first call and is kept
    once it succeeds, so a sweep over phi solves the FRM, ``max_rate`` and
    the bracket once per target.  That work runs in ``endogenous_spread``'s
    order of checks, and every phi's Newton iteration starts from m_f, not
    from the previous root, so every call returns the same bits and raises
    the same error as ``endogenous_spread`` at that phi.
    """
    fixed = None

    def spread(phi: float) -> float:
        nonlocal fixed
        if fixed is None:
            fixed = _spread_bracket(params, m_f, phi, target, alpha, h)
        _require_phi(phi)
        value, weight, lo, hi, v_lo, v_hi, stops_hi = fixed
        want = float(value - phi * weight)
        if not (v_lo <= want <= v_hi):
            raise NoBracket(
                f"adjusted FRM value {want} outside the target's attainable range [{v_lo}, {v_hi}]"
            )
        if want == v_hi and stops_hi:
            # The target stops at h from some rate below hi on, so its value
            # is flat there and every rate in that stretch equates it.
            raise Degenerate(
                f"target stops at h={h} with value {want} over a range of rates up to {hi}"
            )

        m_target = _rate_root(params, target, alpha, h, want, m_f, lo, hi, v_lo - want, v_hi - want)
        return 1e4 * (m_target - m_f)

    return spread


def _rate_slope(solved: SolvedContract, m: float, h: float) -> float:
    """dV/dm at ``h`` for the contract ``solved`` at rate ``m``, without a solve.

    No stopping payoff depends on m, and smooth pasting holds at every free
    boundary, so by the envelope theorem (Milgrom and Segal, Econometrica
    2002) dV/dm is the m-derivative with the boundaries held fixed.  With
    them fixed, V is affine in m: the coupon's part scales with m and the
    payoff collected at exit does not.  On the continuation component (a, b)
    holding h that gives

        dV/dm = (V(h) - V(a) P_a(h) - V(b) P_b(h)) / m,

    with P_a(h) = (a/h)^{p2} (1 - (h/b)^{p1+p2}) / (1 - (a/b)^{p1+p2}) and
    P_b(h) = (h/b)^{p1} (1 - (a/h)^{p1+p2}) / (1 - (a/b)^{p1+p2}) the
    discounted chances of leaving through a and b; P_a = 0 when a = 0 and
    P_b = 0 when b is infinite.  They are taken in ratios below 1, so no
    boundary overflows them.  The slope is 0 in a stopping region.
    """
    ends = solved.component_at(h)
    if ends is None:
        return 0.0
    a, b = ends
    p1, p2 = solved.exponents.p1, solved.exponents.p2
    exit_value = 0.0
    if a > 0.0 and b < math.inf:
        log_ah, log_hb = math.log(a) - math.log(h), math.log(h) - math.log(b)
        k = p1 + p2
        span = -math.expm1(k * (log_ah + log_hb))
        exit_value = (
            solved.value(a) * math.exp(p2 * log_ah) * -math.expm1(k * log_hb)
            + solved.value(b) * math.exp(p1 * log_hb) * -math.expm1(k * log_ah)
        ) / span
    elif a > 0.0:
        exit_value = solved.value(a) * (a / h) ** p2
    elif b < math.inf:
        exit_value = solved.value(b) * (h / b) ** p1
    return (solved.value(h) - exit_value) / m


def _rate_root(
    params: ModelParams, target: ContractKind, alpha: float, h: float, want: float,
    m0: float, lo: float, hi: float, f_lo: float, f_hi: float,
) -> float:
    """Rate in [lo, hi] at which the target is worth ``want`` at h.

    f(m) = V(h; m) - want rises from f_lo < 0 to f_hi > 0.  Safeguarded
    Newton steps on ``_rate_slope`` start from m0 (or the midpoint when m0
    lies outside the bracket).  Each residual's sign shrinks the bracket,
    and a step that leaves it, or a slope that is not positive, is replaced
    by bisection.  V is concave in m (the borrower takes the least of
    values affine in m), so after at most one step past the root the
    iterates climb to it from below.  The iteration stops by
    ``find_root_bracketed``'s rule: the residual within
    max(_ABS_TOL, _REL_TOL |f_hi - f_lo|) and the Newton step, the distance
    to the root it predicts, within _REL_TOL max(m, 1); it then returns the
    stepped rate.  After ``rootfind._NEWTON_STEPS`` steps without that, Brent
    finishes on the shrunken bracket.  The iterates depend only on the
    inputs, so equal calls return equal bits.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    f_tol = max(rootfind._ABS_TOL, rootfind._REL_TOL * (f_hi - f_lo))
    m = m0 if lo < m0 < hi else 0.5 * (lo + hi)
    for _ in range(rootfind._NEWTON_STEPS):
        solved = _solve(params, target, m, alpha)
        f = solved.value(h) - want
        if f != f:
            raise NanResidual(f"target value is NaN at the rate {m} inside [{lo}, {hi}]")
        if f == 0.0:
            return m
        if f < 0.0:
            lo = m
        else:
            hi = m
        slope = _rate_slope(solved, m, h)
        if slope > 0.0:
            stepped = m - f / slope
            if abs(f) <= f_tol and abs(stepped - m) <= rootfind._REL_TOL * max(m, 1.0):
                return stepped if lo <= stepped <= hi else m
            if lo < stepped < hi:
                m = stepped
                continue
        m = 0.5 * (lo + hi)

    def gap(m: float) -> float:
        return _solve(params, target, m, alpha).value(h) - want

    return find_root_bracketed(gap, lo, hi)


def _spread_bracket(params: ModelParams, m_f: float, phi: float, target: ContractKind, alpha: float, h: float):
    """The part of a spread free of phi: the FRM value and loss weight at
    h, the rate bracket (lo, hi), the target's values at its ends and
    whether the target stops at h at the top end.

    ``phi`` is only checked, at the point where ``endogenous_spread`` checks it.
    """
    require_positive_spread(m_f, params)
    _require_phi(phi)
    value, weight = _frm_terms(params, m_f, h)
    _require_target(target)

    lo = params.r * (1.0 + 1e-6)
    hi = max_rate(params, target, alpha)
    v_lo = _solve(params, target, lo, alpha).value(h)
    solved_hi = _solve(params, target, hi, alpha)
    v_hi = solved_hi.value(h)
    if not v_lo < v_hi:
        raise NoBracket(
            f"target value is not increasing in the rate across ({lo}, {hi}): {v_lo} vs {v_hi}"
        )
    stops_hi = solved_hi.region_at(h).action is not Action.CONTINUE
    return value, weight, lo, hi, v_lo, v_hi, stops_hi


def max_rate(params: ModelParams, kind: ContractKind, alpha: float = 0.0) -> float:
    """Largest rate at which holding (not stopping) is optimal at h = 1.

    Above the returned rate the solved contract stops immediately at
    origination.  No rate below r (1 + 1e-9) or above ``RATE_CAP`` (100%
    per year) is returned.

    * ABM: the rate solves the pasting equations with the prepayment
      boundary at h2 = 1, in closed form or by one scalar root, with no
      contract solve.
    * APRM: h = 1 continues at every rate, so the cap is returned without a
      solve (``alpha`` is only checked).  With alpha > 0 and no band, the
      contract either never stops (low rate) or has only the low boundary
      h1 = (p1 (1 - delta/m))^{1/(p1-1)}, below 1 because m < m* =
      p1 delta/(p1-1) in the mid regime.  With a band [h2, h3], h2 > 1, and
      h1 < 1 in the mid regime for the same reason; in the high regime h2
      lies below the point where the implied h1 would reach 1.  At
      alpha = 0 the contract is the ABM with unit balance, whose h1 < 1 < h2.
    * FRM: bisection on the region of h = 1 (~103 solves).
    """
    if kind is ContractKind.ABM:
        return _max_rate(params)
    if kind is ContractKind.APRM:
        contract_spec(kind, RATE_CAP, alpha)
        return RATE_CAP

    def continues(m: float) -> bool:
        return solve_frm(params, m).region_at(1.0).action is Action.CONTINUE

    lo = params.r * (1.0 + 1e-9)
    if not continues(lo):
        return lo
    hi = lo * 2.0
    while continues(hi):
        lo = hi
        hi *= 2.0
        if hi >= RATE_CAP:
            if continues(RATE_CAP):
                return RATE_CAP
            hi = RATE_CAP
            break
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if continues(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
