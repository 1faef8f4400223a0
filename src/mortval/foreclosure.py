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
the rate bracket once per target rather than once per point.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .abm import _max_rate
# ``solve_abm`` and ``solve_aprm`` are unused here but stay bound: the
# tracer in perfbench/tracing.py wraps them through this module's namespace.
from .abm import solve_abm  # noqa: F401
from .aprm import solve_aprm  # noqa: F401
from .contracts import RATE_CAP, ContractKind, contract_spec, require_positive_spread
from .errors import Degenerate, InvalidPhi, InvalidSpec, NoBracket
from .frm import solve_frm
from .model import ModelParams
from .options import solve_contract
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
    (r (1 + 1e-6), max_rate).  The target value must be increasing in m
    across the bracket; that is checked at the bracket ends rather than
    assumed.  This is one call of ``spread_solver``; for many phis, call
    one solver, which solves the FRM, ``max_rate`` and the bracket once.
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
    order of checks, so every call returns the same bits and raises the
    same error as ``endogenous_spread`` at that phi.
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

        def gap(m: float) -> float:
            return _solve(params, target, m, alpha).value(h) - want

        m_target = find_root_bracketed(gap, lo, hi)
        return 1e4 * (m_target - m_f)

    return spread


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
    per year) is returned.  For the ABM the rate solves the pasting
    equations with the prepayment boundary at h2 = 1, in closed form or by
    one scalar root, with no contract solve.  The FRM and the APRM are
    still found by bisection on the region membership of h = 1 (~103
    solves): the FRM's inversion is left until perfbench's pin of those
    103 solves moves, and the APRM has no inversion yet.  An APRM with
    alpha > 0 keeps its prepayment band strictly above 1 at every rate, so
    its continuation sliver around origination never closes; the search
    then returns the cap.
    """
    if kind is ContractKind.ABM:
        return _max_rate(params)

    def continues(m: float) -> bool:
        return _solve(params, kind, m, alpha).region_at(1.0).action is Action.CONTINUE

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
