"""Closed-form perpetual adjustable-payment-rate mortgage values.

Payments scale with min(1, h) and prepaying in high states costs
alpha * (h - 1)^+ of the capital gain.  The APRM is the ABM on a unit
balance, scaled by B0, plus that penalty.  A high-state prepayment band
[h2, h3] has an explicit outer edge and outer piece,

    h3 = p2/(1+p2) ((m B0 / alpha)(1/r - 1/m) + 1),
    V(h) = m B0 / r - (alpha/p2) h3 (h3/h)^{p2}   on (h3, inf),

and ``abm``'s one pasting equation, with sharing term A = alpha/(m B0),
gives h2 and the low-state boundary h1 < 1 (at m > delta).  It also
decides alone whether the band exists; at alpha = 0 it is the ABM's.

Three rate regimes are split by delta and m* = p1 delta / (p1 - 1): low
(m <= delta), mid (delta < m < m*) and high (m >= m*).  Below m* the band
vanishes for alpha at or above the sharing threshold alpha*, where that
pasting equation at the band edge, g(h3), changes sign.  g(h3) falls in
alpha up to the cap p2 m B0 (1/r - 1/m), where h3 = 1, so alpha* is its
one root below the cap, or the cap.  ``aprm_regime`` reports alpha*; no
solve reads it.  The paper's form of alpha*, the root of a concave
equation in alpha through the never-prepay coefficient beta, is the
reference of tests/test_aprm.py.  At high rates alpha* would exceed B0:
every alpha < B0 keeps a band, and alpha >= B0 has no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .contracts import require_positive_spread
from .errors import InvalidSpec, UnsupportedRegime, float_faults_unsupported
from .model import Exponents, ModelParams, compute_exponents
from .rootfind import find_root_bracketed
from .solution import SolvedContract, build
from . import abm as _abm


class RateRegime(str, Enum):
    LOW_RATE = "low_rate"    # m <= delta
    MID_RATE = "mid_rate"    # delta < m < m*
    HIGH_RATE = "high_rate"  # m >= m*


@dataclass(frozen=True)
class AprmRegime:
    """Rate regime classification plus the sharing threshold alpha*.

    ``alpha_star`` is None in the high-rate regime, where the threshold
    would exceed B0 and no admissible alpha suppresses prepayment.
    """

    regime: RateRegime
    m_star: float
    alpha_star: float | None


def _band_edge(m: float, b0: float, r: float, alpha: float, p2: float) -> float:
    """The band's outer edge h3 of the module docstring; inf at alpha = 0."""
    return p2 / (1.0 + p2) * (m * b0 / alpha * (1.0 / r - 1.0 / m) + 1.0) if alpha else _abm.INF


def _alpha_star(params: ModelParams, m: float, ex: Exponents) -> float:
    """Where ``abm._pasting``'s g at the band edge h3 changes sign, as a root in u = log alpha.

    g(h3) is formed with ``_band_edge`` and ``abm._pasting``, as ``solve_aprm``
    forms it, so alpha* lies where the solver's band vanishes up to the root's
    tolerance.  With A = alpha/(m B0), G = 1/r - 1/m and q = p2/(1+p2),
    h3 = q (G/A + 1) and g(h3) = (kink - q)(G + A) h3^{p2} - C, with
    kink = p1/(p1-1) and C = (1/delta - 1/m) x(h3)^{1+p2} + 1/(p2 delta) free
    of alpha.  g(h3) falls in A up to the cap A = p2 G, where h3 = 1; alpha*
    is the cap where g(h3) >= 0 there.  Otherwise, as h3 > q G/A, g(h3) > 0
    wherever A <= q G/2 ((kink - q) G/C)^{1/p2}, the bracket's lower end.
    Below ``power`` h3^{p2} passes DBL_MAX/e: there h3 > e^w with
    w = (log DBL_MAX - 1)/p2, that is alpha < m B0 G / (e^w/q - 1).  A lower
    end below ``power`` moves up to it where g(h3) > 0 there; otherwise the
    root lies where g(h3) overflows, and this raises, as ``solve_aprm`` does
    at those alpha.  Below ``floor`` h3 leaves the float range, and
    ``solve_aprm`` raises at every alpha: a lower end there moves up to
    ``floor``, and alpha* is 0.0 where g(h3) <= 0 already at ``floor``.  The
    root's stopping rule is relative to max(|u|, 1), which bounds the
    relative error of alpha* however far below 1 it lies.
    """
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0
    inv_gap = 1.0 / r - 1.0 / m
    gap = m * b0 * inv_gap
    q, kink = p2 / (1.0 + p2), p1 / (p1 - 1.0)

    def edge(u: float) -> float:
        alpha = math.exp(u)
        h3 = _band_edge(m, b0, r, alpha, p2)
        return _abm._pasting(m, r, delta, p1, p2, alpha / (m * b0), h3)[1](h3)

    cap = p2 * gap
    top = math.log(cap)
    g_top = edge(top)
    if g_top >= 0.0:
        return cap
    c = (kink - q) * (1.0 + p2) * inv_gap - g_top  # at the cap (G + A) h3^{p2} = (1 + p2) G
    bottom = math.log(0.5 * q * gap) + math.log((kink - q) * inv_gap / c) / p2
    # e^w/q - 1 = e^w (1/p2 - expm1(-w)), which neither overflows nor cancels.
    w = (_abm._LOG_MAX - 1.0) / p2
    power = math.log(gap) - w - math.log(1.0 / p2 - math.expm1(-w))
    if bottom < power and edge(power) > 0.0:
        bottom = power
    # Below floor m B0 / alpha or h3 leaves the float range, and solve_aprm raises.
    floor = max(math.log(m * b0), math.log(gap)) - _abm._LOG_MAX + 1.0
    if bottom < floor:
        if edge(floor) <= 0.0:
            return 0.0
        bottom = floor
    return math.exp(find_root_bracketed(edge, bottom, top))


@float_faults_unsupported
def aprm_regime(params: ModelParams, m: float) -> AprmRegime:
    """Classify the rate regime and compute alpha* where it exists."""
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    m_star = ex.p1 * params.delta / (ex.p1 - 1.0)
    if m >= m_star:
        return AprmRegime(RateRegime.HIGH_RATE, m_star, None)
    regime = RateRegime.LOW_RATE if m <= params.delta else RateRegime.MID_RATE
    return AprmRegime(regime, m_star, _alpha_star(params, m, ex))


def solve_aprm_no_prepay(params: ModelParams, m: float) -> SolvedContract:
    """Expected discounted payment stream of an APRM held forever.

        V(h) = C1 h^{p1} + (m B0/delta) h      on (0, 1]
        V(h) = C2 h^{-p2} + m B0 / r           on (1, inf)

    with C1 = -((1+p2)/(p1 (p1+p2))) m B0/delta and
    C2 = -((p1-1)/(p2 (p1+p2))) m B0/delta, both negative; value and slope
    match at 1 through the exponent identity.
    """
    m = require_positive_spread(m, params)
    return _build(params, m, 0.0, {}, compute_exponents(params))


def _build(params: ModelParams, m: float, alpha: float, bounds: dict, ex: Exponents) -> SolvedContract:
    """The APRM at ``bounds``: the ABM on a unit balance scaled by B0, plus any band."""
    skeleton = _abm._skeleton(1.0, params.b0, m, bounds, alpha)
    return build(skeleton, bounds, ex, params.r, params.delta)


@float_faults_unsupported
def solve_aprm(params: ModelParams, m: float, alpha: float) -> SolvedContract:
    """Value function and prepayment boundaries of the APRM.

    Low regions use V = C h^{p1} + (m B0/delta) h (+ C' (h1/h)^{p2} when
    a lower boundary h1 exists); regions above 1 use power terms around
    m B0 / r, each anchored at the region end where it is largest;
    prepayment pieces are B0 h below 1 and B0 + alpha (h-1) on the band
    [h2, h3].
    """
    m = require_positive_spread(m, params)
    if not (0.0 <= alpha < 1.0):
        raise InvalidSpec(f"sharing fraction must lie in [0, 1), got {alpha}")
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0
    if m >= p1 * delta / (p1 - 1.0) and alpha >= b0:
        raise UnsupportedRegime(
            f"no closed form for sharing fraction {alpha} >= loan-to-value {b0} at high rates"
        )
    # The band edge h3 is explicit; the one pasting equation of ``abm`` finds
    # h2 below it, or that the band is empty, and at alpha = 0 is the ABM.
    h3 = _band_edge(m, b0, r, alpha, p2)
    return _build(params, m, alpha, _abm._boundaries(m, r, delta, ex, 1.0, alpha / (m * b0), h3), ex)
