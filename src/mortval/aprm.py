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
vanishes for alpha at or above the sharing threshold alpha*, the root of

    g(alpha; beta) = (1+p2)/p2 (p2 beta)^{1/(1+p2)} alpha^{p2/(1+p2)}
                     - alpha - B0 (m/r - 1)

on (0, p2 B0 (m/r - 1)), where beta is the magnitude of the h^{-p2}
coefficient of the never-prepay candidate value above 1: beta1 in the low
regime, beta2 in the mid regime.  ``aprm_regime`` reports alpha*; no solve
reads it.  At high rates alpha* would exceed B0: every alpha < B0 keeps a
band, and alpha >= B0 has no closed form.
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


def _alpha_star(params: ModelParams, m: float, beta: float, ex: Exponents) -> float:
    """The root of g of the module docstring, taken in u = log alpha.

    g is concave, with g(0) = -B0 (m/r - 1) < 0 and its maximum beta - B0 (m/r - 1)
    at alpha = p2 beta.  beta >= B0 (m/r - 1) says that the never-prepay
    candidate above 1, m B0/r - beta h^{-p2}, is at most B0 at h = 1, which
    holds in both regimes where beta is defined: in the low regime it is
    the held-forever value, below (m B0/delta) h <= B0 at 1 since
    m <= delta; in the mid regime it is the value of stopping only at or
    below 1, at most the payoff B0 there.  So p2 beta >= p2 B0 (m/r - 1),
    and g increases on (0, p2 B0 (m/r - 1)), whose end, the cap, it reaches
    at beta = B0 (m/r - 1), the upper edge of the mid regime.

    In u, G(u) = coef e^{q u} - e^u - gap with gap = B0 (m/r - 1).  Where
    G(log cap) <= 0, which happens only at that edge and up to rounding,
    alpha* is the cap.  Otherwise the root lies below log cap and above any
    u with coef e^{q u} <= gap / 2, where G < -gap / 2.  The root's stopping
    rule is relative to max(|u|, 1), which bounds the relative error of
    alpha* however far below 1 it lies; in alpha it would be an absolute
    1e-12, no digit at all of an alpha* near 1e-24.

    gap is formed as m B0 (1/r - 1/m), as the band's pasting equation forms
    it (``abm._pasting``): at m/r - 1 near 1e-10 either form rounds to about
    1e-6 relative, and only the same rounding keeps alpha* where the
    solver's band vanishes.
    """
    p2 = ex.p2
    gap = m * params.b0 * (1.0 / params.r - 1.0 / m)
    cap = p2 * gap
    q = p2 / (1.0 + p2)
    coef = (1.0 + p2) / p2 * (p2 * beta) ** (1.0 / (1.0 + p2))

    def g(u: float) -> float:
        return coef * math.exp(q * u) - math.exp(u) - gap

    top = math.log(cap)
    if g(top) <= 0.0:
        return cap
    bottom = min(top - 30.0, math.log(gap / (2.0 * coef)) / q)
    return math.exp(find_root_bracketed(g, bottom, top))


def _beta1(params: ModelParams, m: float, ex: Exponents) -> float:
    p1, p2 = ex.p1, ex.p2
    return (p1 - 1.0) / (p2 * (p1 + p2)) * m * params.b0 / params.delta


def _beta2(params: ModelParams, m: float, ex: Exponents) -> float:
    p1, p2 = ex.p1, ex.p2
    ratio = 1.0 - params.delta / m
    return (
        (p1 - 1.0) / (p1 + p2)
        * m * params.b0 / params.delta
        * (1.0 / p2 + p1 ** ((1.0 + p2) / (p1 - 1.0)) * ratio ** ((p1 + p2) / (p1 - 1.0)))
    )


@float_faults_unsupported
def aprm_regime(params: ModelParams, m: float) -> AprmRegime:
    """Classify the rate regime and compute alpha* where it exists."""
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    m_star = ex.p1 * params.delta / (ex.p1 - 1.0)
    if m <= params.delta:
        return AprmRegime(RateRegime.LOW_RATE, m_star, _alpha_star(params, m, _beta1(params, m, ex), ex))
    if m < m_star:
        return AprmRegime(RateRegime.MID_RATE, m_star, _alpha_star(params, m, _beta2(params, m, ex), ex))
    return AprmRegime(RateRegime.HIGH_RATE, m_star, None)


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
    h3 = p2 / (1.0 + p2) * (m * b0 / alpha * (1.0 / r - 1.0 / m) + 1.0) if alpha else _abm.INF
    return _build(params, m, alpha, _abm._boundaries(m, r, delta, ex, 1.0, alpha / (m * b0), h3), ex)
