"""Closed-form perpetual adjustable-payment-rate mortgage values.

Payments scale with min(1, h) and prepaying in high states costs
alpha * (h - 1)^+ of the capital gain.  Three rate regimes arise, split by
delta and by m* = p1 delta / (p1 - 1):

* low rate (m <= delta): no low-state prepayment; high-state prepayment
  exists only for alpha below a threshold alpha*.
* mid rate (delta < m < m*): a low-state prepayment boundary h1 < 1
  appears; high-state prepayment again only for alpha < alpha*.
* high rate (m >= m*): alpha* would exceed B0, so for any realistic
  alpha < B0 there is always a high-state prepayment band.

The sharing threshold alpha* is the root of

    g(alpha; beta) = (1+p2)/p2 (p2 beta)^{1/(1+p2)} alpha^{p2/(1+p2)}
                     - alpha - B0 (m/r - 1)

on (0, p2 B0 (m/r - 1)), where beta is the magnitude of the h^{-p2}
coefficient of the never-prepay candidate value above 1: beta1 in the low
regime, beta2 in the mid regime.  g increases on that interval
(``_sharing_gain``), so ``solve_aprm`` decides alpha >= alpha* by the sign
of g(alpha) and finds no root; ``aprm_regime`` reports the root itself.

When a high-state prepayment band [h2, h3] exists, h3 and the outer
piece are explicit,

    h3 = p2/(1+p2) ((m B0 / alpha)(1/r - 1/m) + 1),
    V(h) = m B0 / r - (alpha/p2) h3 (h3/h)^{p2}   on (h3, inf).

The APRM is the ABM on a unit balance, scaled by B0, plus the penalty.
Value matching and smooth pasting at h1, h2 and h3 leave one equation
chi(h2) = 0 for the band's lower edge.  With A = alpha/(m B0), A chi is
the ABM's g of ``abm``, with two changes: its leading term gains
A (p1/(p1-1) - y) y^{p2}, and x(y)'s p2/(1+p2)(1/r - 1/m) becomes
A (h3 - y), which vanishes at h3.  So alpha = 0, where h3 is infinite, is
the ABM, and every regime solves the one equation on [1 + 1e-10, end]:
the end is h3, shrunk in the high regime to where the implied h1 reaches
1.  Below delta the x term drops out, as no h1 exists.
"""

from __future__ import annotations

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


def _sharing_gain(params: ModelParams, m: float, beta: float, ex: Exponents):
    """g of the module docstring, and the ends (lo, hi) of its bracket for alpha*.

    g is concave, with g(0) = -B0 (m/r - 1) < 0 and its maximum beta - B0 (m/r - 1)
    at alpha = p2 beta.  beta >= B0 (m/r - 1) says that the never-prepay
    candidate above 1, m B0/r - beta h^{-p2}, is at most B0 at h = 1, which
    holds in both regimes where beta is defined: in the low regime it is
    the held-forever value, below (m B0/delta) h <= B0 at 1 since
    m <= delta; in the mid regime it is the value of stopping only at or
    below 1, at most the payoff B0 there.  So p2 beta >= p2 B0 (m/r - 1),
    and g increases on (0, p2 B0 (m/r - 1)), whose end it reaches at
    beta = B0 (m/r - 1), the upper edge of the mid regime.
    """
    p2 = ex.p2
    gap = params.b0 * (m / params.r - 1.0)
    gain_cap = p2 * gap
    q = p2 / (1.0 + p2)
    coef = (1.0 + p2) / p2 * (p2 * beta) ** (1.0 / (1.0 + p2))

    def g(alpha: float) -> float:
        return coef * alpha**q - alpha - gap

    # At tiny spreads the root sits below any fixed relative shrink; where
    # the alpha^q term is at most half the constant, g is negative for sure.
    lo = min(1e-12 * gain_cap, (gap / (2.0 * coef)) ** (1.0 / q))
    return g, lo, gain_cap * (1.0 - 1e-12)


def _alpha_star(params: ModelParams, m: float, beta: float, ex: Exponents) -> float:
    g, lo, hi = _sharing_gain(params, m, beta, ex)
    g_hi = g(hi)
    if g_hi <= 0.0 and abs(g_hi) <= 1e-9 * max(1.0, abs(g(lo))):
        # At the upper regime edge (m -> p1 delta/(p1-1)) the threshold
        # meets the cap itself and g(hi) is zero up to rounding.
        return hi
    return find_root_bracketed(g, lo, hi)


def _shares_enough(params: ModelParams, m: float, beta: float, ex: Exponents, alpha: float) -> bool:
    """alpha >= alpha*, by the sign of the increasing g instead of its root.

    An alpha at or above the interval's (1 - 1e-12) end counts as >= alpha*,
    as ``_alpha_star`` returns that end when the root lies at the cap.
    """
    g, _, hi = _sharing_gain(params, m, beta, ex)
    return alpha >= hi or g(alpha) >= 0.0


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


def _regime_beta(params: ModelParams, m: float, ex: Exponents) -> tuple[RateRegime, float, float | None]:
    """The rate regime, m*, and beta where alpha* exists (None at high rates)."""
    m_star = ex.p1 * params.delta / (ex.p1 - 1.0)
    if m <= params.delta:
        return RateRegime.LOW_RATE, m_star, _beta1(params, m, ex)
    if m < m_star:
        return RateRegime.MID_RATE, m_star, _beta2(params, m, ex)
    return RateRegime.HIGH_RATE, m_star, None


def _classify(params: ModelParams, m: float, ex: Exponents) -> AprmRegime:
    regime, m_star, beta = _regime_beta(params, m, ex)
    return AprmRegime(regime, m_star, None if beta is None else _alpha_star(params, m, beta, ex))


@float_faults_unsupported
def aprm_regime(params: ModelParams, m: float) -> AprmRegime:
    """Classify the rate regime and compute alpha* where it exists."""
    m = require_positive_spread(m, params)
    return _classify(params, m, compute_exponents(params))


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
    regime, _, beta = _regime_beta(params, m, ex)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0

    if regime is RateRegime.HIGH_RATE and alpha >= b0:
        raise UnsupportedRegime(
            f"no closed form for sharing fraction {alpha} >= loan-to-value {b0} at high rates"
        )

    if beta is not None and _shares_enough(params, m, beta, ex, alpha):
        if regime is RateRegime.LOW_RATE:
            # Never stop: the contract is worth its held-forever value.
            return _build(params, m, alpha, {}, ex)
        # Mid rate, alpha >= alpha*: only the low-state boundary remains.
        h1 = (p1 * (1.0 - delta / m)) ** (1.0 / (p1 - 1.0))
        return _build(params, m, alpha, {"h1": h1}, ex)

    # A band [h2, h3] with its edge h3 explicit, or at alpha = 0 the ABM on a
    # unit balance: the one pasting equation of ``abm`` covers both.
    h3 = p2 / (1.0 + p2) * (m * b0 / alpha * (1.0 / r - 1.0 / m) + 1.0) if alpha else _abm.INF
    return _build(params, m, alpha, _abm._boundaries(m, r, delta, ex, 1.0, alpha / (m * b0), h3), ex)
