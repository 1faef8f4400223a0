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
coefficient are explicit,

    h3 = p2/(1+p2) ((m B0 / alpha)(1/r - 1/m) + 1),
    C2_outer = -(alpha/p2) h3^{1+p2},

and h2 is the root of a scalar pasting equation chi(h) on (1, h3):
increasing in the low regime, decreasing in the mid/high regimes (where
the bracket's upper end shrinks to h0 <= h3 in the high regime).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .contracts import require_positive_spread
from .errors import InvalidSpec, NoBracket, UnsupportedRegime
from .model import Exponents, ModelParams, compute_exponents
from .rootfind import find_root_bracketed
from .solution import Action, Region, SolvedContract
from . import abm as _abm

INF = float("inf")


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
    return _abm._held_forever(m * params.b0, 1.0, params, compute_exponents(params))


def _band_pasting(alpha: float, h2: float, h3: float, p1: float, p2: float) -> tuple[float, float]:
    """h^{p1} and h^{-p2} coefficients on (1, h2), pasted to the band payoff at h2."""
    return (
        -(1.0 + p2) / (p1 + p2) * alpha * h2**-p1 * (h3 - h2),
        alpha / (p1 + p2) * h2**p2 * ((p1 - 1.0) * h2 - p1 * (1.0 + p2) / p2 * h3),
    )


def _solve_aprm_zero_alpha(params: ModelParams, m: float, ex: Exponents) -> SolvedContract:
    # With no sharing penalty the APRM problem is the ABM problem with unit
    # balance, scaled by B0: coupon m B0 min(1,h), payoff B0 min(1,h).
    unit = ModelParams(r=params.r, delta=params.delta, sigma=params.sigma, b0=1.0)
    base = _abm.solve_abm(unit, m)
    b0 = params.b0
    regions = tuple(
        Region(
            reg.lo, reg.hi, reg.action,
            c_p1=b0 * reg.c_p1, c_p2=b0 * reg.c_p2, k0=b0 * reg.k0, k1=b0 * reg.k1,
        )
        for reg in base.regions
    )
    return SolvedContract(regions=regions, boundaries=dict(base.boundaries), exponents=ex)


def solve_aprm(params: ModelParams, m: float, alpha: float) -> SolvedContract:
    """Value function and prepayment boundaries of the APRM.

    Low regions use V = C h^{p1} + (m B0/delta) h (+ C' h^{-p2} when a
    lower boundary exists); regions above 1 use power terms around
    m B0 / r; prepayment pieces are B0 h below 1 and B0 + alpha (h-1) on
    the band [h2, h3].
    """
    m = require_positive_spread(m, params)
    if not (0.0 <= alpha < 1.0):
        raise InvalidSpec(f"sharing fraction must lie in [0, 1), got {alpha}")
    ex = compute_exponents(params)
    regime, _, beta = _regime_beta(params, m, ex)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0
    load = m * b0 / delta

    if regime is RateRegime.HIGH_RATE and alpha >= b0:
        raise UnsupportedRegime(
            f"no closed form for sharing fraction {alpha} >= loan-to-value {b0} at high rates"
        )

    if beta is not None and _shares_enough(params, m, beta, ex, alpha):
        if regime is RateRegime.LOW_RATE:
            # Never stop: the contract is worth its held-forever value.
            return _abm._held_forever(m * b0, 1.0, params, ex)
        # Mid rate, alpha >= alpha*: only the low-state boundary remains.
        ratio = 1.0 - delta / m
        h1 = (p1 * ratio) ** (1.0 / (p1 - 1.0))
        k1, k2 = _abm._low_pasting(load, ratio, h1, p1, p2)
        kt2 = k2 - (p1 - 1.0) / (p2 * (p1 + p2)) * load
        regions = (
            Region(0.0, h1, Action.PREPAY, k1=b0),
            Region(h1, 1.0, Action.CONTINUE, c_p1=k1, c_p2=k2, k1=load),
            Region(1.0, INF, Action.CONTINUE, c_p2=kt2, k0=m * b0 / r),
        )
        return SolvedContract(regions=regions, boundaries={"h1": h1}, exponents=ex)

    if alpha == 0.0:
        return _solve_aprm_zero_alpha(params, m, ex)

    # A high-state prepayment band [h2, h3] exists.
    h3 = p2 / (1.0 + p2) * (m * b0 / alpha * (1.0 / r - 1.0 / m) + 1.0)
    c_outer = -(alpha / p2) * h3 ** (1.0 + p2)

    if regime is RateRegime.LOW_RATE:
        def chi(h: float) -> float:
            return h**p2 * (p1 / (p1 - 1.0) * (1.0 + p2) / p2 * h3 - h) - m * b0 / (p2 * alpha * delta)

        shrink = 1e-12 * (h3 - 1.0)
        lo, hi = 1.0 + shrink, h3 - shrink
        if not (chi(lo) < 0.0 <= chi(hi)):
            raise NoBracket(
                f"band equation has unexpected signs on ({lo}, {hi}): {chi(lo)}, {chi(hi)}"
            )
        h2 = find_root_bracketed(chi, lo, hi)

        ct1, ct2 = _band_pasting(alpha, h2, h3, p1, p2)
        c1 = ct1 - (1.0 + p2) / (p1 * (p1 + p2)) * load
        regions = (
            Region(0.0, 1.0, Action.CONTINUE, c_p1=c1, k1=load),
            Region(1.0, h2, Action.CONTINUE, c_p1=ct1, c_p2=ct2, k0=m * b0 / r),
            Region(h2, h3, Action.PREPAY, k0=b0 - alpha, k1=alpha),
            Region(h3, INF, Action.CONTINUE, c_p2=c_outer, k0=m * b0 / r),
        )
        return SolvedContract(
            regions=regions, boundaries={"h2": h2, "h3": h3}, exponents=ex
        )

    # Mid- and high-rate regimes share the five-region structure and the
    # same (decreasing) pasting equation for h2.
    ratio = 1.0 - delta / m
    penalty_scale = alpha * delta / (m * b0)
    power = (1.0 + p2) / (p1 - 1.0)

    def chi(h: float) -> float:
        inner = p1 * ratio / (1.0 + penalty_scale * p1 * h**-p1 * (h3 - h))
        return (
            h**p2 * (h - p1 * (1.0 + p2) / ((p1 - 1.0) * p2) * h3)
            + m * b0 / (alpha * delta) * (ratio * inner**power + 1.0 / p2)
        )

    hi_end = h3
    if regime is RateRegime.HIGH_RATE:
        # The admissible window shrinks to (1, h0], h0 the first point
        # where the implied h1 would reach 1.  psi(1) > 0 holds exactly
        # (it reduces to (B0/alpha - 1)/(1+p2) > 0), so the bracket can
        # start at 1 even when the window is only 1e-7 wide at huge rates.
        rhs = m * b0 / (alpha * delta) * ((p1 - 1.0) / p1 - delta / m)

        def psi(h: float) -> float:
            return h**-p1 * (h3 - h) - rhs

        hi_end = find_root_bracketed(psi, 1.0, h3)

    shrink = 1e-12 * (hi_end - 1.0)
    lo, hi = 1.0 + shrink, hi_end - shrink
    if not (chi(lo) > 0.0 >= chi(hi)):
        raise NoBracket(
            f"band equation has unexpected signs on ({lo}, {hi}): {chi(lo)}, {chi(hi)}"
        )
    h2 = find_root_bracketed(chi, lo, hi)
    h1 = (p1 * ratio / (1.0 + penalty_scale * p1 * h2**-p1 * (h3 - h2))) ** (1.0 / (p1 - 1.0))

    c1, c2 = _abm._low_pasting(load, ratio, h1, p1, p2)
    ct1, ct2 = _band_pasting(alpha, h2, h3, p1, p2)

    regions = (
        Region(0.0, h1, Action.PREPAY, k1=b0),
        Region(h1, 1.0, Action.CONTINUE, c_p1=c1, c_p2=c2, k1=load),
        Region(1.0, h2, Action.CONTINUE, c_p1=ct1, c_p2=ct2, k0=m * b0 / r),
        Region(h2, h3, Action.PREPAY, k0=b0 - alpha, k1=alpha),
        Region(h3, INF, Action.CONTINUE, c_p2=c_outer, k0=m * b0 / r),
    )
    return SolvedContract(
        regions=regions, boundaries={"h1": h1, "h2": h2, "h3": h3}, exponents=ex
    )
