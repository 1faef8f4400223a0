"""Closed-form perpetual adjustable-balance mortgage values.

The balance cap removes the default motive; what remains is prepayment.
Two shapes arise:

* m <= delta: holding costs never exceed the ownership benefit in low
  states, so only an upper prepayment boundary h2 exists.  It is fully
  explicit: h2 = B0 ((1/r - (1 - 1/p1)/delta) / (1/r - 1/m))^{1/p2}.

* m > delta: a lower prepayment boundary h1 < B0 appears as well.  With
  h1 = B0 x and h2 = B0 y, eliminating the four pasting constants leaves
  one scalar equation g(y) = 0, where

      g(y) = p1/(p1-1) (1/r - 1/m) y^{p2}
             - (1/delta - 1/m) x(y)^{1+p2} - 1/(p2 delta),
      x(y) = ((1/delta - 1/m)
              / (1/(p1 delta) + p2/(1+p2) (1/r - 1/m) y^{-p1}))^{1/(p1-1)}.

  g increases wherever x(y) < 1 < y; when m > p1 delta/(p1-1) that holds
  only up to y_bar = ((p2/(1+p2))(1/r - 1/m) / ((p1-1)/(p1 delta) - 1/m))^{1/p1},
  which then bounds the bracket, otherwise the bracket is grown
  geometrically until g changes sign.

The largest rate at which the ABM holds at origination (``max_rate``)
puts h2 = 1, i.e. y = 1/B0, into these equations.  When the rate is at
most delta it is explicit,

    1/m = 1/r - (1/r - (1 - 1/p1)/delta) B0^{p2};

otherwise it is the one root in m of G(m) = g(1/B0; m) on
[delta, RATE_CAP], and the cap when G stays negative there.
"""

from __future__ import annotations

from .contracts import RATE_CAP, require_positive_spread
from .errors import NoBracket, UnsupportedRegime
from .model import Exponents, ModelParams, compute_exponents
from .rootfind import find_root_bracketed, grow_bracket
from .solution import Action, Region, SolvedContract

INF = float("inf")


def _top_pasting(load: float, h2: float, p1: float, p2: float) -> tuple[float, float]:
    """h^{p1} and h^{-p2} coefficients on (B0, h2), pasted to the prepayment payoff at h2,
    where the coupon's value held forever, m B0 / r, exceeds B0 by ``load``."""
    scale = load / (p1 + p2)
    return -p2 * scale * h2**-p1, -p1 * scale * h2**p2


def _low_pasting(load: float, ratio: float, h1: float, p1: float, p2: float) -> tuple[float, float]:
    """h^{p1} and h^{-p2} coefficients above h1, pasted to the prepayment at h1 where the
    coupon's particular solution is steeper than the payoff by ``load * ratio``."""
    return (
        -(1.0 + p2) / (p1 + p2) * load * ratio * h1 ** (1.0 - p1),
        -(p1 - 1.0) / (p1 + p2) * load * ratio * h1 ** (1.0 + p2),
    )


def _held_forever(s: float, k: float, params: ModelParams, ex: Exponents) -> SolvedContract:
    """A coupon s min(k, h) held forever; value and slope paste at the kink k."""
    p1, p2 = ex.p1, ex.p2
    slope = s / params.delta
    c1 = -(1.0 + p2) / (p1 * (p1 + p2)) * slope * k ** (1.0 - p1)
    c2 = -(p1 - 1.0) / (p2 * (p1 + p2)) * slope * k ** (1.0 + p2)
    regions = (
        Region(0.0, k, Action.CONTINUE, c_p1=c1, k1=slope),
        Region(k, INF, Action.CONTINUE, c_p2=c2, k0=s * k / params.r),
    )
    return SolvedContract(regions=regions, boundaries={}, exponents=ex)


def _two_sided(y: float, m: float, r: float, delta: float, p1: float, p2: float) -> tuple[float, float]:
    """x(y) and g(y) of the two-sided pasting equations at rate m > delta."""
    inv_gap_rm = 1.0 / r - 1.0 / m
    inv_gap_dm = 1.0 / delta - 1.0 / m
    denom = 1.0 / (p1 * delta) + p2 / (1.0 + p2) * inv_gap_rm * y**-p1
    x = (inv_gap_dm / denom) ** (1.0 / (p1 - 1.0))
    return x, p1 / (p1 - 1.0) * inv_gap_rm * y**p2 - inv_gap_dm * x ** (1.0 + p2) - 1.0 / (p2 * delta)


def _y_bar(m: float, r: float, delta: float, p1: float, p2: float) -> float:
    """The end of g's rising stretch when m > p1 delta/(p1-1)."""
    return ((p2 / (1.0 + p2) * (1.0 / r - 1.0 / m)) / ((p1 - 1.0) / (p1 * delta) - 1.0 / m)) ** (1.0 / p1)


def solve_abm(params: ModelParams, m: float) -> SolvedContract:
    """Value function and optimal prepayment boundaries of the ABM."""
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0

    if m <= delta:
        try:
            h2 = b0 * ((1.0 / r - (1.0 - 1.0 / p1) / delta) / (1.0 / r - 1.0 / m)) ** (1.0 / p2)
        except OverflowError:
            raise UnsupportedRegime(f"prepayment boundary exceeds floating-point range at m={m}") from None
        ct1, ct2 = _top_pasting(m * b0 * (1.0 / r - 1.0 / m), h2, p1, p2)
        c1 = ct1 - m * b0 ** (1.0 - p1) / (p1 + p2) * ((1.0 + p2) / delta - p2 / r)
        regions = (
            Region(0.0, b0, Action.CONTINUE, c_p1=c1, k1=m / delta),
            Region(b0, h2, Action.CONTINUE, c_p1=ct1, c_p2=ct2, k0=m * b0 / r),
            Region(h2, INF, Action.PREPAY, k0=b0),
        )
        return SolvedContract(regions=regions, boundaries={"h2": h2}, exponents=ex)

    def g(y: float) -> float:
        return _two_sided(y, m, r, delta, p1, p2)[1]

    y_lo = 1.0 + 1e-10
    if m > p1 * delta / (p1 - 1.0):
        y_hi = _y_bar(m, r, delta, p1, p2)
    else:
        _, y_hi = grow_bracket(g, y_lo, 2.0, cap=1e6 * b0)
    if not (g(y_lo) < 0.0 <= g(y_hi)):
        raise NoBracket(
            f"lower-boundary equation has unexpected signs: g({y_lo})={g(y_lo)}, g({y_hi})={g(y_hi)}"
        )
    y_hat = find_root_bracketed(g, y_lo, y_hi)
    x_hat = _two_sided(y_hat, m, r, delta, p1, p2)[0]
    h1, h2 = b0 * x_hat, b0 * y_hat

    ct1, ct2 = _top_pasting(m * b0 * (1.0 / r - 1.0 / m), h2, p1, p2)
    c1, c2 = _low_pasting(1.0, m / delta - 1.0, h1, p1, p2)

    regions = (
        Region(0.0, h1, Action.PREPAY, k1=1.0),
        Region(h1, b0, Action.CONTINUE, c_p1=c1, c_p2=c2, k1=m / delta),
        Region(b0, h2, Action.CONTINUE, c_p1=ct1, c_p2=ct2, k0=m * b0 / r),
        Region(h2, INF, Action.PREPAY, k0=b0),
    )
    return SolvedContract(regions=regions, boundaries={"h1": h1, "h2": h2}, exponents=ex)


def solve_abm_no_prepay(params: ModelParams, m: float) -> SolvedContract:
    """Expected discounted payment stream of an ABM held forever.

    Continuation everywhere; the two pieces paste (value and slope) at the
    coupon kink B0:

        V(h) = A h^{p1} + (m/delta) h          on (0, B0]
        V(h) = B h^{-p2} + m B0 / r            on (B0, inf)

    with A = -((1+p2)/(p1 (p1+p2))) (m/delta) B0^{1-p1} and
    B = -((p1-1)/(p2 (p1+p2))) (m/delta) B0^{1+p2}, both negative.
    """
    m = require_positive_spread(m, params)
    return _held_forever(m, params.b0, params, compute_exponents(params))


def _max_rate(params: ModelParams) -> float:
    """Largest rate at which the ABM holds at h = 1, capped at ``RATE_CAP``.

    Solves h2 = 1, i.e. y = 1/B0, in the pasting equations: explicitly when
    that rate is at most delta, else as the root in m of G(m) = g(1/B0; m)
    on [delta, RATE_CAP], where G(m) < 0 means h2 > 1.  G crosses zero once
    there but need not be monotone, so its sign at delta is checked, as is
    1/B0 <= y_bar at a root above p1 delta/(p1-1), where g rises only up to
    y_bar.  No rate below lo = r (1 + 1e-9), the lowest rate ``max_rate``
    reports for any contract, is returned: the bracket starts at lo when
    delta < lo, and lo itself is returned when h2 <= 1 there already.
    """
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0
    lo = r * (1.0 + 1e-9)
    try:
        m = 1.0 / (1.0 / r - (1.0 / r - (1.0 - 1.0 / p1) / delta) * b0**p2)
        if m <= delta or delta >= RATE_CAP:  # a rate at the cap is then one-sided
            return min(max(m, lo), RATE_CAP)

        y = 1.0 / b0

        def gap(m: float) -> float:
            return _two_sided(y, m, r, delta, p1, p2)[1]

        m_lo = max(delta, lo)
        g_lo = gap(m_lo)
        if m_lo == lo and g_lo >= 0.0:
            return lo  # h2 <= 1 already at the lowest rate
        if not g_lo < 0.0:
            raise NoBracket(f"h2 does not exceed 1 at the rate {m_lo}: G={g_lo}")
        if gap(RATE_CAP) < 0.0:
            return RATE_CAP
        m = find_root_bracketed(gap, m_lo, RATE_CAP)
        if m > p1 * delta / (p1 - 1.0) and not y <= _y_bar(m, r, delta, p1, p2):
            raise NoBracket(f"1/B0={y} lies past g's rising stretch at the rate {m}")
        return m
    except OverflowError:
        raise UnsupportedRegime(f"the rate equation exceeds floating-point range at {params}") from None
