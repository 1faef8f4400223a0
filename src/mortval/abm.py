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
"""

from __future__ import annotations

from .contracts import require_positive_spread
from .errors import NoBracket
from .model import Exponents, ModelParams, compute_exponents
from .rootfind import find_root_bracketed, grow_bracket
from .solution import Action, Region, SolvedContract

INF = float("inf")


def _top_pasting(m: float, b0: float, r: float, h2: float, p1: float, p2: float) -> tuple[float, float]:
    """h^{p1} and h^{-p2} coefficients on (B0, h2), pasted to the prepayment payoff at h2."""
    scale = m * b0 * (1.0 / r - 1.0 / m) / (p1 + p2)
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


def solve_abm(params: ModelParams, m: float) -> SolvedContract:
    """Value function and optimal prepayment boundaries of the ABM."""
    require_positive_spread(m, params)
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0

    if m <= delta:
        h2 = b0 * ((1.0 / r - (1.0 - 1.0 / p1) / delta) / (1.0 / r - 1.0 / m)) ** (1.0 / p2)
        ct1, ct2 = _top_pasting(m, b0, r, h2, p1, p2)
        c1 = ct1 - m * b0 ** (1.0 - p1) / (p1 + p2) * ((1.0 + p2) / delta - p2 / r)
        regions = (
            Region(0.0, b0, Action.CONTINUE, c_p1=c1, k1=m / delta),
            Region(b0, h2, Action.CONTINUE, c_p1=ct1, c_p2=ct2, k0=m * b0 / r),
            Region(h2, INF, Action.PREPAY, k0=b0),
        )
        return SolvedContract(regions=regions, boundaries={"h2": h2}, exponents=ex)

    inv_gap_rm = 1.0 / r - 1.0 / m
    inv_gap_dm = 1.0 / delta - 1.0 / m

    def x_of_y(y: float) -> float:
        denom = 1.0 / (p1 * delta) + p2 / (1.0 + p2) * inv_gap_rm * y**-p1
        return (inv_gap_dm / denom) ** (1.0 / (p1 - 1.0))

    def g(y: float) -> float:
        return (
            p1 / (p1 - 1.0) * inv_gap_rm * y**p2
            - inv_gap_dm * x_of_y(y) ** (1.0 + p2)
            - 1.0 / (p2 * delta)
        )

    y_lo = 1.0 + 1e-10
    if m > p1 * delta / (p1 - 1.0):
        y_hi = ((p2 / (1.0 + p2) * inv_gap_rm) / ((p1 - 1.0) / (p1 * delta) - 1.0 / m)) ** (1.0 / p1)
    else:
        _, y_hi = grow_bracket(g, y_lo, 2.0, cap=1e6 * b0)
    if not (g(y_lo) < 0.0 <= g(y_hi)):
        raise NoBracket(
            f"lower-boundary equation has unexpected signs: g({y_lo})={g(y_lo)}, g({y_hi})={g(y_hi)}"
        )
    y_hat = find_root_bracketed(g, y_lo, y_hi)
    x_hat = x_of_y(y_hat)
    h1, h2 = b0 * x_hat, b0 * y_hat

    ct1, ct2 = _top_pasting(m, b0, r, h2, p1, p2)
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
    require_positive_spread(m, params)
    return _held_forever(m, params.b0, params, compute_exponents(params))
