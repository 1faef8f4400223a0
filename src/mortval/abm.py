"""Closed-form perpetual adjustable-balance mortgage values, and the one
pasting equation that the ABM and the APRM share.

The balance cap removes the default motive; what remains is prepayment.
On a unit balance, value matching and smooth pasting at the free
boundaries (Dixit and Pindyck, *Investment under Uncertainty*, ch. 4)
leave one scalar equation g(y) = 0 for the upper boundary h2 = y, and the
lower boundary h1 = x(y) explicit:

    g(y) = (p1/(p1-1) (1/r - 1/m) + A (p1/(p1-1) - y)) y^{p2}
           - (1/delta - 1/m) x(y)^{1+p2} - 1/(p2 delta),
    x(y) = ((1/delta - 1/m) / (1/(p1 delta) + L(y) y^{-p1}))^{1/(p1-1)}.

The ABM has A = 0 and L = p2/(1+p2) (1/r - 1/m).  The APRM's sharing
alpha (h - 1)^+ makes A = alpha/(m B0) and L(y) = A (h3 - y), h3 the
band's outer edge (``aprm``).  No h1 exists at m <= delta, where x = 0.
A balance B0 scales both boundaries.

* m <= delta, A = 0: h2 alone, explicit:
  h2 = B0 ((1/r - (1 - 1/p1)/delta) / (1/r - 1/m))^{1/p2},
  and no boundary at all when that is past the float range.
* otherwise: g increases wherever x(y) < 1 < y, so h2 is its root on
  [1 + 1e-10, end], and h1 = B0 x(h2/B0).  The end is
  - h3 when A > 0; at m >= m* = p1 delta/(p1-1), x reaches 1 first, and
    the end shrinks to that point, the root of
    A (h3 - y) y^{-p1} = ((p1-1)/p1 - delta/m)/delta;
  - y_bar = ((p2/(1+p2))(1/r - 1/m) / ((p1-1)/(p1 delta) - 1/m))^{1/p1},
    where x reaches 1, at A = 0 and m > m*;
  - else (A = 0, delta < m <= m*, where g rises for ever) the largest
    float: the root is taken of g(e^u) e^{-p2 u}, finite for every u, in
    u = log y.  Where it stays negative up to the largest float, h2 is at
    infinity, and h1 is x's limit as y -> inf, an empty band's h1 below.

This equation alone decides the APRM's band.  Below m*, with A > 0, the
band is empty when h3 <= 1 + 1e-10, when g(h3) <= 0, or when the root
lands on h3; this is alpha >= alpha* (``aprm``) up to rounding.  Then x's
limit h1 = (p1 (1 - delta/m))^{1/(p1-1)} is the one boundary at m > delta,
and there is none at m <= delta.

The largest rate at which the ABM holds at origination (``max_rate``)
puts h2 = 1, i.e. y = 1/B0, into these equations.  When the rate is at
most delta it is explicit,

    1/m = 1/r - (1/r - (1 - 1/p1)/delta) B0^{p2};

otherwise it is the one root in m of G(m) = g(1/B0; m) on
[delta, RATE_CAP], and the cap when G stays negative there.
"""

from __future__ import annotations

import math
import sys

from .contracts import RATE_CAP, require_positive_spread
from .errors import NoBracket, UnsupportedRegime, float_faults_unsupported
from .model import Exponents, ModelParams, compute_exponents
from .rootfind import find_root_bracketed
# ``grow_bracket`` is unused here but stays bound: the tracer in
# perfbench/tracing.py wraps it through this module's namespace (ROADMAP item 1a).
from .rootfind import grow_bracket  # noqa: F401
from .solution import CONTINUE, PREPAY, SolvedContract, build

INF = float("inf")
_LOG_MAX = math.log(sys.float_info.max)


def _skeleton(balance: float, scale: float, m: float, bounds: dict, alpha: float = 0.0) -> tuple:
    """Pieces of a contract paying scale m min(balance, h) while held, prepaid for
    scale min(balance, h) + alpha (h - balance)^+ below h1 and on [h2, h3) where
    ``bounds`` has them: the ABM has scale 1 and balance B0, the APRM the reverse."""
    h1, h2, h3 = bounds.get("h1", 0.0), bounds.get("h2", INF), bounds.get("h3", INF)
    capped = m * scale * balance
    pieces = ((h1, balance, CONTINUE, 0.0, m * scale), (balance, h2, CONTINUE, capped, 0.0))
    if "h1" in bounds:
        pieces = ((0.0, h1, PREPAY, 0.0, scale),) + pieces
    if "h2" in bounds:
        pieces += ((h2, h3, PREPAY, scale * balance - alpha * balance, alpha),)
    if "h3" in bounds:
        pieces += ((h3, INF, CONTINUE, capped, 0.0),)
    return pieces


def _pasting(m: float, r: float, delta: float, p1: float, p2: float, share: float = 0.0, h3: float = INF):
    """x(y) and g(y) of the module docstring, on a unit balance, with the
    sharing term ``share`` = A and the band edge ``h3`` (inf at A = 0); and, at
    A = 0, g(e^u) e^{-p2 u}, which stays finite up to y = e^u = DBL_MAX."""
    inv_gap_rm = 1.0 / r - 1.0 / m
    inv_gap_dm = 1.0 / delta - 1.0 / m
    kink = p1 / (p1 - 1.0)
    lead0 = kink * inv_gap_rm
    lift0 = p2 / (1.0 + p2) * inv_gap_rm
    base = 1.0 / (p1 * delta)
    tail = 1.0 / (p2 * delta)
    root, power = 1.0 / (p1 - 1.0), 1.0 + p2
    lower = inv_gap_dm > 0.0

    def x(y: float) -> float:
        if not lower:
            return 0.0
        lift = share * (h3 - y) if share else lift0
        return (inv_gap_dm / (base + lift * y**-p1)) ** root

    def g(y: float) -> float:
        lead = lead0 + share * (kink - y) if share else lead0
        return lead * y**p2 - inv_gap_dm * x(y) ** power - tail

    def g_log(u: float) -> float:
        y = math.exp(u)
        return lead0 - (inv_gap_dm * x(y) ** power + tail) * y**-p2

    return x, g, g_log


def _y_bar(m: float, r: float, delta: float, p1: float, p2: float) -> float:
    """Where x reaches 1 at A = 0 and m > p1 delta/(p1-1), the end of g's rising stretch."""
    return ((p2 / (1.0 + p2) * (1.0 / r - 1.0 / m)) / ((p1 - 1.0) / (p1 * delta) - 1.0 / m)) ** (1.0 / p1)


def _boundaries(m: float, r: float, delta: float, ex: Exponents, balance: float,
                share: float = 0.0, h3: float = INF) -> dict:
    """Prepayment boundaries at ``balance``: h2, h1 when m > delta, and the band
    edge h3 when ``share`` > 0 leaves a band; ``share`` and ``h3`` are on a unit
    balance."""
    p1, p2 = ex.p1, ex.p2
    if m <= delta and not share:
        try:
            return {"h2": balance * ((1.0 / r - (1.0 - 1.0 / p1) / delta) / (1.0 / r - 1.0 / m)) ** (1.0 / p2)}
        except OverflowError:
            return {}  # h2 at infinity: held forever

    x, g, g_log = _pasting(m, r, delta, p1, p2, share, h3)
    y_lo, m_star = 1.0 + 1e-10, p1 * delta / (p1 - 1.0)
    band = share > 0.0 and m < m_star  # a band, which may be empty
    f, lo, hi = g, y_lo, h3
    if share and not h3 < INF:
        raise UnsupportedRegime(f"band edge h3 exceeds the float range at m={m}")
    if share and m >= m_star:
        rhs = ((p1 - 1.0) / p1 - delta / m) / delta
        hi = find_root_bracketed(lambda y: share * (h3 - y) * y**-p1 - rhs, 1.0, h3)
    elif not share and m > m_star:
        hi = _y_bar(m, r, delta, p1, p2)
    elif not share:
        f, lo, hi = g_log, math.log(y_lo), _LOG_MAX
    f_hi = f(hi)
    if (band or f is g_log) and not (lo < hi and f_hi > 0.0):
        y_hat = INF  # no root below h3, or none in the float range
    else:
        f_lo = f(lo)
        if not f_lo < 0.0 <= f_hi:
            raise NoBracket(f"pasting equation has unexpected signs: f({lo})={f_lo}, f({hi})={f_hi}")
        root = find_root_bracketed(f, lo, hi)
        y_hat = math.exp(root) if f is g_log else root
    if y_hat >= h3:  # the band is empty, or h2 is at infinity
        return {"h1": balance * (p1 * (1.0 - delta / m)) ** (1.0 / (p1 - 1.0))} if m > delta else {}
    bounds = {"h1": balance * x(y_hat)} if m > delta else {}
    bounds["h2"] = balance * y_hat
    if share:
        bounds["h3"] = balance * h3
    return bounds


@float_faults_unsupported
def solve_abm(params: ModelParams, m: float) -> SolvedContract:
    """Value function and optimal prepayment boundaries of the ABM."""
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    r, delta, b0 = params.r, params.delta, params.b0
    bounds = _boundaries(m, r, delta, ex, b0)
    return build(_skeleton(b0, 1.0, m, bounds), bounds, ex, r, delta)


def solve_abm_no_prepay(params: ModelParams, m: float) -> SolvedContract:
    """Expected discounted payment stream of an ABM held forever.

    Continuation everywhere; the two pieces paste (value and slope) at the
    coupon kink B0:

        V(h) = A (h/B0)^{p1} + (m/delta) h     on (0, B0]
        V(h) = B (B0/h)^{p2} + m B0 / r        on (B0, inf)

    with A = -((1+p2)/(p1 (p1+p2))) (m/delta) B0 and
    B = -((p1-1)/(p2 (p1+p2))) (m/delta) B0, both negative.
    """
    m = require_positive_spread(m, params)
    return build(_skeleton(params.b0, 1.0, m, {}), {}, compute_exponents(params), params.r, params.delta)


@float_faults_unsupported
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
    m = 1.0 / (1.0 / r - (1.0 / r - (1.0 - 1.0 / p1) / delta) * b0**p2)
    if m <= delta or delta >= RATE_CAP:  # a rate at the cap is then one-sided
        return min(max(m, lo), RATE_CAP)

    y = 1.0 / b0

    def gap(m: float) -> float:
        return _pasting(m, r, delta, p1, p2)[1](y)

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
