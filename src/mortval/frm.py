"""Closed-form perpetual fixed-rate mortgage values.

The full contract has a default boundary h1 below the loan balance and a
prepayment boundary h2 above it.  Writing h1 = B0 x and h2 = B0 y, value
matching and smooth pasting at both boundaries collapse to one scalar
equation for x,

    base1^{p1} base2^{p2} = 1,   base1 = 1 + A - A s1 x,   base2 = 1 + A - A s2 x,

with A = r / (m - r), s1 = (p1-1)/p1 < 1 and s2 = (1+p2)/p2 > 1, after
which y = x base1^{1/p2}.

The root is found in tau = log(base2 / (1 + A)) <= 0, which runs over
(-inf, 0] as x runs from the end of the domain, where base2 = 0, down to
x = 0.  With k = s1/s2 < 1 and L = log(1 + A) > 0,

    x(tau) = -(m/r) expm1(tau) / s2,
    base1 = (1 + A) q(tau),   q(tau) = 1 + k expm1(tau) > 1 - k > 0,
    F(tau) = p1 log(base1) + p2 log(base2) = (p1 + p2) L + p2 tau + p1 log q(tau),

and F = 0 at the root.  Logs replace the powers, so F cannot overflow, and
expm1 keeps x free of cancellation as x -> 0.  F' = p2 + p1 k e^tau / q > 0
and F'' = p1 k (1 - k) e^tau / q^2 > 0: F is increasing and convex, so the
root is unique.

*Bracket.*  F(0) = (p1 + p2) L > 0.  Since q <= 1, F(tau) <= (p1 + p2) L
+ p2 tau, which is negative for every tau < tau_lo = -(1 + p1/p2) L, and
F(tau_lo) = p1 log q(tau_lo) < 0.  So the root lies in (tau_lo, 0).  The
float signs at both ends are checked all the same; a disagreement raises
``NoBracket``.

*Start.*  Freezing base1 at its value where base2 = 0, q = 1 - k, gives

    tau0 = -L - (p1/p2) (L + log(1 - k)),

the root in the limit of a vanishing spread (A -> inf), where the root
runs into the end of the domain.  q(tau0) > 1 - k, so F(tau0) > 0: tau0
lies above the root, or is clamped to 0.

*Iteration.*  ``rootfind.safeguarded_newton`` from tau0: on a convex
increasing F started above the root, Newton steps fall monotonically onto
it.  ``find_root_bracketed`` finishes if need be.
"""

from __future__ import annotations

import math

from .contracts import require_positive_spread
from .errors import NoBracket
from .model import ModelParams, compute_exponents
from . import rootfind
from .rootfind import find_root_bracketed
from .solution import CONTINUE, DEFAULT, PREPAY, SolvedContract, build

INF = float("inf")


def _pasting(tau: float, k: float, p1: float, p2: float, top: float) -> tuple[float, float]:
    """F(tau) and F'(tau) of the pasting equation, with top = F(0)."""
    k_em1 = k * math.expm1(tau)
    return top + p2 * tau + p1 * math.log1p(k_em1), p2 + p1 * (k + k_em1) / (1.0 + k_em1)


def _pasting_root(k: float, p1: float, p2: float, log_1pa: float) -> float:
    """The root tau of F on (tau_lo, 0]; see the module docstring."""
    top = (p1 + p2) * log_1pa
    lo = -(1.0 + p1 / p2) * log_1pa
    f_lo = _pasting(lo, k, p1, p2, top)[0]
    if not (f_lo < 0.0 < top):
        raise NoBracket(f"pasting equation has unexpected signs: F({lo})={f_lo}, F(0)={top}")
    tau0 = min(lo - p1 / p2 * math.log1p(-k), 0.0)
    tau, lo, hi = rootfind.safeguarded_newton(lambda t: _pasting(t, k, p1, p2, top), tau0, lo, 0.0, f_lo, top)
    return find_root_bracketed(lambda t: _pasting(t, k, p1, p2, top)[0], lo, hi) if tau is None else tau


def _skeleton(bounds: dict, coupon: float, balance: float) -> tuple:
    """Default below h1, ``coupon`` while held, ``balance`` from any h2 in ``bounds``."""
    h1, h2 = bounds["h1"], bounds.get("h2", INF)
    pieces = ((0.0, h1, DEFAULT, 0.0, 1.0), (h1, h2, CONTINUE, coupon, 0.0))
    return pieces + ((h2, INF, PREPAY, balance, 0.0),) if "h2" in bounds else pieces


def solve_frm(params: ModelParams, m: float) -> SolvedContract:
    """Value function and optimal default/prepayment boundaries of the FRM.

    Regions: default on (0, h1], continue on (h1, h2), prepay on [h2, inf)
    with 0 < h1 < B0 < h2.  On the continuation region
    V(h) = C1 (h/h2)^{p1} + C2 (h1/h)^{p2} + m B0 / r with C1, C2 < 0
    obtained from value matching at h1 and h2; smooth pasting at both then
    holds to root tolerance.  A prepayment boundary past the float range is
    a boundary at infinity: the contract has no h2 and is never prepaid.
    """
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, b0 = params.r, params.b0

    slope2 = (1.0 + p2) / p2
    k = (p1 - 1.0) / p1 / slope2
    log_1pa = math.log1p(r / (m - r))
    tau = _pasting_root(k, p1, p2, log_1pa)

    em1 = math.expm1(tau)
    x = -(m / r) * em1 / slope2
    h1 = b0 * x
    bounds = {"h1": h1}
    try:
        bounds["h2"] = h1 * math.exp((log_1pa + math.log1p(k * em1)) / p2)
    except OverflowError:
        pass  # h2 at infinity: the contract is never prepaid
    return build(_skeleton(bounds, m * b0, b0), bounds, ex, r, params.delta)


def solve_frm_no_prepay(params: ModelParams, m: float) -> SolvedContract:
    """FRM value when the borrower can only default (stop and hand over h).

    Single stopping boundary h1 = ((p1-1)/p1) m B0 / delta; above it
    V(h) = C2 (h1/h)^{p2} + m B0 / r with C2 = -h1 / p2 < 0.
    """
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    b0 = params.b0
    bounds = {"h1": (ex.p1 - 1.0) / ex.p1 * m * b0 / params.delta}
    return build(_skeleton(bounds, m * b0, b0), bounds, ex, params.r, params.delta)
