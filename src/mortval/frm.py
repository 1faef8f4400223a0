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

*Iteration.*  Newton steps from tau0.  On a convex increasing F started
above the root they fall monotonically onto it; the bracket still shrinks
on each residual's sign, and a step that leaves it is replaced by
bisection.  The iteration stops by ``find_root_bracketed``'s rule: the
residual within max(_ABS_TOL, _REL_TOL (F(0) - F(tau_lo))) and the step
within _REL_TOL max(|tau|, 1); it returns the stepped iterate.  After
``rootfind._NEWTON_STEPS`` steps without that, ``find_root_bracketed``
finishes on the shrunken bracket.
"""

from __future__ import annotations

import math

from .abm import _top_pasting
from .contracts import require_positive_spread
from .errors import NoBracket, UnsupportedRegime
from .model import ModelParams, compute_exponents
from . import rootfind
from .rootfind import find_root_bracketed
from .solution import Action, Region, SolvedContract

INF = float("inf")


def _pasting(tau: float, k: float, p1: float, p2: float, top: float) -> tuple[float, float]:
    """F(tau) and F'(tau) of the pasting equation, with top = F(0)."""
    k_em1 = k * math.expm1(tau)
    return top + p2 * tau + p1 * math.log1p(k_em1), p2 + p1 * (k + k_em1) / (1.0 + k_em1)


def _pasting_root(k: float, p1: float, p2: float, log_1pa: float) -> float:
    """The root tau of F on (tau_lo, 0]; see the module docstring."""
    top = (p1 + p2) * log_1pa
    lo, hi = -(1.0 + p1 / p2) * log_1pa, 0.0
    f_lo = _pasting(lo, k, p1, p2, top)[0]
    if not (f_lo < 0.0 < top):
        raise NoBracket(f"pasting equation has unexpected signs: F({lo})={f_lo}, F(0)={top}")
    rel_tol = rootfind._REL_TOL
    f_tol = max(rootfind._ABS_TOL, rel_tol * (top - f_lo))
    tau = min(lo - p1 / p2 * math.log1p(-k), hi)
    for _ in range(rootfind._NEWTON_STEPS):
        f, slope = _pasting(tau, k, p1, p2, top)
        if f == 0.0:
            return tau
        if f < 0.0:
            lo = tau
        else:
            hi = tau
        stepped = tau - f / slope
        if abs(f) <= f_tol and abs(stepped - tau) <= rel_tol * max(abs(tau), 1.0):
            return stepped if lo <= stepped <= hi else tau
        tau = stepped if lo < stepped < hi else 0.5 * (lo + hi)
    return find_root_bracketed(lambda t: _pasting(t, k, p1, p2, top)[0], lo, hi)


def solve_frm(params: ModelParams, m: float) -> SolvedContract:
    """Value function and optimal default/prepayment boundaries of the FRM.

    Regions: default on (0, h1], continue on (h1, h2), prepay on [h2, inf)
    with 0 < h1 < B0 < h2.  On the continuation region
    V(h) = C1 h^{p1} + C2 h^{-p2} + m B0 / r with C1, C2 < 0 obtained from
    the pasting conditions at h2.  A prepayment boundary or coefficient past
    the float range raises ``UnsupportedRegime``.
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
    try:
        h2 = h1 * math.exp((log_1pa + math.log1p(k * em1)) / p2)
        # Pasting at h2; smooth pasting at h1 then holds to root tolerance.
        # The load m B0 (1/r - 1/m) is taken as B0 (m - r)/r, free of the
        # cancellation in 1/r - 1/m, as A is: at a tiny spread that keeps
        # the pasting at h1 as accurate as h2.
        c1, c2 = _top_pasting(b0 * (m - r) / r, h2, p1, p2)
    except OverflowError:
        raise UnsupportedRegime(f"prepayment boundary exceeds floating-point range at m={m}") from None

    regions = (
        Region(0.0, h1, Action.DEFAULT, k1=1.0),
        Region(h1, h2, Action.CONTINUE, c_p1=c1, c_p2=c2, k0=m * b0 / r),
        Region(h2, INF, Action.PREPAY, k0=b0),
    )
    return SolvedContract(regions=regions, boundaries={"h1": h1, "h2": h2}, exponents=ex)


def solve_frm_no_prepay(params: ModelParams, m: float) -> SolvedContract:
    """FRM value when the borrower can only default (stop and hand over h).

    Single stopping boundary h1 = ((p1-1)/p1) m B0 / delta; above it
    V(h) = C2 h^{-p2} + m B0 / r with C2 = -h1^{1+p2} / p2 < 0.
    """
    m = require_positive_spread(m, params)
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    b0 = params.b0

    h1 = (p1 - 1.0) / p1 * m * b0 / params.delta
    c2 = -(h1 ** (1.0 + p2)) / p2

    regions = (
        Region(0.0, h1, Action.DEFAULT, k1=1.0),
        Region(h1, INF, Action.CONTINUE, c_p2=c2, k0=m * b0 / params.r),
    )
    return SolvedContract(regions=regions, boundaries={"h1": h1}, exponents=ex)
