"""Deterministic scalar root finding on a bracketing interval.

All free-boundary equations in this package reduce to scalar roots of
monotone functions on known brackets.  ``find_root_bracketed`` takes
Brent-style steps guarded by bisection, which converge even where the
boundary equations are steep near an end.  Where the slope comes with f,
``safeguarded_newton`` takes Newton steps guarded by the bracket (``rtsafe``,
Press et al., *Numerical Recipes*, 9.4) and stops by the same rule.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import MaxIterExceeded, NanResidual, NoBracket

_EPS = 2.220446049250313e-16  # float64 machine epsilon

# Residual tolerance relative to the bracket's value span |f(lo) - f(hi)|,
# the absolute residual floor, Brent's iteration cap and the steps
# ``safeguarded_newton`` takes before it gives up.  They are read at call time.
_REL_TOL = 1e-12
_ABS_TOL = 1e-14
_MAX_ITER = 200
_NEWTON_STEPS = 8


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Return a root of ``f`` inside [lo, hi].

    Requires f(lo) * f(hi) <= 0.  The iteration stops once the residual
    satisfies |f(x)| <= max(_ABS_TOL, _REL_TOL * |f(lo) - f(hi)|) *and* the
    bracket is within _REL_TOL of the iterate, or the bracket has collapsed
    to floating-point resolution.  Demanding both guards against functions
    that span many orders of magnitude across the bracket, where the
    residual criterion alone is met far from the root.  The sequence of
    iterates is fully determined by the inputs, so identical calls return
    bit-identical results.  A NaN of f at either end raises ``NoBracket``,
    and one at an iterate ``NanResidual``.
    """
    if not lo < hi:
        raise NoBracket(f"need lo < hi, got [{lo}, {hi}]")

    a, b = lo, hi
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb):
        raise NoBracket(f"f is NaN at an end: f({lo})={fa}, f({hi})={fb}")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NoBracket(f"f has the same sign at both ends: f({lo})={fa}, f({hi})={fb}")

    f_tol = max(_ABS_TOL, _REL_TOL * abs(fa - fb))
    two_eps, half_eps = 2.0 * _EPS, 0.5 * _EPS

    # Classic Brent bookkeeping: b is the current best iterate, c the
    # previous one with f(b) * f(c) <= 0, and [b, c] brackets the root.
    # afa, afb and afc track |fa|, |fb| and |fc|, each taken once.
    c, fc = a, fa
    afa, afb = abs(fa), abs(fb)
    afc = afa
    d = e = b - a

    for _ in range(_MAX_ITER):
        if afc < afb:
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            afa, afb, afc = afb, afc, afb

        ab = abs(b)
        tol = two_eps * ab + half_eps
        m = 0.5 * (c - b)
        am = abs(m)
        if am <= tol or fb == 0.0 or (afb <= f_tol and am <= _REL_TOL * max(ab, 1.0)):
            return b

        if abs(e) < tol or afa <= afb:
            d = e = m  # fall back to bisection
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s  # secant
                q = 1.0 - s
            else:
                q = fa / fc  # inverse quadratic interpolation
                t = fb / fc
                p = s * (2.0 * m * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m

        a, fa, afa = b, fb, afb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)
        if fb != fb:  # NaN
            raise NanResidual(f"f is NaN at {b} inside [{lo}, {hi}]")
        afb = abs(fb)
        if (fb > 0.0) == (fc > 0.0):
            c, fc, afc = a, fa, afa
            d = e = b - a

    raise MaxIterExceeded(f"no convergence within {_MAX_ITER} iterations")


def safeguarded_newton(f_and_slope: Callable[[float], tuple[float, float]], x: float, lo: float, hi: float,
                       f_lo: float, f_hi: float) -> tuple[float | None, float, float]:
    """Newton steps from ``x`` on an increasing f with f_lo = f(lo) <= 0 <= f(hi) = f_hi.

    ``f_and_slope(x)`` gives f(x) and f'(x).  Each residual's sign shrinks
    [lo, hi]; a step that leaves it, or a slope <= 0, is replaced by
    bisection; a NaN residual raises ``NanResidual``.  Returns (root, lo, hi).
    The root is an end where f is 0, or the stepped iterate (x if that leaves
    the bracket) once ``find_root_bracketed``'s rule holds: the residual within
    max(_ABS_TOL, _REL_TOL (f_hi - f_lo)) and the step within _REL_TOL max(|x|, 1).
    After ``_NEWTON_STEPS`` steps without that, it is None, for the caller to
    finish on the shrunken [lo, hi].
    """
    if f_lo == 0.0:
        return lo, lo, hi
    if f_hi == 0.0:
        return hi, lo, hi
    f_tol = max(_ABS_TOL, _REL_TOL * (f_hi - f_lo))
    for _ in range(_NEWTON_STEPS):
        f, slope = f_and_slope(x)
        if f != f:  # NaN
            raise NanResidual(f"f is NaN at {x} inside [{lo}, {hi}]")
        if f == 0.0:
            return x, lo, hi
        if f < 0.0:
            lo = x
        else:
            hi = x
        if slope > 0.0:
            stepped = x - f / slope
            if abs(f) <= f_tol and abs(stepped - x) <= _REL_TOL * max(abs(x), 1.0):
                return (stepped if lo <= stepped <= hi else x), lo, hi
            if lo < stepped < hi:
                x = stepped
                continue
        x = 0.5 * (lo + hi)
    return None, lo, hi


def grow_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cap: float = float("inf"),
) -> tuple[float, float]:
    """Double ``hi`` until [lo, hi] brackets a sign change.

    The lower end stays fixed.  Raises ``NoBracket`` once ``hi`` would
    exceed ``cap`` without the sign of f flipping.
    """
    f_lo = f(lo)
    while True:
        f_hi = f(hi)
        if f_lo * f_hi <= 0.0:
            return lo, hi
        if hi >= cap:
            raise NoBracket(f"no sign change of f on [{lo}, {cap}]")
        hi = min(hi * 2.0, cap)
