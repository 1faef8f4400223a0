"""Closed-form perpetual fixed-rate mortgage values.

The full contract has a default boundary h1 below the loan balance and a
prepayment boundary h2 above it.  Writing h1 = B0 x and h2 = B0 y, value
matching and smooth pasting at both boundaries collapse to one scalar
equation for x,

    chi(x) = (1 + A (1 - (p1-1)/p1 x))^{p1} (1 - A ((1+p2)/p2 x - 1))^{p2} = 1,

with A = 1 / (m/r - 1), after which y follows from

    y = x (1 + A (1 - (p1-1)/p1 x))^{1/p2}.

chi is strictly decreasing with chi(0) > 1, and its admissible domain ends
where the second base hits zero, at x = (p1-1) m / (p1 delta); combined
with chi(1) < 1 this brackets the unique root in
(0, min(1, (p1-1) m / (p1 delta))).
"""

from __future__ import annotations

from .contracts import require_positive_spread
from .model import ModelParams, compute_exponents
from .rootfind import find_root_bracketed
from .solution import Action, Region, SolvedContract

INF = float("inf")


def solve_frm(params: ModelParams, m: float) -> SolvedContract:
    """Value function and optimal default/prepayment boundaries of the FRM.

    Regions: default on (0, h1], continue on (h1, h2), prepay on [h2, inf)
    with 0 < h1 < B0 < h2.  On the continuation region
    V(h) = C1 h^{p1} + C2 h^{-p2} + m B0 / r with C1, C2 < 0 obtained from
    the pasting conditions at h2.
    """
    require_positive_spread(m, params)
    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, delta, b0 = params.r, params.delta, params.b0

    big_a = 1.0 / (m / r - 1.0)
    slope1 = (p1 - 1.0) / p1
    slope2 = (1.0 + p2) / p2

    def chi(x: float) -> float:
        base1 = 1.0 + big_a * (1.0 - slope1 * x)
        base2 = 1.0 - big_a * (slope2 * x - 1.0)
        return base1**p1 * max(base2, 0.0) ** p2 - 1.0

    x_max = min(1.0, slope1 * m / delta)
    shrink = 1e-12 * x_max
    hi = x_max - shrink
    if chi(hi) > 0.0:
        # Near-zero spread: the root sits closer to the domain endpoint than
        # float spacing allows.  The clamped second base sends chi to -1
        # just past the endpoint, so widen the bracket to that jump.
        hi = x_max
        for _ in range(64):
            if chi(hi) <= 0.0:
                break
            hi *= 1.0 + 1e-12
    x_hat = find_root_bracketed(chi, shrink, hi)
    y_hat = x_hat * (1.0 + big_a * (1.0 - slope1 * x_hat)) ** (1.0 / p2)

    h1 = b0 * x_hat
    h2 = b0 * y_hat

    # Pasting at h2; smooth pasting at h1 then holds to root tolerance.
    scale = m * b0 * (1.0 / r - 1.0 / m) / (p1 + p2)
    c1 = -p2 * scale * h2**-p1
    c2 = -p1 * scale * h2**p2

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
    require_positive_spread(m, params)
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
