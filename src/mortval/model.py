"""Market primitives and the characteristic exponents of the pricing ODE.

The house price index follows a geometric Brownian motion under the
pricing measure,

    dH_t / H_t = (r - delta) dt + sigma dW_t,

where ``delta`` is the owner's benefit (dividend) rate.  Every perpetual
contract value solves the second-order ODE

    (sigma^2/2) h^2 V'' + (r - delta) h V' - r V + c(h) = 0

on its continuation region, whose homogeneous solutions are h^{p1} and
h^{-p2}.  The pair (p1, p2) therefore drives every closed form in this
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams


@dataclass(frozen=True)
class ModelParams:
    """Market primitives: rates, volatility, and initial loan-to-value.

    All rates are annual, continuously compounded, expressed as decimals
    (0.0326, never 3.26).  The house purchase price is normalized to 1, so
    ``b0`` is the initial loan-to-value.
    """

    r: float
    delta: float
    sigma: float
    b0: float

    def __post_init__(self) -> None:
        # One input type: numpy scalars would otherwise carry numpy's
        # arithmetic (inf with a warning where floats raise OverflowError).
        for name in ("r", "delta", "sigma", "b0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.r > 0.0):
            raise InvalidParams(f"risk-free rate must be positive, got {self.r}")
        if not (self.delta > 0.0):
            # Several boundary formulas divide by delta, and the model's
            # economics require a strictly positive benefit rate.
            raise InvalidParams(f"benefit rate must be positive, got {self.delta}")
        if not (self.sigma > 0.0):
            raise InvalidParams(f"volatility must be positive, got {self.sigma}")
        if not (0.0 < self.b0 <= 1.0):
            raise InvalidParams(f"loan-to-value must lie in (0, 1], got {self.b0}")


@dataclass(frozen=True)
class Exponents:
    """Characteristic pair of the homogeneous ODE.

    p1 > 1 and -p2 < 0 are the two roots of
        (sigma^2/2) p (p - 1) + (r - delta) p - r = 0,
    and they satisfy the identity
        (1 + p2)/p2 * (p1 - 1)/p1 = delta / r,
    which the solvers use repeatedly.
    """

    p1: float
    p2: float


def compute_exponents(params: ModelParams) -> Exponents:
    """Solve the characteristic quadratic for (p1, p2).

    The roots of (sigma^2/2) p^2 + (r - delta - sigma^2/2) p - r = 0 are
    p1 and -p2.  The larger-magnitude root is computed from the quadratic
    formula and the other recovered from the product p1 * p2 = 2r/sigma^2,
    which avoids cancellation and keeps the p1/p2 identity at rounding
    level.
    """
    r, delta, sig2 = params.r, params.delta, params.sigma**2
    nu = r - delta - 0.5 * sig2
    disc = math.sqrt(nu * nu + 2.0 * r * sig2)
    if nu <= 0.0:
        p1 = (disc - nu) / sig2
        p2 = 2.0 * r / (sig2 * p1)
    else:
        p2 = (disc + nu) / sig2
        p1 = 2.0 * r / (sig2 * p2)
    return Exponents(p1=p1, p2=p2)


def characteristic_residual(p: float, params: ModelParams) -> float:
    """Value of the characteristic quadratic at ``p``.

    Zero (to rounding) exactly at p = p1 and p = -p2; used by tests to
    validate the exponents independently of how they were computed.
    """
    return 0.5 * params.sigma**2 * p * (p - 1.0) + (params.r - params.delta) * p - params.r
