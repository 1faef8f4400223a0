"""Piecewise-closed-form value functions produced by the solvers.

A solved contract is an ordered list of regions partitioning (0, inf).
On each region the value function has the form

    V(h) = c_p1 * h^{p1} + c_p2 * h^{-p2} + k0 + k1 * h,

which covers continuation regions (power terms plus the particular
solution of the coupon) as well as stopping regions (pure affine pieces:
V = h on a default region, V = B0 + alpha (h-1) on a prepayment band).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .errors import InvalidParams, UnsupportedRegime
from .model import Exponents


class Action(str, Enum):
    DEFAULT = "default"
    CONTINUE = "continue"
    PREPAY = "prepay"


def _power_term(coeff: float, h, exponent: float):
    """coeff * h**exponent evaluated in log space.

    Large characteristic exponents can push h**p past float range while
    the product with a correspondingly tiny coefficient stays ordinary;
    combining the factors in the exponent keeps the term finite whenever
    the term itself is.
    """
    return math.copysign(1.0, coeff) * np.exp(math.log(abs(coeff)) + exponent * np.log(h))


def checked_prices(h) -> np.ndarray:
    """``h`` as a float array, once every price in it is positive and finite."""
    h_arr = np.asarray(h, dtype=float)
    ok = (h_arr > 0.0) & (h_arr < np.inf)
    if not ok.all():
        raise InvalidParams(f"house price must be positive and finite, got {h_arr[~ok].flat[0]}")
    return h_arr


def checked_price(h: float) -> float:
    """``h`` itself, once it is a positive and finite price."""
    if not 0.0 < h < math.inf:
        raise InvalidParams(f"house price must be positive and finite, got {h}")
    return h


class Region(NamedTuple):
    """One piece of a solved value function on the interval (lo, hi)."""

    lo: float
    hi: float
    action: Action
    c_p1: float = 0.0
    c_p2: float = 0.0
    k0: float = 0.0
    k1: float = 0.0

    def value(self, h, exponents: Exponents):
        return self._power_sum(h, exponents, 0)

    def derivative(self, h, exponents: Exponents):
        return self._power_sum(h, exponents, 1)

    def second_derivative(self, h, exponents: Exponents):
        return self._power_sum(h, exponents, 2)

    def _power_sum(self, h, exponents: Exponents, order: int):
        """Derivative of the given order (0, 1 or 2) of this piece at ``h``.

        A Python float ``h`` must be a positive price.  It is evaluated
        without arrays but with the same operations and numpy ufuncs, so
        the result is the number the array path gives.
        """
        scalar = type(h) is float
        if not scalar:
            h = np.asarray(h, dtype=float)
        if order == 0:
            out = self.k0 + self.k1 * h
        elif scalar:
            out = self.k1 if order == 1 else 0.0
        else:
            out = np.full_like(h, self.k1 if order == 1 else 0.0)
        for coeff, p in ((self.c_p1, exponents.p1), (self.c_p2, -exponents.p2)):
            # Power terms are skipped when their coefficient is zero so that
            # affine stopping regions evaluate safely for arbitrarily large h.
            if coeff != 0.0:
                for j in range(order):
                    coeff *= p - j   # falling factorial p (p-1) ...
                if scalar:
                    out = out + _power_term(coeff, h, p - order)
                else:
                    with np.errstate(divide="ignore"):  # an array may hold h = 0
                        out = out + _power_term(coeff, h, p - order)
        return out


@dataclass(frozen=True)
class SolvedContract:
    """Ordered regions, named boundaries, and the exponents that built them.

    Regions are contiguous and cover (0, inf).  A price sitting exactly on
    a boundary belongs to the stopping side, matching the stopping rule
    "terminate on first entry into the stopping set"; by value matching the
    evaluated number is the same either way up to rounding.
    """

    regions: tuple[Region, ...]
    boundaries: Mapping[str, float]
    exponents: Exponents
    _cuts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regs = self.regions
        assert regs[0].lo == 0.0 and regs[-1].hi == math.inf
        # Prices up to each cut belong to the region left of it: the cut is the
        # edge, or one float below it where the stopping side is on the right.
        # One pass over the unpacked regions checks their order and
        # coefficients; a coefficient fault is raised once the order holds.
        cuts = []
        unrepresentable = None
        left_lo = left_hi = left_action = None
        for lo, hi, action, c_p1, c_p2, k0, k1 in regs:
            if left_action is not None:
                assert lo == left_hi and left_lo < left_hi
                right_owns = left_action is Action.CONTINUE and action is not Action.CONTINUE
                cuts.append(math.nextafter(left_hi, -math.inf) if right_owns else left_hi)
            if unrepresentable is None and not (
                math.isfinite(c_p1) and math.isfinite(c_p2) and math.isfinite(k0) and math.isfinite(k1)
            ):
                unrepresentable = (lo, hi)
            left_lo, left_hi, left_action = lo, hi, action
        object.__setattr__(self, "_cuts", tuple(cuts))
        if unrepresentable is not None:
            # Boundary exponent products past float range (p ln h beyond
            # ~700) have no representable coefficients; such regimes sit
            # far outside economically meaningful parameters.
            raise UnsupportedRegime(
                f"value-function coefficients exceed floating-point range on "
                f"({unrepresentable[0]}, {unrepresentable[1]})"
            )

    def region_index(self, h):
        """Index of the region owning each price in ``h``."""
        idx = np.searchsorted(self._cuts, h)
        return int(idx) if np.ndim(idx) == 0 else idx

    def region_at(self, h: float) -> Region:
        """Region owning the price ``h``, which must be positive and finite."""
        return self.regions[bisect_left(self._cuts, checked_price(float(h)))]

    def component_at(self, h: float) -> tuple[float, float] | None:
        """Ends (a, b) of the continuation component holding ``h``, or None
        where ``h`` lies in a stopping region.  a may be 0 and b infinite."""
        regs = self.regions
        i = j = bisect_left(self._cuts, checked_price(float(h)))
        if regs[i].action is not Action.CONTINUE:
            return None
        while i > 0 and regs[i - 1].action is Action.CONTINUE:
            i -= 1
        while j + 1 < len(regs) and regs[j + 1].action is Action.CONTINUE:
            j += 1
        return regs[i].lo, regs[j].hi

    def _apply(self, h, order: int):
        """Derivative of the given order at ``h``: a float, or an array like ``h``."""
        if not isinstance(h, float):
            h = checked_prices(h)
            if h.ndim:
                idx = self.region_index(h)
                out = np.empty_like(h)
                for i, reg in enumerate(self.regions):
                    mask = idx == i
                    if mask.any():
                        out[mask] = reg._power_sum(h[mask], self.exponents, order)
                return out
        h = checked_price(float(h))
        return float(self.regions[bisect_left(self._cuts, h)]._power_sum(h, self.exponents, order))

    def value(self, h):
        """Contract value at ``h`` (scalar or array)."""
        return self._apply(h, 0)

    def derivative(self, h):
        return self._apply(h, 1)

    def to_dict(self) -> dict:
        """JSON-friendly representation (infinite upper ends become None)."""
        return {
            "regions": [
                {
                    "lo": reg.lo,
                    "hi": None if np.isinf(reg.hi) else reg.hi,
                    "action": reg.action.value,
                    "coeffs": {"c_p1": reg.c_p1, "c_p2": reg.c_p2, "k0": reg.k0, "k1": reg.k1},
                }
                for reg in self.regions
            ],
            "boundaries": dict(self.boundaries),
            "exponents": {"p1": self.exponents.p1, "p2": self.exponents.p2},
        }
