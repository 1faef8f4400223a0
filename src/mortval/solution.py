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
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import InvalidParams, UnsupportedRegime
from .model import Exponents


class Action(str, Enum):
    DEFAULT = "default"
    CONTINUE = "continue"
    PREPAY = "prepay"


def _power_term(coeff: float, h: np.ndarray, exponent: float) -> np.ndarray:
    """coeff * h**exponent evaluated in log space.

    Large characteristic exponents can push h**p past float range while
    the product with a correspondingly tiny coefficient stays ordinary;
    combining the factors in the exponent keeps the term finite whenever
    the term itself is.
    """
    with np.errstate(divide="ignore"):
        magnitude = np.exp(math.log(abs(coeff)) + exponent * np.log(h))
    return math.copysign(1.0, coeff) * magnitude


@dataclass(frozen=True)
class Region:
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
        """Derivative of the given order (0, 1 or 2) of this piece at ``h``."""
        h = np.asarray(h, dtype=float)
        if order == 0:
            out = self.k0 + self.k1 * h
        else:
            out = np.full_like(h, self.k1 if order == 1 else 0.0)
        for coeff, p in ((self.c_p1, exponents.p1), (self.c_p2, -exponents.p2)):
            # Power terms are skipped when their coefficient is zero so that
            # affine stopping regions evaluate safely for arbitrarily large h.
            if coeff != 0.0:
                for j in range(order):
                    coeff *= p - j   # falling factorial p (p-1) ...
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
    _cuts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regs = self.regions
        assert regs[0].lo == 0.0 and regs[-1].hi == np.inf
        # Prices up to each cut belong to the region left of it: the cut is the
        # edge, or one float below it where the stopping side is on the right.
        cuts = []
        for left, right in zip(regs, regs[1:]):
            assert left.hi == right.lo and left.lo < left.hi
            right_owns = left.action is Action.CONTINUE and right.action is not Action.CONTINUE
            cuts.append(math.nextafter(left.hi, -math.inf) if right_owns else left.hi)
        object.__setattr__(self, "_cuts", np.array(cuts))
        for reg in regs:
            if not all(map(math.isfinite, (reg.c_p1, reg.c_p2, reg.k0, reg.k1))):
                # Boundary exponent products past float range (p ln h beyond
                # ~700) have no representable coefficients; such regimes sit
                # far outside economically meaningful parameters.
                raise UnsupportedRegime(
                    f"value-function coefficients exceed floating-point range on "
                    f"({reg.lo}, {reg.hi})"
                )

    def region_index(self, h):
        """Index of the region owning each price in ``h``."""
        idx = np.searchsorted(self._cuts, h)
        return int(idx) if np.ndim(idx) == 0 else idx

    def region_at(self, h: float) -> Region:
        return self.regions[self.region_index(float(h))]

    def _apply(self, h, fn: str):
        h_arr = np.asarray(h, dtype=float)
        ok = (h_arr > 0.0) & (h_arr < np.inf)
        if not ok.all():
            raise InvalidParams(f"house price must be positive and finite, got {h_arr[~ok].flat[0]}")
        if h_arr.ndim == 0:
            h = float(h_arr)
            return float(getattr(self.regions[self.region_index(h)], fn)(h, self.exponents))
        idx = self.region_index(h_arr)
        out = np.empty_like(h_arr)
        for i, reg in enumerate(self.regions):
            mask = idx == i
            if mask.any():
                out[mask] = getattr(reg, fn)(h_arr[mask], self.exponents)
        return out

    def value(self, h):
        """Contract value at ``h`` (scalar or array)."""
        return self._apply(h, "value")

    def derivative(self, h):
        return self._apply(h, "derivative")

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
