"""Piecewise-closed-form value functions produced by the solvers.

A solved contract is an ordered list of regions partitioning (0, inf).
On each region (lo, hi) the value function has the form

    V(h) = c_p1 * (h/hi)^{p1} + c_p2 * (lo/h)^{p2} + k0 + k1 * h,

which covers continuation regions (power terms plus the particular
solution of the coupon) as well as stopping regions (pure affine pieces:
V = h on a default region, V = B0 + alpha (h-1) on a prepayment band).

Each power term is anchored at the region end where it is largest, so its
coefficient is its value there (a nonzero c_p1 needs a finite hi, a
nonzero c_p2 a positive lo), and only ratios of region ends are raised
to a power.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import InvalidParams, UnsupportedRegime
from .model import Exponents

if TYPE_CHECKING:
    import numpy as np


class Action(str, Enum):
    DEFAULT = "default"
    CONTINUE = "continue"
    PREPAY = "prepay"


def _power_term(coeff: float, h, exponent: float, anchor: float):
    """coeff * (h/anchor)**exponent, with ``math`` for a float ``h`` and
    numpy's ufuncs for a float array, which may hold h = 0."""
    if type(h) is float:
        return coeff * math.exp(exponent * math.log(h / anchor))
    import numpy as np

    with np.errstate(divide="ignore"):
        return coeff * np.exp(exponent * np.log(h / anchor))


def checked_prices(h) -> np.ndarray:
    """``h`` as a float array, once every price in it is positive and finite."""
    import numpy as np

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
        with ``math``, anything else as a float array with numpy's ufuncs,
        in the same operations.  The two agree bit for bit where numpy's
        ``exp`` and ``log`` round as the C library's do; its AVX-512
        kernels do not always, so there the array path may differ from
        the float path in the last bits.
        """
        scalar = type(h) is float
        if not scalar:
            import numpy as np

            h = np.asarray(h, dtype=float)
        if order == 0:
            out = self.k0 + self.k1 * h
        elif scalar:
            out = self.k1 if order == 1 else 0.0
        else:
            out = np.full_like(h, self.k1 if order == 1 else 0.0)
        for coeff, p, anchor in ((self.c_p1, exponents.p1, self.hi), (self.c_p2, -exponents.p2, self.lo)):
            # Power terms are skipped when their coefficient is zero so that
            # affine stopping regions evaluate safely for arbitrarily large h.
            if coeff != 0.0:
                for j in range(order):
                    coeff *= (p - j) / anchor   # falling factorial p (p-1) ... over anchor^order
                out = out + _power_term(coeff, h, p - order, anchor)
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
            assert (c_p1 == 0.0 or hi < math.inf) and (c_p2 == 0.0 or lo > 0.0)
            if unrepresentable is None and not (
                math.isfinite(c_p1) and math.isfinite(c_p2) and math.isfinite(k0) and math.isfinite(k1)
            ):
                unrepresentable = (lo, hi)
            left_lo, left_hi, left_action = lo, hi, action
        object.__setattr__(self, "_cuts", tuple(cuts))
        if unrepresentable is not None:
            # A coefficient is its term's value at a region end.  It is
            # non-finite only when a builder's input already left float range,
            # or a term moved to its far end was divided by a subnormal
            # (lo/hi)^p; no market of the wide-box test reaches either.
            raise UnsupportedRegime(
                f"value-function coefficients exceed floating-point range on "
                f"({unrepresentable[0]}, {unrepresentable[1]})"
            )

    def region_index(self, h):
        """Index of the region owning each price in ``h``."""
        import numpy as np

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
                import numpy as np

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
        """JSON-friendly representation (infinite upper ends become None);
        ``coeffs`` are anchored at the region's ends as in the module docstring."""
        return {
            "regions": [
                {
                    "lo": reg.lo,
                    "hi": None if math.isinf(reg.hi) else reg.hi,
                    "action": reg.action.value,
                    "coeffs": {"c_p1": reg.c_p1, "c_p2": reg.c_p2, "k0": reg.k0, "k1": reg.k1},
                }
                for reg in self.regions
            ],
            "boundaries": dict(self.boundaries),
            "exponents": {"p1": self.exponents.p1, "p2": self.exponents.p2},
        }
