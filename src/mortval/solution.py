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

Every solver finds its free boundaries; :func:`build` fills the
coefficients from a skeleton of pieces (lo, hi, action, a, s), where a + s h
is the coupon while held and the payoff where stopped.  A held piece takes
the particular solution a/r + s h/delta, and the power terms of each held
run (one piece, or two meeting at a coupon kink) follow from value matching
at its free ends, boundedness at 0 and inf, and value and slope continuity
at the kink (Dixit and Pindyck, *Investment under Uncertainty*, ch. 4).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import InvalidParams, UnsupportedRegime
from .model import Exponents

if TYPE_CHECKING:
    import numpy as np


class Action(str, Enum):
    DEFAULT = "default"
    CONTINUE = "continue"
    PREPAY = "prepay"


# Bound once: each ``Action.X`` lookup costs about 0.15 us on Python 3.11.
DEFAULT, CONTINUE, PREPAY = Action.DEFAULT, Action.CONTINUE, Action.PREPAY


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

    def _power_sum(self, h, exponents: Exponents, order: int):
        """Derivative of the given order (0 or 1) of this piece at ``h``.

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
            out = self.k1
        else:
            out = np.full_like(h, self.k1)
        for coeff, p, anchor in ((self.c_p1, exponents.p1, self.hi), (self.c_p2, -exponents.p2, self.lo)):
            # Power terms are skipped when their coefficient is zero so that
            # affine stopping regions evaluate safely for arbitrarily large h.
            if coeff != 0.0:
                if order:
                    coeff *= p / anchor   # d/dh (h/anchor)^p = (p/anchor) (h/anchor)^{p-1}
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
        inf, isfinite = math.inf, math.isfinite
        left_lo = left_hi = left_action = None
        for lo, hi, action, c_p1, c_p2, k0, k1 in regs:
            if left_action is not None:
                assert lo == left_hi and left_lo < left_hi
                right_owns = left_action is CONTINUE and action is not CONTINUE
                cuts.append(math.nextafter(left_hi, -inf) if right_owns else left_hi)
            assert (c_p1 == 0.0 or hi < inf) and (c_p2 == 0.0 or lo > 0.0)
            if unrepresentable is None and not (
                isfinite(c_p1) and isfinite(c_p2) and isfinite(k0) and isfinite(k1)
            ):
                unrepresentable = (lo, hi)
            left_lo, left_hi, left_action = lo, hi, action
        object.__setattr__(self, "_cuts", tuple(cuts))
        if unrepresentable is not None:
            # A coefficient is its term's value at a region end.  It is
            # non-finite only when the builder's input already left float
            # range; no market of the wide-box test reaches that.
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
        if regs[i].action is not CONTINUE:
            return None
        while i > 0 and regs[i - 1].action is CONTINUE:
            i -= 1
        while j + 1 < len(regs) and regs[j + 1].action is CONTINUE:
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


# The builder makes Regions by tuple.__new__, skipping namedtuple's __new__ (0.25 us).
_region = partial(tuple.__new__, Region)


def _log_ratio(lo: float, hi: float) -> float:
    """log(lo/hi) for region ends lo < hi, -inf for an end at 0 or inf.  Within
    a factor 2, lo - hi is exact, so log1p keeps the last bits of a narrow region."""
    if lo == 0.0 or hi == math.inf:
        return -math.inf
    return math.log1p((lo - hi) / hi) if 2.0 * lo > hi else math.log(lo) - math.log(hi)


def _one_piece(lo: float, hi: float, g_lo: float, rise: float, p1: float, p2: float) -> tuple[float, float]:
    """(c_p1, c_p2) on (lo, hi) whose power terms sum to g_lo at lo and to g_lo +
    rise at hi, g being 0 at an end at 0 or inf.  Written in the rise and in
    1 - (lo/hi)^p, they keep a narrow region's digits where the rise is far below g."""
    log_ratio = _log_ratio(lo, hi)
    span = -math.expm1((p1 + p2) * log_ratio)
    return (
        (-math.expm1(p2 * log_ratio) * g_lo + rise) / span,
        (-math.expm1(p1 * log_ratio) * g_lo - math.exp(p1 * log_ratio) * rise) / span,
    )


def build(
    skeleton: tuple, boundaries: Mapping[str, float], exponents: Exponents, r: float, delta: float
) -> SolvedContract:
    """The contract with the pieces ``skeleton``, pasted as in the module docstring."""
    p1, p2 = exponents.p1, exponents.p2
    regions, run, left = [], [], None
    for piece in skeleton:
        if piece[2] is CONTINUE:
            run.append(piece)
            continue
        if run:
            regions += _paste(run, left, piece, p1, p2, r, delta)
            run = []
        lo, hi, action, a, s = piece
        regions.append(_region((lo, hi, action, 0.0, 0.0, a, s)))
        left = piece
    if run:
        regions += _paste(run, left, None, p1, p2, r, delta)
    return SolvedContract(regions=tuple(regions), boundaries=boundaries, exponents=exponents)


def _paste(run: list, left, right, p1: float, p2: float, r: float, delta: float) -> list:
    """Regions of the one or two held pieces ``run`` between the stopping pieces
    ``left`` and ``right`` (None at 0 and inf).  A free end below the normal float
    range raises ``UnsupportedRegime``: its power term has lost its digits."""
    lo, hi, action, a, s = run[0]
    _, top, _, a_top, s_top = run[-1]
    if (left and lo < sys.float_info.min) or (right and top < sys.float_info.min):
        raise UnsupportedRegime(f"a free boundary of ({lo}, {top}) is below the normal float range")
    k0, k1, k0_top, k1_top = a / r, s / delta, a_top / r, s_top / delta
    # g: payoff minus particular solution at each free end, 0 at 0 and inf.
    f_lo = left[3] + left[4] * lo if left else 0.0
    f_hi = right[3] + right[4] * top if right else 0.0
    g_lo = f_lo - (k0 + k1 * lo) if left else 0.0
    g_hi = f_hi - (k0_top + k1_top * top) if right else 0.0
    if len(run) == 1:
        # With two free ends the rise comes from the payoffs, free of the
        # particular solution's rounding.
        rise = f_hi - f_lo - k1 * (hi - lo) if left and right else g_hi - g_lo
        c_p1, c_p2 = _one_piece(lo, hi, g_lo, rise, p1, p2)
        return [_region((lo, hi, action, c_p1, c_p2, k0, k1))]
    # Two pieces meet at the kink hi: B1 = g_lo - A1 u1 and A2 = g_hi - B2 v2
    # leave value and h V' continuity there as two equations in A1 and B2.
    low, high = _log_ratio(lo, hi), _log_ratio(hi, top)
    u1, v1, q1 = math.exp(p1 * low), math.exp(p2 * low), -math.expm1((p1 + p2) * low)
    u2, v2, q2 = math.exp(p1 * high), math.exp(p2 * high), -math.expm1((p1 + p2) * high)
    rise1, rise2 = p1 + p2 * u1 * v1, p2 + p1 * u2 * v2
    rhs_value = k0_top + k1_top * hi - (k0 + k1 * hi) + g_hi * u2 - g_lo * v1
    rhs_slope = (k1_top - k1) * hi + p1 * g_hi * u2 + p2 * g_lo * v1
    det = q1 * rise2 + q2 * rise1
    a1 = (rhs_value * rise2 + rhs_slope * q2) / det
    b2 = (rhs_slope * q1 - rhs_value * rise1) / det
    return [
        _region((lo, hi, action, a1, g_lo - a1 * u1, k0, k1)),
        _region((hi, top, action, g_hi - b2 * v2, b2, k0_top, k1_top)),
    ]
