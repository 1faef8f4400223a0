"""Contract definitions: cashflow functions and amortization schedules.

Three contracts are supported.  FRM is the classic fixed-rate mortgage.
ABM caps the outstanding balance at the house price index and scales the
payment accordingly.  APRM scales the payment rate with min(1, index) and
adds a capital-gain-sharing prepayment penalty alpha * (H - 1)^+.

Perpetual cashflows (the T -> infinity limit of the schedules):

    contract | payment rate          | prepayment amount
    ---------+-----------------------+-----------------------------------
    FRM      | m * B0                | B0
    ABM      | m * min(B0, h)        | min(B0, h)
    APRM     | m * B0 * min(1, h)    | B0 * min(1, h) + alpha * (h - 1)^+

On termination the bank receives min(house value, prepayment amount): the
lower branch is a default, the upper a prepayment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .errors import InvalidSpec, InvalidTime, NegativeSpread
from .model import ModelParams
from .solution import checked_price

if TYPE_CHECKING:
    import numpy as np


class ContractKind(str, Enum):
    FRM = "frm"
    ABM = "abm"
    APRM = "aprm"


# Bound once: each ``ContractKind.X`` lookup costs about 0.15 us on Python 3.11.
FRM, ABM, APRM = ContractKind.FRM, ContractKind.ABM, ContractKind.APRM


@dataclass(frozen=True)
class ContractSpec:
    """A contract kind with its mortgage rate and sharing fraction.

    ``alpha`` is meaningful only for APRM and must be 0 otherwise.  The
    positive-spread requirement m > r is checked against the market
    parameters wherever the two meet (cashflow construction, solvers).
    """

    kind: ContractKind
    m: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (self.m > 0.0):
            raise InvalidSpec(f"mortgage rate must be positive, got {self.m}")
        if not (0.0 <= self.alpha < 1.0):
            raise InvalidSpec(f"sharing fraction must lie in [0, 1), got {self.alpha}")
        if self.kind is not APRM and self.alpha != 0.0:
            raise InvalidSpec(f"alpha is only meaningful for APRM, got {self.alpha} for {self.kind.value}")


def contract_spec(kind: ContractKind, m: float, alpha: float) -> ContractSpec:
    """``kind`` at rate ``m``; the sharing fraction applies to the APRM only."""
    return ContractSpec(kind, m, alpha if kind is APRM else 0.0)


# The highest rate ``max_rate`` reports: 100% per year.
RATE_CAP = 1.0


def require_positive_spread(m: float, params: ModelParams) -> float:
    """``m`` as a float, once it exceeds the risk-free rate.

    Solvers rebind their rate to the result, so a numpy scalar rate takes
    float arithmetic and its overflow guards, as ``ModelParams`` fields do.
    """
    if not (m > params.r):
        raise NegativeSpread(f"mortgage rate {m} must exceed the risk-free rate {params.r}")
    return float(m)


@dataclass(frozen=True)
class PerpetualCashflows:
    """Evaluable cashflow functions of a perpetual contract.

    ``coupon``, ``payoff`` and ``prepay_amount`` accept scalars or numpy
    arrays; the oracles take a scalar result, such as a constant coupon's,
    as that value at every price.  ``payoff(h) = min(h, prepay_amount(h))``
    is the lump sum the bank receives at termination.  ``kinks`` lists the
    interior points where coupon or payoff change slope; grid and policy
    oracles place these on nodes / piece edges.
    """

    coupon: Callable[[np.ndarray], np.ndarray]
    payoff: Callable[[np.ndarray], np.ndarray]
    prepay_amount: Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...] = field(default=())


def perpetual_cashflows(spec: ContractSpec, params: ModelParams) -> PerpetualCashflows:
    """Build the perpetual coupon/payoff/prepayment functions of ``spec``."""
    import numpy as np

    require_positive_spread(spec.m, params)
    m, b0, alpha = spec.m, params.b0, spec.alpha

    if spec.kind is FRM:
        def coupon(h):
            return np.full_like(np.asarray(h, dtype=float), m * b0)

        def prepay(h):
            return np.full_like(np.asarray(h, dtype=float), b0)

        kinks = (b0,)  # payoff min(h, b0) changes slope at b0
    elif spec.kind is ABM:
        def coupon(h):
            return m * np.minimum(b0, h)

        def prepay(h):
            return np.minimum(b0, h)

        kinks = (b0,)
    else:
        def coupon(h):
            return m * b0 * np.minimum(1.0, h)

        def prepay(h):
            return b0 * np.minimum(1.0, h) + alpha * np.maximum(np.asarray(h, dtype=float) - 1.0, 0.0)

        kinks = (1.0,)

    def payoff(h):
        return np.minimum(h, prepay(h))

    return PerpetualCashflows(coupon=coupon, payoff=payoff, prepay_amount=prepay, kinks=kinks)


def no_prepay_cashflows(spec: ContractSpec, params: ModelParams) -> PerpetualCashflows:
    """Cashflows of ``spec`` without prepayment: its coupon, and a stop hands over h."""
    import numpy as np

    full = perpetual_cashflows(spec, params)

    def house(h):
        return np.asarray(h, dtype=float)

    kinks = () if spec.kind is FRM else full.kinks  # only the coupon can kink
    return PerpetualCashflows(coupon=full.coupon, payoff=house, prepay_amount=house, kinks=kinks)


def _check_schedule_args(m: float, T: float, t: float) -> None:
    if not (m > 0.0):
        raise InvalidSpec(f"mortgage rate must be positive, got {m}")
    if not (T > 0.0):
        raise InvalidSpec(f"maturity must be positive, got {T}")
    if not (0.0 <= t <= T):
        raise InvalidTime(f"time {t} outside the contract life [0, {T}]")


def frm_schedule(m: float, b0: float, T: float, t: float) -> tuple[float, float]:
    """Outstanding balance and level coupon of a finite-maturity FRM.

    balance(t) = b0 (1 - e^{-m (T-t)}) / (1 - e^{-m T}) and the coupon
    m b0 / (1 - e^{-m T}) is constant in t.
    """
    _check_schedule_args(m, T, t)
    denom = -math.expm1(-m * T)
    balance = b0 * (-math.expm1(-m * (T - t))) / denom
    coupon = m * b0 / denom
    return balance, coupon


def abm_state(m: float, b0: float, T: float, t: float, h: float) -> tuple[float, float]:
    """Adjusted balance and payment rate of a finite-maturity ABM.

    The nominal FRM schedule at rate ``m`` is capped at the index:
    balance = min(nominal balance, h), and the payment scales in the same
    proportion, coupon = nominal coupon * min(1, h / nominal balance).
    """
    h = checked_price(h)
    nominal_balance, nominal_coupon = frm_schedule(m, b0, T, t)
    if nominal_balance <= h:
        return nominal_balance, nominal_coupon
    return h, nominal_coupon * h / nominal_balance


def aprm_state(
    m: float, b0: float, T: float, t: float, h: float, alpha: float
) -> tuple[float, float, float]:
    """Adjusted payment rate, balance, and prepayment amount of an APRM.

    The payment rate scales with min(1, h); the balance inherits the same
    factor; prepaying additionally costs alpha * (h - 1)^+ of the capital
    gain.  Returns (balance, coupon, prepay_amount).
    """
    h = checked_price(h)
    if not (0.0 <= alpha < 1.0):
        raise InvalidSpec(f"sharing fraction must lie in [0, 1), got {alpha}")
    nominal_balance, nominal_coupon = frm_schedule(m, b0, T, t)
    scale = min(1.0, h)
    balance = nominal_balance * scale
    coupon = nominal_coupon * scale
    return balance, coupon, balance + alpha * max(h - 1.0, 0.0)
