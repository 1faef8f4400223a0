"""Exception hierarchy shared across the valuation engine.

Every domain error derives from :class:`ValuationError` and carries a
machine-readable ``code`` (the class name) used by the CLI when emitting
structured error output.
"""

import functools


class ValuationError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class InvalidParams(ValuationError):
    """Market parameters violate their admissibility constraints."""


class InvalidSpec(ValuationError):
    """A contract specification violates its invariants."""


class NegativeSpread(InvalidSpec):
    """Mortgage rate does not exceed the risk-free rate."""


class InvalidTime(ValuationError):
    """Schedule time outside the contract's life [0, T]."""


class NoBracket(ValuationError):
    """Root finding requested on an interval without a sign change."""


class NanResidual(ValuationError):
    """A root search met a NaN of its function inside the bracket."""


class MaxIterExceeded(ValuationError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class UnsupportedRegime(ValuationError):
    """Parameter combination for which no closed-form solution exists."""


class InvalidPhi(ValuationError):
    """Foreclosure cost fraction outside [0, 1)."""


class Degenerate(ValuationError):
    """The requested quantity is not defined at this point (zero sensitivity)."""


class NotConverged(ValuationError):
    """Grid solver hit its iteration cap before its stopping set settled."""


class InvalidThresholds(ValuationError):
    """Stopping thresholds are not ordered, not positive, or two where one is taken."""


class InvalidHorizon(ValuationError):
    """Monte Carlo horizon below 200 years (checked, though no estimate uses it)."""


def _shown(arg) -> str:
    """Repr of a number, None or ``ModelParams``, a tuple's items, else the type's name (no address)."""
    from .model import ModelParams  # model imports this module
    if type(arg) is tuple:
        return f"({', '.join(map(_shown, arg))})"
    return repr(arg) if arg is None or isinstance(arg, (int, float, ModelParams)) else type(arg).__name__


def float_faults_unsupported(solve):
    """``solve`` with an ``OverflowError`` or ``ZeroDivisionError`` raised as
    ``UnsupportedRegime``: a power or quotient of the closed form left the
    float range, so no closed form can be computed in floats there."""

    @functools.wraps(solve)
    def guarded(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            detail = f"{solve.__name__} leaves the float range at {_shown(args)}: {exc!r}"
            raise UnsupportedRegime(detail) from None

    return guarded
