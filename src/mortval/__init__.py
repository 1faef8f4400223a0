"""Valuation engine for perpetual mortgage contracts.

Closed-form value functions and optimal default/prepayment boundaries for
fixed-rate (FRM), adjustable-balance (ABM), and adjustable-payment-rate
(APRM) mortgages, together with option decompositions, foreclosure-cost
adjustments, endogenous rate spreads, and independent numerical oracles
(grid/variational, hitting-time, Monte Carlo).

Only the oracles need numpy.  ``mortval.oracle`` and the names it exports
here are imported on first access, so the closed forms load without it.
"""

import importlib

from .abm import solve_abm, solve_abm_no_prepay
from .aprm import AprmRegime, RateRegime, aprm_regime, solve_aprm, solve_aprm_no_prepay
from .contracts import (
    ContractKind,
    ContractSpec,
    PerpetualCashflows,
    abm_state,
    aprm_state,
    frm_schedule,
    no_prepay_cashflows,
    perpetual_cashflows,
)
from .errors import (
    Degenerate,
    InvalidHorizon,
    InvalidParams,
    InvalidPhi,
    InvalidSpec,
    InvalidThresholds,
    InvalidTime,
    MaxIterExceeded,
    NanResidual,
    NegativeSpread,
    NoBracket,
    NotConverged,
    UnsupportedRegime,
    ValuationError,
)
from .foreclosure import (
    EquivalentCost,
    endogenous_spread,
    equivalent_foreclosure_cost,
    frm_value_with_foreclosure,
    max_rate,
    spread_solver,
)
from .frm import solve_frm, solve_frm_no_prepay
from .model import Exponents, ModelParams, characteristic_residual, compute_exponents
from .options import default_option_value, prepay_option_value, solve_contract, solve_no_prepay
from .rootfind import find_root_bracketed, grow_bracket
from .solution import Action, Region, SolvedContract

__all__ = [
    "Action",
    "AprmRegime",
    "ContractKind",
    "ContractSpec",
    "Degenerate",
    "EquivalentCost",
    "Exponents",
    "GridSpec",
    "InvalidHorizon",
    "InvalidParams",
    "InvalidPhi",
    "InvalidSpec",
    "InvalidThresholds",
    "InvalidTime",
    "MaxIterExceeded",
    "McResult",
    "ModelParams",
    "NanResidual",
    "NegativeSpread",
    "NoBracket",
    "NotConverged",
    "OracleResult",
    "PerpetualCashflows",
    "RateRegime",
    "Region",
    "SolvedContract",
    "UnsupportedRegime",
    "ValuationError",
    "abm_state",
    "aprm_regime",
    "aprm_state",
    "characteristic_residual",
    "compute_exponents",
    "default_option_value",
    "endogenous_spread",
    "equivalent_foreclosure_cost",
    "find_root_bracketed",
    "frm_schedule",
    "frm_value_with_foreclosure",
    "grow_bracket",
    "max_rate",
    "mc_cashflow_value",
    "no_prepay_cashflows",
    "perpetual_cashflows",
    "prepay_option_value",
    "psor_value",
    "solve_abm",
    "solve_abm_no_prepay",
    "solve_aprm",
    "solve_aprm_no_prepay",
    "solve_contract",
    "solve_frm",
    "solve_frm_no_prepay",
    "solve_no_prepay",
    "spread_solver",
    "threshold_policy_value",
]

__version__ = "0.1.0"

_ORACLE_EXPORTS = ("GridSpec", "McResult", "OracleResult", "mc_cashflow_value", "psor_value",
                   "threshold_policy_value")


def __getattr__(name: str):
    # ``importlib`` rather than ``from . import oracle``: that statement looks
    # the name up on this package first, which lands here again.
    if name == "oracle" or name in _ORACLE_EXPORTS:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "oracle", *_ORACLE_EXPORTS})
