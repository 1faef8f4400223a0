"""Valuation engine for perpetual mortgage contracts.

Closed-form value functions and optimal default/prepayment boundaries for
fixed-rate (FRM), adjustable-balance (ABM), and adjustable-payment-rate
(APRM) mortgages, together with option decompositions, foreclosure-cost
adjustments, endogenous rate spreads, and independent numerical oracles
(grid/variational, hitting-time, Monte Carlo).
"""

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
)
from .frm import solve_frm, solve_frm_no_prepay
from .model import Exponents, ModelParams, characteristic_residual, compute_exponents
from .options import default_option_value, prepay_option_value, solve_contract, solve_no_prepay
from .oracle import GridSpec, McResult, OracleResult, mc_cashflow_value, psor_value, threshold_policy_value
from .rootfind import RootConfig, find_root_bracketed, grow_bracket
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
    "NegativeSpread",
    "NoBracket",
    "NotConverged",
    "OracleResult",
    "PerpetualCashflows",
    "RateRegime",
    "Region",
    "RootConfig",
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
    "threshold_policy_value",
]

__version__ = "0.1.0"
