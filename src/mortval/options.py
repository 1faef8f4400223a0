"""Default- and prepayment-option cost decompositions.

The default option cost is the value gap between the contract where the
borrower can only prepay and the full contract; the prepayment option cost
is the gap between the contract with prepayment removed and the full
contract.  Both are costs to the bank and nonnegative.
"""

from __future__ import annotations

from .abm import solve_abm, solve_abm_no_prepay
from .aprm import solve_aprm, solve_aprm_no_prepay
from .contracts import ABM, FRM, ContractSpec
from .frm import solve_frm, solve_frm_no_prepay
from .model import ModelParams
from .solution import SolvedContract, checked_price, checked_prices


def solve_contract(params: ModelParams, spec: ContractSpec) -> SolvedContract:
    """Dispatch to the closed-form solver for this contract kind."""
    if spec.kind is FRM:
        return solve_frm(params, spec.m)
    if spec.kind is ABM:
        return solve_abm(params, spec.m)
    return solve_aprm(params, spec.m, spec.alpha)


def solve_no_prepay(params: ModelParams, spec: ContractSpec) -> SolvedContract:
    """Value of the contract with the prepayment right removed."""
    if spec.kind is FRM:
        return solve_frm_no_prepay(params, spec.m)
    if spec.kind is ABM:
        return solve_abm_no_prepay(params, spec.m)
    return solve_aprm_no_prepay(params, spec.m)


def default_option_value(params: ModelParams, spec: ContractSpec, h):
    """Cost of the borrower's default right at price ``h``.

    For the FRM the no-default value is B0 (immediate prepayment), so the
    cost is B0 - V(h).  The balance adjustments of the ABM and APRM keep
    the termination payment equal to the prepayment amount in every state,
    so removing default changes nothing and the cost is exactly zero.  A
    price that is not positive and finite raises ``InvalidParams`` for
    every kind.
    """
    if spec.kind is FRM:
        return params.b0 - solve_contract(params, spec).value(h)
    if isinstance(h, float):
        checked_price(h)
        return 0.0
    import numpy as np

    arr = np.zeros_like(checked_prices(h))
    return float(arr) if arr.ndim == 0 else arr


def prepay_option_value(params: ModelParams, spec: ContractSpec, h):
    """Cost of the borrower's prepayment right at price ``h``."""
    return solve_no_prepay(params, spec).value(h) - solve_contract(params, spec).value(h)
