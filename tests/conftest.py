"""Shared fixtures and invariant checkers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mortval import ModelParams, compute_exponents
from mortval.contracts import PerpetualCashflows
from mortval.solution import Action, SolvedContract

# Baseline market scenario used throughout: short rate from mid-2020 money
# markets, a 30y conforming mortgage rate, 10% down-payment, and a housing
# volatility averaged over calm and stressed regimes.  Benefit rates 4.5%
# and 7% correspond to low and high utility of occupying the home.
R0 = 0.017825
SIGMA0 = 0.1125
B0 = 0.9
M0 = 0.0326


@pytest.fixture(scope="session")
def params_low_benefit() -> ModelParams:
    return ModelParams(r=R0, delta=0.045, sigma=SIGMA0, b0=B0)


@pytest.fixture(scope="session")
def params_high_benefit() -> ModelParams:
    return ModelParams(r=R0, delta=0.07, sigma=SIGMA0, b0=B0)


@pytest.fixture(scope="session")
def params_tiny_benefit() -> ModelParams:
    return ModelParams(r=R0, delta=0.03, sigma=SIGMA0, b0=B0)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_pasting(solved: SolvedContract, tol: float = 1e-8) -> None:
    """Value matching at every edge; slope matching where a side continues.

    Edges between two stopping pieces would be genuine kinks and are not
    produced by the solvers; every interior edge here is either a stopping
    boundary (smooth pasting) or a coupon kink inside the continuation
    set (C1 by construction).
    """
    ex = solved.exponents
    for left, right in zip(solved.regions, solved.regions[1:]):
        edge = left.hi
        v_l = float(left.value(edge, ex))
        v_r = float(right.value(edge, ex))
        assert rel_gap(v_l, v_r) <= tol, f"value mismatch at {edge}: {v_l} vs {v_r}"
        d_l = float(left.derivative(edge, ex))
        d_r = float(right.derivative(edge, ex))
        gap = abs(d_l - d_r) / max(1.0, abs(d_l), abs(d_r))
        assert gap <= tol, f"slope mismatch at {edge}: {d_l} vs {d_r}"


def check_ode_residual(
    params: ModelParams,
    solved: SolvedContract,
    cashflows: PerpetualCashflows,
    tol: float = 1e-8,
    points_per_region: int = 29,
) -> None:
    """L_H V - r V + c must vanish on the interior of continue regions.

    The residual is summed in each region's anchored basis, so no power of
    h leaves the float range where V'' underflows: a power term
    t = coeff (h/anchor)^p adds t (sigma^2 p (p-1) / 2 + (r - delta) p - r),
    and the particular part k0 + k1 h adds (r - delta) k1 h - r (k0 + k1 h) + c(h).
    """
    ex = solved.exponents
    r, drift, half_var = params.r, params.r - params.delta, 0.5 * params.sigma**2
    steps = np.arange(points_per_region) / (points_per_region - 1.0)
    for reg in solved.regions:
        if reg.action is not Action.CONTINUE:
            continue
        lo = reg.lo if reg.lo > 0.0 else reg.hi / 100.0
        hi = reg.hi if np.isfinite(reg.hi) else max(10.0 * lo, 100.0)
        lo, hi = lo * 1.000001, hi * 0.999999
        h = lo * (hi / lo) ** steps   # log-spaced from lo to hi
        coupon = np.asarray(cashflows.coupon(h), dtype=float)
        value = reg.k0 + reg.k1 * h
        resid = drift * reg.k1 * h - r * value + coupon
        for coeff, p, anchor in ((reg.c_p1, ex.p1, reg.hi), (reg.c_p2, -ex.p2, reg.lo)):
            if coeff != 0.0:
                term = coeff * (h / anchor) ** p
                value += term
                resid += term * (half_var * p * (p - 1.0) + drift * p - r)
        scale = np.maximum(1.0, np.maximum(np.abs(r * value), np.abs(coupon)))
        worst = float(np.max(np.abs(resid) / scale))
        assert worst <= tol, f"ODE residual {worst:.3e} on ({reg.lo}, {reg.hi})"


def check_below_payoff(
    solved: SolvedContract,
    cashflows: PerpetualCashflows,
    h_grid: np.ndarray,
    tol: float = 1e-9,
) -> None:
    v = solved.value(h_grid)
    f = np.asarray(cashflows.payoff(h_grid), dtype=float)
    assert float(np.max(v - f)) <= tol * float(np.max(np.maximum(1.0, f)))


def check_monotone_concave(
    solved: SolvedContract,
    h_lo: float = 0.01,
    h_hi: float = 50.0,
    n: int = 10_000,
    tol: float = 1e-9,
) -> None:
    h = np.geomspace(h_lo, h_hi, n)
    v = solved.value(h)
    dv = np.diff(v)
    assert float(np.min(dv)) >= -tol, "value function must be nondecreasing"
    slopes = dv / np.diff(h)
    assert float(np.max(np.diff(slopes))) <= tol, "value function must be concave"


def stopping_values_match(solved: SolvedContract, cashflows: PerpetualCashflows, tol: float = 1e-9) -> None:
    """On stopping regions the value equals the payoff identically."""
    ex = solved.exponents
    for reg in solved.regions:
        if reg.action is Action.CONTINUE:
            continue
        lo = reg.lo if reg.lo > 0.0 else reg.hi / 50.0
        hi = reg.hi if np.isfinite(reg.hi) else 50.0 * max(1.0, lo)
        h = np.geomspace(lo, hi, 17)
        gap = np.abs(reg.value(h, ex) - np.asarray(cashflows.payoff(h), dtype=float))
        assert float(np.max(gap)) <= tol
