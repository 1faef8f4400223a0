"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line (visible
with `pytest -s`); a FAIL line always comes with a failing assertion.

The outer band edge h3 of the mid-rate (m=0.047) and high-rate (m=0.06)
payment-adjusted rows is pinned at 9.98 and 14.28, not at the published
5.22 and 14.23. Above h = 1 the coupon is m B0 and the prepayment payoff
(B0 - alpha) + alpha h, so value matching and smooth pasting at h3 force
h3 = p2/(1+p2) ((m B0/alpha)(1/r - 1/m) + 1), which is linear in m. The
published mid-rate value repeats the low-rate row's h3 and would need
m = 0.0326; the published high-rate value would need m = 0.0598. The
grid oracle, which does not use the closed form, ends the stopping band
at 9.984 and 14.257 on the 2001-node acceptance grids (within one cell
of the identity), and on 8001 nodes puts the high-rate edge between the
nodes 14.273 and 14.289. Criterion 6 checks this band edge for every
payment-adjusted row with a band.
"""

import time

import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    ModelParams,
    aprm_regime,
    compute_exponents,
    default_option_value,
    endogenous_spread,
    max_rate,
    perpetual_cashflows,
    prepay_option_value,
    solve_abm,
    solve_aprm,
    solve_frm,
)
from mortval.options import solve_contract
from mortval.oracle import oracle_triangle
from mortval.solution import Action

from conftest import (
    B0,
    M0,
    R0,
    SIGMA0,
    check_below_payoff,
    check_monotone_concave,
    check_ode_residual,
    check_pasting,
)

P45 = ModelParams(r=R0, delta=0.045, sigma=SIGMA0, b0=B0)
P70 = ModelParams(r=R0, delta=0.07, sigma=SIGMA0, b0=B0)
P30 = ModelParams(r=R0, delta=0.03, sigma=SIGMA0, b0=B0)

MC_PATHS = 20_000
MC_SEED = 20200709


def _report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"[acceptance] {name}: {status}{detail}")
    assert not failures, f"{name}: {failures}"


# --- criterion 1: exponent identity --------------------------------------

def test_criterion_1_exponent_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(8271)
    failures = []
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(
            r=float(rng.uniform(1e-4, 0.15)),
            delta=float(rng.uniform(1e-4, 0.15)),
            sigma=float(rng.uniform(0.01, 0.8)),
            b0=float(rng.uniform(0.05, 1.0)),
        )
        ex = compute_exponents(params)
        lhs = (1.0 + ex.p2) / ex.p2 * (ex.p1 - 1.0) / ex.p1
        worst = max(worst, abs(lhs - params.delta / params.r) / (params.delta / params.r))
    if worst > 1e-10:
        failures.append(f"worst relative identity residual {worst:.2e} > 1e-10")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("exponent-identity", failures)


# --- criterion 2: boundary reproduction ----------------------------------

BOUNDARY_ROWS = [
    ("frm low-benefit", lambda: solve_frm(P45, M0), {"h1": 0.54, "h2": 1.43}),
    ("abm low-benefit", lambda: solve_abm(P45, M0), {"h2": 2.02}),
    ("abm tiny-benefit", lambda: solve_abm(P30, M0), {"h1": 0.51, "h2": 1.24}),
    ("aprm low-rate", lambda: solve_aprm(P45, M0, 0.05), {"h2": 2.67, "h3": 5.22}),
    # h3 published as 5.22, the low-rate row's value, which the pasting
    # identity gives only at m = 0.0326; at m = 0.047 it gives 9.979, and
    # the grid oracle ends the band at 9.984 (2001 nodes).
    ("aprm mid-rate", lambda: solve_aprm(P45, 0.047, 0.05), {"h1": 0.65, "h2": 1.2, "h3": 9.98}),
    ("aprm mid-rate big-sharing", lambda: solve_aprm(P45, 0.047, 0.6), {"h1": 0.75}),
    # h3 published as 14.23, which the pasting identity gives only at
    # m = 0.0598; at m = 0.06 it gives 14.280, and the grid oracle puts the
    # band edge between the nodes 14.273 and 14.289 (8001 nodes).
    ("aprm high-rate", lambda: solve_aprm(P45, 0.06, 0.05), {"h1": 0.87, "h2": 1.1, "h3": 14.28}),
]


@pytest.mark.parametrize("label,solver,expected", BOUNDARY_ROWS, ids=[row[0] for row in BOUNDARY_ROWS])
def test_criterion_2_boundary_reproduction(label, solver, expected):
    solved = solver()
    failures = []
    for name, want in expected.items():
        got = solved.boundaries.get(name)
        if got is None:
            failures.append(f"{name} missing")
        elif abs(got - want) > 0.01:
            failures.append(f"{name}={got:.4f} vs {want} (±0.01)")
    _report(f"figure-boundaries {label}", failures)


def test_criterion_2_runtime():
    start = time.perf_counter()
    for _, solver, _ in BOUNDARY_ROWS:
        solver()
    elapsed = time.perf_counter() - start
    _report("figure-boundaries runtime", [] if elapsed < 1.0 else [f"{elapsed:.2f}s >= 1s"])


# --- criterion 3: sharing thresholds --------------------------------------

def test_criterion_3_sharing_thresholds():
    failures = []
    for params, want in ((P45, 0.0766), (P70, 0.014)):
        got = aprm_regime(params, M0).alpha_star
        if abs(got - want) > 0.001:
            failures.append(f"alpha*={got:.5f} vs {want} (±0.001) at delta={params.delta}")
    _report("sharing-thresholds", failures)


# --- criteria 4 & 5: endogenous rates, spreads, max rates -----------------

def test_criterion_4_endogenous_rates_at_35pct():
    failures = []
    cases = [
        (P45, ContractKind.ABM, 0.0336),
        (P45, ContractKind.APRM, 0.0363),
        (P70, ContractKind.ABM, 0.0431),
        (P70, ContractKind.APRM, 0.047),
    ]
    for params, target, want in cases:
        got = M0 + endogenous_spread(params, M0, 0.35, target, 0.05) / 1e4
        if abs(got - want) > 2e-4:
            failures.append(f"{target.value} rate {got:.6f} vs {want} (±2bp) at delta={params.delta}")
    _report("endogenous-rates-35pct", failures)


def test_criterion_5_spreads_and_max_rates():
    failures = []
    spread_cases = [
        (P45, ContractKind.ABM, 19.0),
        (P45, ContractKind.APRM, 47.0),
        (P70, ContractKind.ABM, 115.0),
        (P70, ContractKind.APRM, 156.0),
    ]
    for params, target, want in spread_cases:
        got = endogenous_spread(params, M0, 0.30, target, 0.05)
        if abs(got - want) > 2.0:
            failures.append(f"{target.value} spread {got:.2f}bp vs {want} (±2bp) at delta={params.delta}")
    for params, want in ((P45, 0.0575), (P70, 0.0691)):
        got = max_rate(params, ContractKind.FRM)
        if abs(got - want) > 5e-4:
            failures.append(f"max rate {got:.5f} vs {want} (±5bp) at delta={params.delta}")
    _report("spreads-and-max-rates", failures)


# --- criterion 6: oracle triangle -----------------------------------------

ORACLE_ROWS = [
    # label, params, spec, grid window (lo, hi), grid span (lo, hi)
    ("frm low-benefit", P45, ContractSpec(kind=ContractKind.FRM, m=M0), (0.1, 3.0), (0.02, 4.5)),
    ("abm low-benefit", P45, ContractSpec(kind=ContractKind.ABM, m=M0), (0.1, 3.0), (0.002, 4.5)),
    ("abm tiny-benefit", P30, ContractSpec(kind=ContractKind.ABM, m=M0), (0.1, 3.0), (0.02, 4.5)),
    ("aprm low-rate", P45, ContractSpec(kind=ContractKind.APRM, m=M0, alpha=0.05), (0.05, 15.65), (0.002, 63.0)),
    ("aprm mid-rate", P45, ContractSpec(kind=ContractKind.APRM, m=0.047, alpha=0.05), (0.05, 29.9), (0.02, 120.0)),
    ("aprm mid-rate big-sharing", P45, ContractSpec(kind=ContractKind.APRM, m=0.047, alpha=0.6), (0.05, 3.0), (0.02, 15.0)),
    ("aprm high-rate", P45, ContractSpec(kind=ContractKind.APRM, m=0.06, alpha=0.05), (0.05, 42.8), (0.02, 171.0)),
]


def test_criterion_6_oracle_triangle():
    start = time.perf_counter()
    failures = []
    for label, params, spec, window, grid_span in ORACLE_ROWS:
        triangle = oracle_triangle(params, spec, 1.0, 2001, MC_PATHS, MC_SEED, span=grid_span, window=window)
        failures += [f"{label}: {v.name} {v.gap:.2e} > {v.tol:.2e}" for v in triangle.verdicts if not v.ok]
        # every row with a band has its edge h3 below the top node, so it is checked
        want = 3 + ("h3" in solve_contract(params, spec).boundaries)
        if len(triangle.verdicts) != want:
            failures.append(f"{label}: {len(triangle.verdicts)} verdicts, want {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("oracle-triangle", failures)


# --- criterion 7: property suite -------------------------------------------

def test_criterion_7_property_suite():
    start = time.perf_counter()
    failures = []

    for label, params, spec, _, _ in ORACLE_ROWS:
        solved = solve_contract(params, spec)
        cashflows = perpetual_cashflows(spec, params)
        top = max(50.0, 3.0 * solved.boundaries.get("h3", 1.0))
        h = np.geomspace(0.01, top, 10_000)
        try:
            check_below_payoff(solved, cashflows, h, tol=1e-9)
            check_monotone_concave(solved, h_hi=top)
            check_pasting(solved, tol=1e-8)
            check_ode_residual(params, solved, cashflows, tol=1e-8)
        except AssertionError as exc:
            failures.append(f"{label}: {exc}")
        pp = prepay_option_value(params, spec, np.geomspace(0.05, 10.0, 64))
        if float(np.min(pp)) < -1e-10:
            failures.append(f"{label}: prepay option dips to {float(np.min(pp)):.2e}")
        dv = default_option_value(params, spec, np.geomspace(0.05, 10.0, 64))
        if float(np.min(dv)) < -1e-10:
            failures.append(f"{label}: default option dips to {float(np.min(dv)):.2e}")

    gap = abs(solve_aprm(P45, M0, 0.01).value(1.0) - solve_aprm(P45, M0, 0.05).value(1.0))
    if gap > 1e-3:
        failures.append(f"sharing sensitivity {gap:.2e} > 1e-3")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report("property-suite", failures)


# --- criterion 8: structural claims ----------------------------------------

def test_criterion_8_structural_claims():
    failures = []

    # A low-state prepayment region exists iff the rate exceeds the
    # benefit rate (balance- and payment-adjusted contracts alike).
    if "h1" in solve_abm(P45, M0).boundaries:
        failures.append("balance-adjusted low boundary at m <= delta")
    if "h1" not in solve_abm(P30, M0).boundaries:
        failures.append("balance-adjusted low boundary missing at m > delta")
    if "h1" in solve_aprm(P45, M0, 0.05).boundaries:
        failures.append("payment-adjusted low boundary at m <= delta")
    if "h1" not in solve_aprm(P45, 0.047, 0.05).boundaries:
        failures.append("payment-adjusted low boundary missing at m > delta")

    # No stopping below par/balance in the benign cases.
    for reg in solve_aprm(P45, M0, 0.05).regions:
        if reg.lo < 1.0 and reg.action is not Action.CONTINUE:
            failures.append("payment-adjusted contract stops below par at m <= delta")
    for reg in solve_abm(P45, M0).regions:
        if reg.lo < B0 and reg.action is not Action.CONTINUE:
            failures.append("balance-adjusted contract stops below the balance at m <= delta")

    # Above the sharing threshold the solution is frozen in alpha.
    a_star = aprm_regime(P45, M0).alpha_star
    frozen = solve_aprm(P45, M0, a_star)
    for alpha in (0.1, 0.4, 0.9):
        if solve_aprm(P45, M0, alpha).regions != frozen.regions:
            failures.append(f"regions vary with alpha={alpha} above the threshold")

    _report("structural-claims", failures)
