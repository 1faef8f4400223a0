"""Command-line front end: solve, sweep, alpha-star, oracle-check, schedule.

All rates are decimals (0.0326, never 3.26 or "3.26%").  Single solves
emit JSON on stdout; sweeps emit tab-separated tables ready for plotting.
Errors exit with code 2 and a machine-readable {"error": ..., "detail":
...} object on stderr; oracle-check exits 1 when a tolerance is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .aprm import aprm_regime
from .contracts import (
    ContractKind,
    ContractSpec,
    abm_state,
    aprm_state,
    frm_schedule,
    no_prepay_cashflows,
    perpetual_cashflows,
)
from .errors import ValuationError
from .foreclosure import (
    endogenous_spread,
    equivalent_foreclosure_cost,
    frm_value_with_foreclosure,
    max_rate,
)
from .model import ModelParams
from .options import prepay_option_value, solve_contract, solve_no_prepay
from .oracle import GridSpec, mc_cashflow_value, psor_value, threshold_policy_value
from .solution import SolvedContract

_SIG_DIGITS = 12


def _round_floats(obj):
    """Round floats to 12 significant digits for stable, readable output."""
    if isinstance(obj, float):
        return float(f"{obj:.{_SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> None:
    json.dump(_round_floats(payload), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _fail(exc: Exception, code: int = 2) -> int:
    name = exc.code if isinstance(exc, ValuationError) else type(exc).__name__
    json.dump({"error": name, "detail": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _params_from(ns) -> ModelParams:
    return ModelParams(r=ns.r, delta=ns.delta, sigma=ns.sigma, b0=ns.b0)


def _spec_from(ns) -> ContractSpec:
    kind = ContractKind(ns.contract)
    alpha = ns.alpha if kind is ContractKind.APRM else 0.0
    return ContractSpec(kind=kind, m=ns.m, alpha=alpha)


def _common_flags(sub, with_contract=True) -> None:
    if with_contract:
        sub.add_argument("--contract", help="frm, abm, or aprm")
    sub.add_argument("--r", type=float, help="risk-free rate (decimal per year)")
    sub.add_argument("--delta", type=float, help="ownership benefit rate (decimal per year)")
    sub.add_argument("--sigma", type=float, help="index volatility (per sqrt-year)")
    sub.add_argument("--b0", type=float, help="initial loan-to-value")
    sub.add_argument("--m", type=float, help="mortgage rate (decimal per year)")
    sub.add_argument("--alpha", type=float, help="capital-gain sharing fraction (APRM)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mortval", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="closed-form value function of one contract")
    _common_flags(solve)
    solve.add_argument("--h", type=float, help="house price at which to report the value")
    solve.add_argument("--phi", type=float, help="foreclosure cost fraction (FRM only)")
    solve.add_argument("--format", choices=["json", "csv"], help="output format")
    solve.add_argument("--config", help="JSON file with defaults for any flag")

    sweep = subs.add_parser("sweep", help="tabulate a quantity along one axis")
    _common_flags(sweep)
    sweep.add_argument("--quantity", choices=["value", "relpp", "equiv-phi", "spread", "boundaries"])
    sweep.add_argument("--x", choices=["h", "alpha", "phi", "m"])
    sweep.add_argument("--x-min", type=float, dest="x_min")
    sweep.add_argument("--x-max", type=float, dest="x_max")
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--h", type=float, help="house price for quantities evaluated at fixed h")
    sweep.add_argument("--phi", type=float, help="foreclosure cost for value/spread quantities")
    sweep.add_argument("--config", help="JSON file with defaults for any flag")

    astar = subs.add_parser("alpha-star", help="sharing threshold that kills high-state prepayment")
    _common_flags(astar, with_contract=False)
    astar.add_argument("--config", help="JSON file with defaults for any flag")

    check = subs.add_parser("oracle-check", help="closed form vs grid, policy, and Monte Carlo oracles")
    _common_flags(check)
    check.add_argument("--h", type=float, help="house price for the policy/MC checks")
    check.add_argument("--n-points", type=int, dest="n_points", help="grid nodes")
    check.add_argument("--n-paths", type=int, dest="n_paths", help="Monte Carlo paths")
    check.add_argument("--horizon", type=float, help="Monte Carlo horizon (years)")
    check.add_argument("--seed", type=int)
    check.add_argument("--config", help="JSON file with defaults for any flag")

    sched = subs.add_parser("schedule", help="finite-maturity balance and payment schedules")
    sched.add_argument("--kind", help="frm, abm, or aprm")
    sched.add_argument("--m", type=float)
    sched.add_argument("--b0", type=float)
    sched.add_argument("--T", type=float, dest="T")
    sched.add_argument("--t", type=float)
    sched.add_argument("--h", type=float)
    sched.add_argument("--alpha", type=float)
    sched.add_argument("--config", help="JSON file with defaults for any flag")

    return parser


_DEFAULTS = {"alpha": 0.0, "h": 1.0, "format": "json", "n_points": 2001,
             "n_paths": 20000, "horizon": 200.0, "seed": 20200709, "steps": 50}


def _merge_config(ns: argparse.Namespace) -> argparse.Namespace:
    """Overlay explicit flags on config-file values on built-in defaults."""
    config = {}
    if getattr(ns, "config", None):
        with open(ns.config) as fh:
            config = json.load(fh)
    for key, value in vars(ns).items():
        if value is None:
            alt = config.get(key, config.get(key.replace("_", "-")))
            if alt is None:
                alt = _DEFAULTS.get(key)
            setattr(ns, key, alt)
    return ns


def _require(ns, names) -> None:
    missing = [n for n in names if getattr(ns, n, None) is None]
    if missing:
        raise ValuationError(f"missing required flags: {', '.join('--' + n for n in missing)}")


def _cmd_solve(ns) -> int:
    _require(ns, ["contract", "r", "delta", "sigma", "b0", "m"])
    params = _params_from(ns)
    spec = _spec_from(ns)
    solved = solve_contract(params, spec)

    payload = solved.to_dict()
    payload["inputs"] = {
        "contract": spec.kind.value, "r": params.r, "delta": params.delta,
        "sigma": params.sigma, "b0": params.b0, "m": spec.m, "alpha": spec.alpha,
        "h": ns.h,
    }
    payload["value_at_h"] = solved.value(ns.h)
    if ns.phi is not None:
        if spec.kind is not ContractKind.FRM:
            raise ValuationError("--phi applies to the FRM only")
        payload["inputs"]["phi"] = ns.phi
        payload["foreclosure_value_at_h"] = frm_value_with_foreclosure(params, spec.m, ns.phi, ns.h)

    if ns.format == "json":
        _emit_json(payload)
    else:
        writer = sys.stdout
        writer.write("lo,hi,action,c_p1,c_p2,k0,k1\n")
        for reg in _round_floats(payload)["regions"]:
            c = reg["coeffs"]
            hi = "" if reg["hi"] is None else reg["hi"]
            writer.write(f"{reg['lo']},{hi},{reg['action']},{c['c_p1']},{c['c_p2']},{c['k0']},{c['k1']}\n")
    return 0


def _sweep_series(ns, params):
    kinds = [ContractKind(k.strip()) for k in (ns.contract or "frm,abm,aprm").split(",")]

    def spec_for(kind, m=None, alpha=None):
        a = (ns.alpha if alpha is None else alpha) if kind is ContractKind.APRM else 0.0
        return ContractSpec(kind=kind, m=ns.m if m is None else m, alpha=a)

    quantity = ns.quantity
    if quantity == "value":
        def one(x):
            out = []
            for kind in kinds:
                h, m, alpha = ns.h, ns.m, ns.alpha
                if ns.x == "h":
                    h = x
                elif ns.x == "m":
                    m = x
                elif ns.x == "alpha":
                    alpha = x
                if kind is ContractKind.FRM and ns.phi is not None:
                    out.append(frm_value_with_foreclosure(params, m, ns.phi, h))
                else:
                    out.append(solve_contract(params, spec_for(kind, m=m, alpha=alpha)).value(h))
            return out
        return [k.value for k in kinds], one
    if quantity == "relpp":
        def one(x):
            out = []
            for kind in kinds:
                h = x if ns.x == "h" else ns.h
                alpha = x if ns.x == "alpha" else ns.alpha
                spec = spec_for(kind, alpha=alpha)
                v = solve_contract(params, spec).value(h)
                out.append(100.0 * prepay_option_value(params, spec, h) / v)
            return out
        return [k.value for k in kinds], one
    if quantity == "equiv-phi":
        targets = [k for k in kinds if k is not ContractKind.FRM] or [ContractKind.ABM, ContractKind.APRM]
        def one(x):
            h = x if ns.x == "h" else ns.h
            return [equivalent_foreclosure_cost(params, ns.m, t, ns.alpha, h).phi for t in targets]
        return [t.value for t in targets], one
    if quantity == "spread":
        targets = [k for k in kinds if k is not ContractKind.FRM] or [ContractKind.ABM, ContractKind.APRM]
        def one(x):
            phi = x if ns.x == "phi" else ns.phi
            return [endogenous_spread(params, ns.m, phi, t, ns.alpha, h=ns.h) for t in targets]
        return [t.value for t in targets], one
    # boundaries: first requested contract only
    kind = kinds[0]
    def one(x):
        m = x if ns.x == "m" else ns.m
        alpha = x if ns.x == "alpha" else ns.alpha
        solved = solve_contract(params, spec_for(kind, m=m, alpha=alpha))
        return [solved.boundaries.get(name, "") for name in ("h1", "h2", "h3")]
    return ["h1", "h2", "h3"], one


_SWEEP_AXES = {
    "value": {"h", "m", "alpha"},
    "relpp": {"h", "alpha"},
    "equiv-phi": {"h"},
    "spread": {"phi"},
    "boundaries": {"m", "alpha"},
}


def _cmd_sweep(ns) -> int:
    _require(ns, ["r", "delta", "sigma", "b0", "m", "quantity", "x", "x_min", "x_max", "steps"])
    if not (ns.steps >= 1 and ns.x_min < ns.x_max):
        raise ValuationError(f"need steps >= 1 and x-min < x-max, got {ns.steps}, [{ns.x_min}, {ns.x_max}]")
    if ns.x not in _SWEEP_AXES[ns.quantity]:
        raise ValuationError(
            f"quantity {ns.quantity} sweeps over {sorted(_SWEEP_AXES[ns.quantity])}, not --x {ns.x}"
        )
    params = _params_from(ns)
    names, one = _sweep_series(ns, params)
    xs = np.linspace(ns.x_min, ns.x_max, ns.steps + 1)

    rows = [one(x) for x in xs]

    def fmt(v):
        return "" if v == "" else f"{float(v):.{_SIG_DIGITS}g}"

    sys.stdout.write("x\t" + "\t".join(names) + "\n")
    for x, row in zip(xs, rows):
        sys.stdout.write(fmt(float(x)) + "\t" + "\t".join(fmt(v) for v in row) + "\n")
    return 0


def _cmd_alpha_star(ns) -> int:
    _require(ns, ["r", "delta", "sigma", "b0", "m"])
    regime = aprm_regime(_params_from(ns), ns.m)
    _emit_json({
        "regime": regime.regime.value,
        "m_star": regime.m_star,
        "alpha_star": regime.alpha_star,
    })
    return 0


def grid_window(solved: SolvedContract) -> tuple[float, float]:
    """Top grid node, and top of the window from 0.05 that ``oracle-check`` compares on."""
    bounds = solved.boundaries
    if "h3" in bounds:
        # Top node inside the prepayment band, where the boundary data are
        # exact in both branches of min(f, sup-coupon/r).
        h_max = 0.5 * (bounds["h2"] + bounds["h3"])
        return h_max, min(3.0, 0.99 * h_max)
    if "h2" in bounds:
        return max(3.0, 2.0 * bounds["h2"]), 3.0  # inside the top prepay region
    # No stopping set above: the top condition is only asymptotic, and its
    # error reaches the window like (3 / h_max)^{p1}; pad until that is 1e-3.
    return max(12.0, 3.0 * 1e3 ** (1.0 / solved.exponents.p1)), 3.0


def _cmd_oracle_check(ns) -> int:
    _require(ns, ["contract", "r", "delta", "sigma", "b0", "m"])
    params = _params_from(ns)
    spec = _spec_from(ns)
    solved = solve_contract(params, spec)
    cashflows = perpetual_cashflows(spec, params)

    h_max, window_top = grid_window(solved)
    grid_result = psor_value(params, cashflows, GridSpec(h_min=2e-3, h_max=h_max, n_points=ns.n_points))
    window = (grid_result.grid >= 0.05) & (grid_result.grid <= window_top)
    grid_gap = float(np.max(np.abs(grid_result.values[window] - solved.value(grid_result.grid[window]))))

    bounds = solved.boundaries
    policy = (bounds.get("h1"), bounds.get("h2"))
    policy_gap = abs(threshold_policy_value(params, cashflows, policy, ns.h) - solved.value(ns.h))

    nopp = solve_no_prepay(params, spec)
    mc = mc_cashflow_value(params, no_prepay_cashflows(spec, params), (nopp.boundaries.get("h1"), None),
                           ns.h, ns.n_paths, ns.horizon, ns.seed)
    mc_gap = abs(mc.estimate - nopp.value(ns.h))
    mc_tol = max(3.0 * mc.std_error, 5e-4) + mc.tail_bound

    node = int(np.argmin(np.abs(grid_result.grid - ns.h)))
    sys.stdout.write(
        f"value at h={ns.h:g}: closed-form {solved.value(ns.h):.9f}; "
        f"grid (node h={grid_result.grid[node]:.4f}) {grid_result.values[node]:.9f}; "
        f"threshold-policy {threshold_policy_value(params, cashflows, policy, ns.h):.9f}\n"
    )
    sys.stdout.write(
        f"held-forever value at h={ns.h:g}: closed-form {nopp.value(ns.h):.9f}; "
        f"monte-carlo {mc.estimate:.9f}\n"
    )
    checks = [
        ("grid sup-gap", grid_gap, 1e-3),
        ("threshold-policy gap", policy_gap, 1e-8),
        ("mc no-prepay gap", mc_gap, mc_tol),
    ]
    ok = True
    for name, gap, tol in checks:
        status = "ok" if gap <= tol else "FAIL"
        ok &= gap <= tol
        sys.stdout.write(f"{name}: {gap:.3e} (tol {tol:.3e}) {status}\n")
    sys.stdout.write(f"grid iterations: {grid_result.sweeps}; mc std error: {mc.std_error:.3e}; "
                     f"mc truncation bound: {mc.tail_bound:.3e}\n")
    return 0 if ok else 1


def _cmd_schedule(ns) -> int:
    _require(ns, ["kind", "m", "b0", "T", "t"])
    kind = ContractKind(ns.kind)
    if kind is ContractKind.FRM:
        balance, coupon = frm_schedule(ns.m, ns.b0, ns.T, ns.t)
        _emit_json({"balance": balance, "coupon": coupon})
    elif kind is ContractKind.ABM:
        _require(ns, ["h"])
        balance, coupon = abm_state(ns.m, ns.b0, ns.T, ns.t, ns.h)
        _emit_json({"balance": balance, "coupon": coupon})
    else:
        _require(ns, ["h"])
        balance, coupon, prepay = aprm_state(ns.m, ns.b0, ns.T, ns.t, ns.h, ns.alpha or 0.0)
        _emit_json({"balance": balance, "coupon": coupon, "prepay_amount": prepay})
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "alpha-star": _cmd_alpha_star,
    "oracle-check": _cmd_oracle_check,
    "schedule": _cmd_schedule,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        ns = _merge_config(ns)
        return _COMMANDS[ns.command](ns)
    except ValuationError as exc:
        return _fail(exc)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
