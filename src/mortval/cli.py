"""Command-line front end: solve, sweep, alpha-star, oracle-check, schedule.

All rates are decimals (0.0326, never 3.26 or "3.26%").  Single solves
emit JSON on stdout; sweeps emit tab-separated tables ready for plotting.
Errors exit with code 2 and a machine-readable {"error": ..., "detail":
...} object on stderr; oracle-check exits 1 when a tolerance is exceeded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from .aprm import aprm_regime
from .contracts import ContractKind, ContractSpec, abm_state, aprm_state, contract_spec, frm_schedule
from .errors import ValuationError
from .foreclosure import equivalent_foreclosure_cost, frm_value_with_foreclosure, spread_solver
from .model import ModelParams
from .options import prepay_option_value, solve_contract

_SIG_DIGITS = 12


def _oracle_forwarder(name: str):
    """A function that calls ``mortval.oracle.<name>``, importing the oracles
    (and numpy) on its first call rather than with this module."""
    def forward(*args, **kwargs):
        return getattr(importlib.import_module(".oracle", __package__), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


# No command calls these three.  The tracer in perfbench/tracing.py wraps them
# through this module's namespace; they go once it stops (ROADMAP item 1).
psor_value, threshold_policy_value, mc_cashflow_value = map(
    _oracle_forwarder, ("psor_value", "threshold_policy_value", "mc_cashflow_value"))


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


def _fail(exc: Exception) -> int:
    name = exc.code if isinstance(exc, ValuationError) else type(exc).__name__
    json.dump({"error": name, "detail": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return 2


def _params_from(ns) -> ModelParams:
    return ModelParams(r=ns.r, delta=ns.delta, sigma=ns.sigma, b0=ns.b0)


def _spec_from(ns) -> ContractSpec:
    return contract_spec(ContractKind(ns.contract), ns.m, ns.alpha)


def _cmd_solve(ns) -> int:
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


def _targets(kinds):
    """The contracts compared with the FRM: those requested, else the ABM and the APRM."""
    return [k for k in kinds if k is not ContractKind.FRM] or [ContractKind.ABM, ContractKind.APRM]


def _value_row(params, kinds, pt):
    out = []
    for kind in kinds:
        if kind is ContractKind.FRM and pt["phi"] is not None:
            out.append(frm_value_with_foreclosure(params, pt["m"], pt["phi"], pt["h"]))
        else:
            out.append(solve_contract(params, contract_spec(kind, pt["m"], pt["alpha"])).value(pt["h"]))
    return out


def _relpp_row(params, kinds, pt):
    out = []
    for kind in kinds:
        spec = contract_spec(kind, pt["m"], pt["alpha"])
        v = solve_contract(params, spec).value(pt["h"])
        out.append(100.0 * prepay_option_value(params, spec, pt["h"]) / v)
    return out


def _equiv_phi_row(params, kinds, pt):
    return [equivalent_foreclosure_cost(params, pt["m"], t, pt["alpha"], pt["h"]).phi for t in _targets(kinds)]


def _boundaries_row(params, kinds, pt):
    # first requested contract only
    solved = solve_contract(params, contract_spec(kinds[0], pt["m"], pt["alpha"]))
    return [solved.boundaries.get(name, "") for name in ("h1", "h2", "h3")]


def _each_point(row):
    """The row maker of a quantity whose points share no work."""
    return lambda params, kinds, base: lambda pt: row(params, kinds, pt)


def _spread_rows(params, kinds, base):
    # phi is the only axis, so one solver per target serves every point.
    solvers = [spread_solver(params, base["m"], t, base["alpha"], base["h"]) for t in _targets(kinds)]
    return lambda pt: [solve(pt["phi"]) for solve in solvers]


# Sweep quantity: (the axes --x may name, the column names for the requested
# contracts, the row maker: given the market, the contracts and the flag
# values, it returns the row at a point, the flag values with --x set to x).
_QUANTITIES = {
    "value": ({"h", "m", "alpha"}, lambda kinds: [k.value for k in kinds], _each_point(_value_row)),
    "relpp": ({"h", "alpha"}, lambda kinds: [k.value for k in kinds], _each_point(_relpp_row)),
    "equiv-phi": ({"h"}, lambda kinds: [t.value for t in _targets(kinds)], _each_point(_equiv_phi_row)),
    "spread": ({"phi"}, lambda kinds: [t.value for t in _targets(kinds)], _spread_rows),
    "boundaries": ({"m", "alpha"}, lambda kinds: ["h1", "h2", "h3"], _each_point(_boundaries_row)),
}


def _abscissae(x_min: float, x_max: float, steps: int) -> list[float]:
    """``steps + 1`` evenly spaced points from ``x_min`` to ``x_max``, in the
    operations of ``numpy.linspace``, so with its bits: i * step + x_min and
    the end exactly, or (i / steps) * (x_max - x_min) + x_min where the step
    underflows to 0."""
    delta = x_max - x_min
    step = delta / steps
    if step == 0.0:
        return [i / steps * delta + x_min for i in range(steps)] + [x_max]
    return [i * step + x_min for i in range(steps)] + [x_max]


def _cmd_sweep(ns) -> int:
    if not (ns.steps >= 1 and ns.x_min < ns.x_max):
        raise ValuationError(f"need steps >= 1 and x-min < x-max, got {ns.steps}, [{ns.x_min}, {ns.x_max}]")
    axes, names, row_maker = _QUANTITIES[ns.quantity]
    if ns.x not in axes:
        raise ValuationError(f"quantity {ns.quantity} sweeps over {sorted(axes)}, not --x {ns.x}")
    params = _params_from(ns)
    kinds = [ContractKind(k.strip()) for k in (ns.contract or "frm,abm,aprm").split(",")]
    base = {"h": ns.h, "m": ns.m, "alpha": ns.alpha, "phi": ns.phi}
    row = row_maker(params, kinds, base)
    xs = _abscissae(ns.x_min, ns.x_max, ns.steps)
    rows = [row({**base, ns.x: x}) for x in xs]

    def fmt(v):
        return "" if v == "" else f"{float(v):.{_SIG_DIGITS}g}"

    sys.stdout.write("x\t" + "\t".join(names(kinds)) + "\n")
    for x, values in zip(xs, rows):
        sys.stdout.write(fmt(x) + "\t" + "\t".join(fmt(v) for v in values) + "\n")
    return 0


def _cmd_alpha_star(ns) -> int:
    regime = aprm_regime(_params_from(ns), ns.m)
    _emit_json({
        "regime": regime.regime.value,
        "m_star": regime.m_star,
        "alpha_star": regime.alpha_star,
    })
    return 0


def _cmd_oracle_check(ns) -> int:
    import numpy as np

    from .oracle import oracle_triangle

    t = oracle_triangle(_params_from(ns), _spec_from(ns), ns.h, ns.n_points, ns.n_paths, ns.seed)
    grid = t.grid.grid
    if grid[0] <= ns.h <= grid[-1]:
        node = int(np.argmin(np.abs(grid - ns.h)))
        at_grid = f"grid (node h={grid[node]:.4f}) {t.grid.values[node]:.9f}"
    else:
        at_grid = f"grid none (h outside its nodes {grid[0]:.4f} to {grid[-1]:.4f})"
    sys.stdout.write(
        f"value at h={ns.h:g}: closed-form {t.value:.9f}; {at_grid}; "
        f"threshold-policy {t.policy:.9f}\n"
    )
    policy = "held forever" if t.mc_stop is None else f"stopped at h1={t.mc_stop:.6g}"
    sys.stdout.write(f"no-prepayment value at h={ns.h:g} ({policy}): closed-form {t.held:.9f}; "
                     f"monte-carlo {t.mc.estimate:.9f}\n")
    for v in t.verdicts:
        sys.stdout.write(f"{v.name}: {v.gap:.3e} (tol {v.tol:.3e}) {'ok' if v.ok else 'FAIL'}\n")
    sys.stdout.write(f"grid iterations: {t.grid.sweeps}; mc std error: {t.mc.std_error:.3e}\n")
    return 0 if all(v.ok for v in t.verdicts) else 1


def _cmd_schedule(ns) -> int:
    kind = ContractKind(ns.kind)
    if kind is ContractKind.FRM:
        state = frm_schedule(ns.m, ns.b0, ns.T, ns.t)
    elif kind is ContractKind.ABM:
        state = abm_state(ns.m, ns.b0, ns.T, ns.t, ns.h)
    else:
        state = aprm_state(ns.m, ns.b0, ns.T, ns.t, ns.h, ns.alpha)
    _emit_json(dict(zip(("balance", "coupon", "prepay_amount"), state)))
    return 0


# Every flag, by dest: (type, choices, default, help).  The flag is spelled
# "--" + dest with "-" for "_"; a default of None means the flag has none.
_FLAGS = {
    "contract": (None, None, None, "frm, abm, or aprm (sweep: a comma-separated list)"),
    "kind": (None, None, None, "frm, abm, or aprm"),
    "r": (float, None, None, "risk-free rate (decimal per year)"),
    "delta": (float, None, None, "ownership benefit rate (decimal per year)"),
    "sigma": (float, None, None, "index volatility (per sqrt-year)"),
    "b0": (float, None, None, "initial loan-to-value"),
    "m": (float, None, None, "mortgage rate (decimal per year)"),
    "alpha": (float, None, 0.0, "capital-gain sharing fraction (APRM)"),
    "h": (float, None, 1.0, "house price at which to evaluate"),
    "phi": (float, None, None, "foreclosure cost fraction (FRM)"),
    "format": (None, ["json", "csv"], "json", "output format"),
    "quantity": (None, list(_QUANTITIES), None, "quantity to tabulate"),
    "x": (None, ["h", "alpha", "phi", "m"], None, "flag to sweep"),
    "x_min": (float, None, None, "first value of --x"),
    "x_max": (float, None, None, "last value of --x"),
    "steps": (int, None, 50, "intervals between --x-min and --x-max"),
    "n_points": (int, None, 2001, "grid nodes"),
    "n_paths": (int, None, 20000, "Monte Carlo size: n/2 sampled times (3n/2 at a sharp crossing)"),
    "seed": (int, None, 20200709, "Monte Carlo seed"),
    "T": (float, None, None, "maturity (years)"),
    "t": (float, None, None, "time since origination (years)"),
    "config": (None, None, None, "JSON file with defaults for any flag"),
}

_MARKET = ("r", "delta", "sigma", "b0", "m")

# Command: (handler, help, its flags in --help order, the flags it cannot run
# without).  Every command also takes --config.
_COMMANDS = {
    "solve": (_cmd_solve, "closed-form value function of one contract",
              ("contract", *_MARKET, "alpha", "h", "phi", "format"), ("contract", *_MARKET)),
    "sweep": (_cmd_sweep, "tabulate a quantity along one axis",
              ("contract", *_MARKET, "alpha", "quantity", "x", "x_min", "x_max", "steps", "h", "phi"),
              (*_MARKET, "quantity", "x", "x_min", "x_max")),
    "alpha-star": (_cmd_alpha_star, "sharing threshold that kills high-state prepayment", _MARKET, _MARKET),
    "oracle-check": (_cmd_oracle_check, "closed form vs grid, policy, and Monte Carlo oracles",
                     ("contract", *_MARKET, "alpha", "h", "n_points", "n_paths", "seed"),
                     ("contract", *_MARKET)),
    "schedule": (_cmd_schedule, "finite-maturity balance and payment schedules",
                 ("kind", "m", "b0", "T", "t", "h", "alpha"), ("kind", "m", "b0", "T", "t")),
}


def _flag(dest: str) -> str:
    """The command-line spelling of the flag ``dest``."""
    return "--" + dest.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mortval", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for dest in (*flags, "config"):
            type_, choices, _, flag_help = _FLAGS[dest]
            sub.add_argument(_flag(dest), type=type_, choices=choices, help=flag_help)
    return parser


# JSON types a config value may take, by the type of its flag.
_CONFIG_TYPES = {float: (int, float), int: (int,), None: (str,)}


def _config_value(dest: str, value):
    """A config-file value checked and converted like the flag ``dest``."""
    type_, choices, _, _ = _FLAGS[dest]
    if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[type_]):
        raise ValuationError(f"config value {value!r} has the wrong type for {_flag(dest)}")
    if type_ is not None:
        value = type_(value)
    if choices is not None and value not in choices:
        raise ValuationError(f"config value {value!r} for {_flag(dest)} is not one of {choices}")
    return value


def _merge_config(ns: argparse.Namespace, flags, required) -> None:
    """Overlay explicit flags on config-file values on built-in defaults, then
    check that every required flag has a value; other config keys are ignored."""
    config = {}
    if ns.config:
        with open(ns.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValuationError(f"config file must hold a JSON object, got {type(config).__name__}")
    for dest in flags:
        if getattr(ns, dest) is None:
            value = config.get(dest, config.get(dest.replace("_", "-")))
            setattr(ns, dest, _FLAGS[dest][2] if value is None else _config_value(dest, value))
    missing = [dest for dest in required if getattr(ns, dest) is None]
    if missing:
        raise ValuationError(f"missing required flags: {', '.join(_flag(dest) for dest in missing)}")


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    handler, _, flags, required = _COMMANDS[ns.command]
    try:
        _merge_config(ns, flags, required)
        return handler(ns)
    except (ValuationError, ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
