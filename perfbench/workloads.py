"""The five benchmark workloads: seeded inputs, the timed op, its checks.

Each workload turns a seed into an endless, reproducible input stream
(``inputs(i)`` for op ``i``), runs one op on one input (``op``, the only
timed call), and checks the op's output outside the timed region
(``check``).  ``mortval`` sees only the generated inputs.

Outcome of a check, one of:

* ``None``: the output is right;
* ``("gate", why)``: an oracle's acceptance gate was breached.  This is a
  verdict of the grid or Monte Carlo oracle, counted as a failed op;
* ``("check", why)``: a closed-form output is wrong.  Counted as a failed
  op, and the run is reported as incorrect.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import mortval
from mortval import foreclosure, options, oracle
from mortval.contracts import ContractKind, ContractSpec, PerpetualCashflows, perpetual_cashflows
from mortval.model import ModelParams
from mortval.solution import Action

from tracing import aprm_label

FRM, ABM, APRM = ContractKind.FRM, ContractKind.ABM, ContractKind.APRM
KINDS = (FRM, ABM, APRM)

# Draw box of ``quotes`` and ``grid``: the market, contract and price
# ranges over which every closed-form regime occurs.
QUOTE_BOX = {
    "r": (0.01, 0.04), "delta": (0.025, 0.08), "sigma": (0.07, 0.20), "b0": (0.6, 0.95),
    "m_minus_r": (0.005, 0.055), "alpha_aprm": (0.0, 0.5), "h_log_uniform": (0.4, 2.5),
}
# Market scenarios of ``spreads`` and ``cli``, near the paper's calibration.
SCENARIO_BOX = {
    "r": (0.012, 0.025), "delta": (0.035, 0.075), "sigma": (0.09, 0.14), "b0": (0.8, 0.95),
    "m_minus_r": (0.01, 0.02), "alpha": (0.03, 0.08), "phi": (0.05, 0.6),
}
N_SCENARIOS = 48
SCENARIO_MIN_H2 = 1.25
_CELL_TRIES = 32

CURVE = np.geomspace(0.05, 10.0, 256)
GRID_NODES = 2001
GRID_DESIGN = 24
# Sweep budget of the grid oracle.  Every draw that converges does so in
# under 8 000 sweeps; the ones that do not converge fail the same way at
# the library default of 200 000, which costs 12-17 s an op and would let a
# single draw fill a run.
GRID_SWEEP_CAP = 20_000
MC_PATHS = 20_000

_BLOCK = 1024


def _radical_inverse(i: int, base: int) -> float:
    x, f = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        f /= base
        x += digit * f
    return x


def _fingerprint(*values) -> bytes:
    """Bytes of every float in ``values`` (arrays, scalars, nested tuples)."""
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(v.tobytes())
        elif isinstance(v, float):
            out.append(struct.pack("<d", v))
        elif isinstance(v, (tuple, list)):
            out.append(_fingerprint(*v))
        else:
            out.append(repr(v).encode())
    return b"|".join(out)


def _solved_floats(solved) -> tuple:
    floats = []
    for reg in solved.regions:
        floats += [reg.lo, reg.hi, reg.c_p1, reg.c_p2, reg.k0, reg.k1]
    return tuple(floats) + tuple(sorted(solved.boundaries.items()))


@dataclasses.dataclass(frozen=True)
class Draw:
    params: ModelParams
    spec: ContractSpec
    h: float


def box_draw(u, kind: ContractKind) -> Draw:
    """Map a point of the unit cube, ordered as ``QUOTE_BOX``, to a draw."""
    box = QUOTE_BOX

    def pick(key, x):
        lo, hi = box[key]
        return lo + (hi - lo) * float(x)

    r = pick("r", u[0])
    params = ModelParams(r=r, delta=pick("delta", u[1]), sigma=pick("sigma", u[2]), b0=pick("b0", u[3]))
    alpha = pick("alpha_aprm", u[5]) if kind is APRM else 0.0
    spec = ContractSpec(kind=kind, m=r + pick("m_minus_r", u[4]), alpha=alpha)
    h_lo, h_hi = box["h_log_uniform"]
    return Draw(params, spec, h_lo * (h_hi / h_lo) ** float(u[6]))


class ContractDraws:
    """Seeded contract draws from ``QUOTE_BOX``, one per op index.

    sigma and delta, which set the characteristic exponents and so most of
    the solvers' behaviour, come from a Halton sequence (bases 2 and 5)
    shifted by a seeded offset, so even a short run covers their square
    evenly.  The other inputs are uniform, and the kind rotates FRM, ABM,
    APRM.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.shift = np.random.default_rng([seed, 1 << 40]).random(2)
        self._block = (-1, None)

    def __call__(self, i: int) -> Draw:
        b, j = divmod(i, _BLOCK)
        if self._block[0] != b:
            self._block = (b, np.random.default_rng([self.seed, b]).random((_BLOCK, 5)))
        u = self._block[1][j]
        sigma = (_radical_inverse(i + 1, 2) + self.shift[0]) % 1.0
        delta = (_radical_inverse(i + 1, 5) + self.shift[1]) % 1.0
        return box_draw((u[0], delta, sigma, u[1], u[2], u[3], u[4]), KINDS[i % 3])


class StratifiedDraws:
    """Seeded draws from ``QUOTE_BOX`` on a fixed Latin-hypercube design.

    Op ``i`` uses stratum ``i % GRID_DESIGN``: every input's range is cut
    into ``GRID_DESIGN`` equal cells, and each stratum owns one cell per
    input through permutations that are the same for every seed.  The
    seed places the draw inside its cells.  A run of ``grid`` holds only
    about twenty ops, a third of them slow or failing; with independent
    draws the number of those per run, and so every timing, would depend
    on the seed more than on the code.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        fixed = np.random.default_rng(0)
        self.cells = np.stack([fixed.permutation(GRID_DESIGN) for _ in QUOTE_BOX], axis=1)

    def __call__(self, i: int) -> Draw:
        cycle, j = divmod(i, GRID_DESIGN)
        u = (self.cells[j] + np.random.default_rng([self.seed, 1 << 44, cycle, j]).random(len(QUOTE_BOX)))
        return box_draw(u / GRID_DESIGN, KINDS[j % 3])


def regime_of(solved, draw: Draw) -> str:
    kind, params, m = draw.spec.kind, draw.params, draw.spec.m
    if kind is FRM:
        return "frm"
    if kind is ABM:
        return "abm_one_sided" if m <= params.delta else "abm_two_sided"
    return "aprm_" + aprm_label(params, m, solved)


def scenarios(seed: int) -> list[tuple[ModelParams, float, float]]:
    """``N_SCENARIOS`` seeded markets: (params, FRM rate m_f, APRM alpha).

    Markets are stratified like ``StratifiedDraws``: market ``j`` owns one
    of ``N_SCENARIOS`` equal cells of each input's range, through
    permutations that are the same for every seed, and the seed places it
    inside them.  A rate sheet quotes a market only where the FRM at
    ``m_f`` is held at origination, so a draw whose FRM prepays below
    ``SCENARIO_MIN_H2`` is redrawn in its cells, and after
    ``_CELL_TRIES`` misses anywhere in the box: spreads and equivalent
    costs are undefined there.
    """
    fixed = np.random.default_rng(1)
    cells = np.stack([fixed.permutation(N_SCENARIOS) for _ in range(6)], axis=1)
    rng = np.random.default_rng([seed, 1 << 41])
    lo = {k: v[0] for k, v in SCENARIO_BOX.items()}
    span = {k: v[1] - v[0] for k, v in SCENARIO_BOX.items()}
    out = []
    for j in range(N_SCENARIOS):
        tries = 0
        while True:
            u = rng.random(6)
            u = ((cells[j] + u) / N_SCENARIOS if tries < _CELL_TRIES else u).tolist()
            tries += 1
            r = lo["r"] + span["r"] * u[0]
            params = ModelParams(r=r, delta=lo["delta"] + span["delta"] * u[1],
                                 sigma=lo["sigma"] + span["sigma"] * u[2], b0=lo["b0"] + span["b0"] * u[3])
            m_f = r + lo["m_minus_r"] + span["m_minus_r"] * u[4]
            if mortval.solve_frm(params, m_f).boundaries["h2"] >= SCENARIO_MIN_H2:
                out.append((params, m_f, lo["alpha"] + span["alpha"] * u[5]))
                break
    return out


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    """Base: ``inputs`` -> ``op`` (timed) -> ``check`` and ``fingerprint``."""

    name = ""
    # A run ends only after whole rounds of this many ops, so its mix of
    # inputs does not depend on how fast the core was.
    round_ops = 1
    trace_ops = 0
    # Ops run in child processes, whose cores the in-process probe cannot time.
    in_children = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, i: int):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out):
        return None

    def fingerprint(self, out) -> bytes:
        return _fingerprint(out)

    def warm_up(self) -> None:
        self.op(self.inputs(0))

    def market_key(self, x):
        """Market parameters of an input, to measure how often ops share them."""
        return x.params

    def summary(self, x, out):
        """What ``info`` needs of one op, kept in place of its output."""
        return None

    def info(self, summaries: list) -> dict:
        return {}


def _shares(labels: list[str]) -> dict[str, float]:
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return {k: v / max(len(labels), 1) for k, v in sorted(counts.items())}


class Quotes(Workload):
    name = "quotes"
    round_ops = len(KINDS)
    trace_ops = 3000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = ContractDraws(seed)

    def inputs(self, i: int) -> Draw:
        return self.draws(i)

    def op(self, x: Draw):
        solved = options.solve_contract(x.params, x.spec)
        value = solved.value(x.h)
        curve = solved.value(CURVE)
        prepay = options.prepay_option_value(x.params, x.spec, x.h)
        default = options.default_option_value(x.params, x.spec, x.h)
        return solved, value, curve, prepay, default

    def fingerprint(self, out) -> bytes:
        solved, *rest = out
        return _fingerprint(_solved_floats(solved), *rest)

    def check(self, x: Draw, out):
        solved, value, curve, prepay, default = out
        cashflows = perpetual_cashflows(x.spec, x.params)
        payoff = np.asarray(cashflows.payoff(CURVE), dtype=float)
        if not np.all(np.isfinite(curve)):
            return ("check", "non-finite value on the curve")
        excess = float(np.max(curve - payoff))
        if excess > 1e-9 * float(np.max(np.maximum(1.0, payoff))):
            return ("check", f"value exceeds payoff by {excess:.3e}")
        if not (prepay >= -1e-12 and default >= -1e-12):
            return ("check", f"negative option cost {prepay}, {default}")
        bounds = solved.boundaries
        # The policy oracle models the two thresholds (h1, h2) only, which
        # describe the contract below an outer band edge h3.
        if "h3" not in bounds or x.h < bounds["h3"]:
            policy = (bounds.get("h1"), bounds.get("h2"))
            exact = oracle.threshold_policy_value(x.params, cashflows, policy, x.h)
            if abs(exact - value) > 1e-8:
                return ("check", f"policy oracle gap {abs(exact - value):.3e}")
        return None

    def summary(self, x: Draw, out):
        return "error" if out is None else regime_of(out[0], x)

    def info(self, summaries: list) -> dict:
        return {"draw_box": QUOTE_BOX, "regime_shares": _shares(summaries)}


@dataclasses.dataclass(frozen=True)
class Cell:
    kind: str
    params: ModelParams
    m_f: float
    alpha: float
    target: ContractKind
    phi: float


class Spreads(Workload):
    name = "spreads"
    trace_ops = 120
    # Two thirds of the cells are spreads, so the median op is a spread.
    CELLS = (("spread", ABM), ("spread", APRM), ("equiv", ABM),
             ("spread", ABM), ("spread", APRM), ("max_rate", FRM),
             ("spread", ABM), ("spread", APRM), ("equiv", APRM),
             ("spread", ABM), ("spread", APRM), ("max_rate", FRM))

    round_ops = len(CELLS)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.markets = scenarios(seed)

    def inputs(self, i: int) -> Cell:
        rng = np.random.default_rng([self.seed, 1 << 42, i])
        params, m_f, alpha = self.markets[int(rng.integers(N_SCENARIOS))]
        kind, target = self.CELLS[i % len(self.CELLS)]
        lo, hi = SCENARIO_BOX["phi"]
        return Cell(kind, params, m_f, alpha, target, lo + (hi - lo) * float(rng.random()))

    def op(self, x: Cell):
        if x.kind == "spread":
            return foreclosure.endogenous_spread(x.params, x.m_f, x.phi, x.target, x.alpha, h=1.0)
        if x.kind == "equiv":
            return foreclosure.equivalent_foreclosure_cost(x.params, x.m_f, x.target, x.alpha, 1.0).phi
        return foreclosure.max_rate(x.params, x.target)

    def check(self, x: Cell, out: float):
        p = x.params

        def target_value(m):
            return options.solve_contract(p, ContractSpec(x.target, m, x.alpha if x.target is APRM else 0.0)).value(1.0)

        if x.kind == "spread":
            want = foreclosure.frm_value_with_foreclosure(p, x.m_f, x.phi, 1.0)
            got = target_value(x.m_f + out / 1e4)
            if not _close(got, want, 1e-9):
                return ("check", f"target at the spread {got} vs adjusted FRM {want}")
        elif x.kind == "equiv":
            # The adjusted FRM value is affine in phi; extrapolate it to the
            # returned phi, which may lie outside [0, 1).
            v0 = foreclosure.frm_value_with_foreclosure(p, x.m_f, 0.0, 1.0)
            v_half = foreclosure.frm_value_with_foreclosure(p, x.m_f, 0.5, 1.0)
            adjusted = v0 + (v_half - v0) * out / 0.5
            if not _close(adjusted, target_value(x.m_f), 1e-9):
                return ("check", f"adjusted FRM at phi={out} is {adjusted}, target {target_value(x.m_f)}")
        else:
            below = options.solve_contract(p, ContractSpec(FRM, out * (1 - 1e-9))).region_at(1.0).action
            above = options.solve_contract(p, ContractSpec(FRM, out * (1 + 1e-9))).region_at(1.0).action
            if below is not Action.CONTINUE or above is Action.CONTINUE:
                return ("check", f"h=1 is {below.value} below and {above.value} above max_rate {out}")
        return None

    def info(self, summaries: list) -> dict:
        return {"scenario_box": SCENARIO_BOX, "scenarios": N_SCENARIOS,
                "cells": [f"{k}:{t.value}" for k, t in self.CELLS]}


def grid_spec(h_max: float):
    """The grid of ``mortval oracle-check``, with the benchmark's sweep cap.

    Keyword arguments the installed ``GridSpec`` does not take are left
    out, so the op keeps running when the solver's tuning knobs change.
    """
    names = {f.name for f in dataclasses.fields(oracle.GridSpec)}
    kwargs = {"h_min": 2e-3, "h_max": h_max, "n_points": GRID_NODES}
    if "relaxation" in names and hasattr(oracle, "optimal_relaxation"):
        kwargs["relaxation"] = oracle.optimal_relaxation(GRID_NODES)
    if "max_sweeps" in names:
        kwargs["max_sweeps"] = GRID_SWEEP_CAP
    return oracle.GridSpec(**kwargs)


class Grid(Workload):
    name = "grid"
    round_ops = GRID_DESIGN
    trace_ops = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = StratifiedDraws(seed)

    def inputs(self, i: int) -> Draw:
        return self.draws(i)

    def warm_up(self) -> None:
        # A fixed draw that converges, so set-up time does not depend on
        # whether the seed's first draw is one the solver cannot finish.
        params = ModelParams(r=0.017825, delta=0.045, sigma=0.1125, b0=0.9)
        self.op(Draw(params, ContractSpec(FRM, 0.0326), 1.0))

    def op(self, x: Draw):
        solved = options.solve_contract(x.params, x.spec)
        cashflows = perpetual_cashflows(x.spec, x.params)
        bounds = solved.boundaries
        # Window rule of ``mortval oracle-check``.
        if "h3" in bounds:
            h_max = 0.5 * (bounds["h2"] + bounds["h3"])
            window_top = min(3.0, 0.99 * h_max)
        elif "h2" in bounds:
            h_max, window_top = max(3.0, 2.0 * bounds["h2"]), 3.0
        else:
            h_max, window_top = 12.0, 3.0
        result = oracle.psor_value(x.params, cashflows, grid_spec(h_max))
        window = (result.grid >= 0.05) & (result.grid <= window_top)
        grid_gap = float(np.max(np.abs(result.values[window] - solved.value(result.grid[window]))))
        policy = (bounds.get("h1"), bounds.get("h2"))
        policy_gap = abs(oracle.threshold_policy_value(x.params, cashflows, policy, 1.0) - solved.value(1.0))
        return grid_gap, policy_gap, result.values

    def check(self, x: Draw, out):
        grid_gap, policy_gap, _ = out
        if not grid_gap <= 1e-3:
            return ("gate", f"grid sup-gap {grid_gap:.3e} > 1e-3")
        if not policy_gap <= 1e-8:
            return ("gate", f"policy gap {policy_gap:.3e} > 1e-8")
        return None

    def summary(self, x: Draw, out):
        regime = regime_of(options.solve_contract(x.params, x.spec), x)
        return regime, None if out is None else out[0]

    def info(self, summaries: list) -> dict:
        gaps = [gap for _r, gap in summaries if gap is not None]
        return {"draw_box": QUOTE_BOX, "regime_shares": _shares([r for r, _g in summaries]),
                "grid_gap_max": max(gaps, default=0.0), "grid_sweep_cap": GRID_SWEEP_CAP}


@dataclasses.dataclass(frozen=True)
class McCase:
    label: str
    params: ModelParams
    cashflows: PerpetualCashflows = dataclasses.field(compare=False)
    policy: tuple | None
    closed: float
    horizon: float
    seed: int


def _identity(x):
    return np.asarray(x, dtype=float)


def mc_cases(seed: int) -> list[McCase]:
    """The six Monte Carlo cross-checks of the acceptance oracle triangle.

    Runs take them in rounds of three.  The first round, which fills a
    run at the seed commit (4.4, 4.7 and 7.6 s), covers the per-week
    policy loop and the chunked integral at both horizons.
    """
    base = dict(r=0.017825, sigma=0.1125, b0=0.9)
    p45 = ModelParams(delta=0.045, **base)
    p30 = ModelParams(delta=0.03, **base)
    frm_spec = ContractSpec(FRM, 0.0326)
    frm_cf = perpetual_cashflows(frm_spec, p45)
    frm_nopp = options.solve_no_prepay(p45, frm_spec)
    cases = [McCase("frm default-only", p45,
                    PerpetualCashflows(coupon=frm_cf.coupon, payoff=_identity, prepay_amount=_identity, kinks=()),
                    (frm_nopp.boundaries["h1"], None), frm_nopp.value(1.0), 200.0, seed)]
    for label, params, kind, m, horizon in (
        ("aprm m=0.06", p45, APRM, 0.06, 200.0),
        ("abm tiny-benefit", p30, ABM, 0.0326, 300.0),
        ("abm low-benefit", p45, ABM, 0.0326, 200.0),
        ("aprm m=0.0326", p45, APRM, 0.0326, 200.0),
        ("aprm m=0.047", p45, APRM, 0.047, 200.0),
    ):
        spec = ContractSpec(kind, m, 0.05 if kind is APRM else 0.0)
        cases.append(McCase(label, params, perpetual_cashflows(spec, params), None,
                            options.solve_no_prepay(params, spec).value(1.0), horizon, seed))
    return cases


class MonteCarlo(Workload):
    name = "montecarlo"
    round_ops = 3
    trace_ops = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = mc_cases(seed)

    def inputs(self, i: int) -> McCase:
        return self.cases[i % len(self.cases)]

    def warm_up(self) -> None:
        # One simulation is 4-8 s with nothing to fill; the warm-up stops
        # at the closed-form references the cases are built from.
        mc_cases(self.seed)

    def op(self, x: McCase):
        return oracle.mc_cashflow_value(x.params, x.cashflows, x.policy, 1.0, MC_PATHS, x.horizon, x.seed)

    def fingerprint(self, out) -> bytes:
        return _fingerprint(out.estimate, out.std_error)

    def check(self, x: McCase, out):
        gap = abs(out.estimate - x.closed)
        tol = max(3.0 * out.std_error, 5e-4)
        if not gap <= tol:
            return ("gate", f"{x.label}: mc gap {gap:.3e} > {tol:.3e}")
        return None

    def summary(self, x: McCase, out):
        return x.label, None if out is None else out.std_error

    def info(self, summaries: list) -> dict:
        return {"cases": [label for label, _se in summaries], "n_paths": MC_PATHS,
                "mc_stderr_max": mc_stderr_max(summaries)}


def mc_stderr_max(summaries: list) -> float:
    return max((se for _label, se in summaries if se is not None), default=0.0)


# ---------------------------------------------------------------- cli

# The rotation of ops.  The spread sweep, twice as slow as any other
# command, is a sixth of it, so the 90th percentile falls inside that
# group rather than on the edge between it and the rest.
CLI_MIX = ("solve-frm-phi", "solve-frm-csv", "solve-abm", "sweep-spread", "solve-aprm", "alpha-star",
           "schedule", "sweep-value", "sweep-relpp", "sweep-spread", "sweep-boundaries", "sweep-equiv-phi")
CLI_COMMANDS = tuple(dict.fromkeys(CLI_MIX))


def command_group(label: str) -> str:
    """Name the per-layer cli metrics use: the subcommand, sweeps by quantity."""
    return "solve" if label.startswith("solve") else label


@dataclasses.dataclass(frozen=True)
class CliOp:
    label: str
    argv: tuple[str, ...]
    params: ModelParams
    m: float
    alpha: float
    h: float
    phi: float
    t: float


def _g(x: float) -> str:
    return repr(float(x))


def _r12(x) -> str:
    return "" if x == "" or x is None else f"{float(x):.12g}"


def cli_argv(label: str, params: ModelParams, m: float, alpha: float, h: float, phi: float, t: float):
    market = ["--r", _g(params.r), "--delta", _g(params.delta), "--sigma", _g(params.sigma),
              "--b0", _g(params.b0), "--m", _g(m)]
    if label == "solve-frm-phi":
        return ["solve", "--contract", "frm", *market, "--h", _g(h), "--phi", _g(phi)]
    if label == "solve-frm-csv":
        return ["solve", "--contract", "frm", *market, "--format", "csv"]
    if label == "solve-abm":
        return ["solve", "--contract", "abm", *market, "--h", _g(h)]
    if label == "solve-aprm":
        return ["solve", "--contract", "aprm", *market, "--alpha", _g(alpha), "--h", _g(h)]
    if label == "alpha-star":
        return ["alpha-star", *market]
    if label == "schedule":
        return ["schedule", "--kind", "aprm", "--m", _g(m), "--b0", _g(params.b0), "--T", "30",
                "--t", _g(t), "--h", _g(h), "--alpha", _g(alpha)]
    sweep = {
        "sweep-value": ["--quantity", "value", "--x", "h", "--x-min", "0.2", "--x-max", "3", "--steps", "100"],
        "sweep-relpp": ["--quantity", "relpp", "--x", "h", "--x-min", "0.2", "--x-max", "3", "--steps", "100"],
        "sweep-boundaries": ["--quantity", "boundaries", "--x", "m", "--x-min", _g(params.r + 0.005),
                             "--x-max", _g(params.r + 0.035), "--steps", "40", "--contract", "frm"],
        "sweep-equiv-phi": ["--quantity", "equiv-phi", "--x", "h", "--x-min", "0.6", "--x-max", "1.2",
                            "--steps", "40"],
        "sweep-spread": ["--quantity", "spread", "--x", "phi", "--x-min", "0.05", "--x-max", "0.6",
                         "--steps", "50"],
    }[label]
    return ["sweep", *market, "--alpha", _g(alpha), *sweep]


def _parse_x(argv, flag):
    return float(argv[argv.index(flag) + 1])


def cli_expected(x: CliOp):
    """What the command must print, from the library directly, at 12 digits."""
    p, m, alpha, h = x.params, x.m, x.alpha, x.h
    label = x.label
    if label.startswith("solve"):
        kind = ContractKind(label.split("-")[1])
        spec = ContractSpec(kind, m, alpha if kind is APRM else 0.0)
        solved = options.solve_contract(p, spec)
        if label == "solve-frm-csv":
            rows = []
            for reg in solved.regions:
                hi = "" if math.isinf(reg.hi) else _r12(reg.hi)
                rows.append([_r12(reg.lo), hi, reg.action.value] +
                            [_r12(c) for c in (reg.c_p1, reg.c_p2, reg.k0, reg.k1)])
            return rows
        payload = solved.to_dict()
        payload["value_at_h"] = solved.value(h)
        if label == "solve-frm-phi":
            payload["foreclosure_value_at_h"] = foreclosure.frm_value_with_foreclosure(p, m, x.phi, h)
        return _rounded(payload)
    if label == "alpha-star":
        reg = mortval.aprm_regime(p, m)
        return _rounded({"regime": reg.regime.value, "m_star": reg.m_star, "alpha_star": reg.alpha_star})
    if label == "schedule":
        balance, coupon, prepay = mortval.aprm_state(m, p.b0, 30.0, x.t, h, alpha)
        return _rounded({"balance": balance, "coupon": coupon, "prepay_amount": prepay})
    xs = np.linspace(_parse_x(x.argv, "--x-min"), _parse_x(x.argv, "--x-max"), int(_parse_x(x.argv, "--steps")) + 1)
    rows = []
    for xv in xs:
        xv = float(xv)
        if label == "sweep-value":
            vals = [options.solve_contract(p, ContractSpec(k, m, alpha if k is APRM else 0.0)).value(xv) for k in KINDS]
        elif label == "sweep-relpp":
            vals = []
            for k in KINDS:
                spec = ContractSpec(k, m, alpha if k is APRM else 0.0)
                vals.append(100.0 * options.prepay_option_value(p, spec, xv) / options.solve_contract(p, spec).value(xv))
        elif label == "sweep-boundaries":
            b = options.solve_contract(p, ContractSpec(FRM, xv)).boundaries
            vals = [b.get(name, "") for name in ("h1", "h2", "h3")]
        elif label == "sweep-equiv-phi":
            vals = [foreclosure.equivalent_foreclosure_cost(p, m, t, alpha, xv).phi for t in (ABM, APRM)]
        else:
            vals = [foreclosure.endogenous_spread(p, m, xv, t, alpha, h=1.0) for t in (ABM, APRM)]
        rows.append([_r12(xv)] + [_r12(v) for v in vals])
    return rows


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def cli_parse(label: str, stdout: str):
    """The numbers a command printed, in the shape ``cli_expected`` builds."""
    if label == "solve-frm-csv" or label.startswith("sweep"):
        lines = stdout.splitlines()
        rows = [line.split("," if label == "solve-frm-csv" else "\t") for line in lines[1:]]
        return [[_r12(v) if v not in ("", "default", "continue", "prepay") else v for v in row]
                for row in rows]
    payload = json.loads(stdout)
    payload.pop("inputs", None)
    return payload


class Cli(Workload):
    name = "cli"
    round_ops = len(CLI_MIX)
    trace_ops = len(CLI_MIX)
    in_children = True

    def __init__(self, seed: int, root: str = ".", env: dict | None = None) -> None:
        super().__init__(seed)
        self.markets = scenarios(seed)
        self.root = root
        self.env = env
        self.rusage_max_kb = 0

    def inputs(self, i: int) -> CliOp:
        rng = np.random.default_rng([self.seed, 1 << 43, i])
        # Op i quotes market i: a run's ops then cover the same strata
        # whatever the seed.
        params, m, alpha = self.markets[i % N_SCENARIOS]
        label = CLI_MIX[i % len(CLI_MIX)]
        lo, hi = SCENARIO_BOX["phi"]
        h, phi, t = 0.6 + 0.8 * float(rng.random()), lo + (hi - lo) * float(rng.random()), 30.0 * float(rng.random())
        return CliOp(label, tuple(cli_argv(label, params, m, alpha, h, phi, t)), params, m, alpha, h, phi, t)

    def op(self, x: CliOp):
        # What the ``mortval`` console script runs.
        return run_child(["-c", "import sys; from mortval.cli import main; sys.exit(main())", *x.argv],
                         self.root, self.env, self)

    def in_process(self, x: CliOp):
        """The same command through ``mortval.cli.main`` in this process."""
        import mortval.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mortval.cli.main(list(x.argv))
        return code, out.getvalue(), err.getvalue()

    def fingerprint(self, out) -> bytes:
        return out[1].encode()

    def check(self, x: CliOp, out):
        code, stdout, stderr = out
        try:
            got = cli_parse(x.label, stdout)
        except (ValueError, IndexError) as exc:
            return ("check", f"{x.label}: output does not parse: {exc}")
        want = cli_expected(x)
        if got != want:
            return ("check", f"{x.label}: printed numbers differ from the library's")
        return None

    def warm_up(self) -> None:
        self.op(self.inputs(4))

    def info(self, summaries: list) -> dict:
        return {"scenario_box": SCENARIO_BOX, "scenarios": N_SCENARIOS, "commands": list(CLI_MIX)}


class ChildFailed(Exception):
    """A child process exited with a non-zero code."""

    def __init__(self, code: int, stderr: str) -> None:
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code = f"exit_{code}"


def run_child(args: list[str], root: str, env: dict | None, owner=None):
    """Run ``python args`` to completion; return (code, stdout, stderr).

    The child is reaped with ``wait4`` so its own peak RSS is known; the
    largest one is kept on ``owner.rusage_max_kb``.  ``mortval`` writes
    little to stderr, so reading the two pipes in turn cannot block.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    with proc.stdout, proc.stderr:
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if owner is not None:
        owner.rusage_max_kb = max(owner.rusage_max_kb, usage.ru_maxrss)
    if code != 0:
        raise ChildFailed(code, stderr)
    return code, stdout, stderr


WORKLOADS = {w.name: w for w in (Quotes, Spreads, Grid, MonteCarlo, Cli)}
