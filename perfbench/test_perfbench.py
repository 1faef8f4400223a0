"""Tests of the benchmark itself: span arithmetic, generators, checkers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mortval import ContractKind, ModelParams, foreclosure  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402


def span(name, start, end, parent=None, tag=None):
    return [name, start, end, parent, 0, tag]


# ------------------------------------------------------------ self time

def test_self_time_subtracts_nested_children():
    spans = [span("op", 0, 100), span("a", 10, 40, 0), span("b", 50, 60, 0), span("c", 15, 25, 1)]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    # Two pool-thread children overlap on [30, 40] and one runs past the
    # parent's end; only the union inside the parent is covered.
    spans = [span("op", 0, 100), span("x", 20, 40, 0), span("y", 30, 60, 0), span("z", 90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 40 - 10


def test_descendant_counts_walk_the_whole_subtree():
    spans = [span("foreclosure.endogenous_spread", 0, 100), span("foreclosure.max_rate", 1, 50, 0),
             span("frm.solve_frm", 2, 3, 1), span("abm.solve_abm", 60, 70, 0), span("other", 71, 72, 0)]
    counts = tracing.descendant_counts(spans, ("foreclosure.endogenous_spread", "foreclosure.max_rate"),
                                       tracing.SOLVER_SPANS)
    assert counts == {0: 2, 1: 1}


def test_layer_metrics_split_self_time_by_regime():
    spans = [span("op", 0, 10_000),
             span("abm.solve_abm", 0, 3_000, 0, "one_sided"),
             span("rootfind.find_root_bracketed", 1_000, 2_000, 1, 7),
             span("abm.callback", 1_200, 1_700, 2),
             span("abm.solve_abm", 4_000, 8_000, 0, "two_sided")]
    m = tracing.layer_metrics(spans, n_ops=1, grid_cap=100, grid_nodes=101)
    assert m["abm.solve_abm.one_sided.us"] == pytest.approx(2.0)
    assert m["abm.solve_abm.two_sided.us"] == pytest.approx(4.0)
    assert m["rootfind.find_root_bracketed.evals_per_call"] == 7
    assert m["rootfind.self_share"] == pytest.approx(500 / 10_000)


def test_traced_max_rate_counts_the_bisection_solves():
    params = ModelParams(r=0.017825, delta=0.045, sigma=0.1125, b0=0.9)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.op_span(0):
            traced_rate = foreclosure.max_rate(params, ContractKind.FRM)
    assert traced_rate == foreclosure.max_rate(params, ContractKind.FRM)
    m = tracing.layer_metrics(tracer.spans, 1, 1, 101)
    assert m["foreclosure.max_rate.solves_per_call"] == 103


def test_wrappers_are_removed_after_the_traced_pass():
    import mortval.abm

    before = mortval.abm.solve_abm
    with tracing.installed(tracing.Tracer()):
        assert mortval.abm.solve_abm is not before
    assert mortval.abm.solve_abm is before


def test_speed_factor_uses_the_chunks_around_an_op():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_S
    probe.at, probe.samples = [0.0, 1.0, 2.0], [2 * nominal, nominal, 4 * nominal]
    assert probe.factor(0.95, 1.05, pad=0.1) == 1.0
    assert probe.factor(0.0, 2.0, pad=0.0) == pytest.approx(3 / 7)
    assert probe.factor(5.0, 6.0, pad=0.1) == 1.0


def test_speed_probe_samples_while_active_and_stops():
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.15
        while time.perf_counter() < end:
            pass
    taken = len(probe.samples)
    time.sleep(0.05)
    assert taken >= 3 and len(probe.samples) == taken
    assert probe.paused == pytest.approx(sum(probe.samples))


# ------------------------------------------------------------ generators

@pytest.mark.parametrize("name", sorted(wls.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    a, b, c = (run.make_workload(name, seed) for seed in (5, 5, 6))
    first = [a.inputs(i) for i in range(12)]
    assert first == [b.inputs(i) for i in range(12)]
    if name == "montecarlo":
        # The cases are fixed; the seed is the simulation's.
        assert [x.seed for x in first] != [x.seed for x in (c.inputs(i) for i in range(12))]
    else:
        assert first != [c.inputs(i) for i in range(12)]


def test_contract_draws_cover_far_blocks_reproducibly():
    draws = wls.ContractDraws(3)
    far = draws(5 * wls._BLOCK + 7)
    assert wls.ContractDraws(3)(5 * wls._BLOCK + 7) == far
    box = wls.QUOTE_BOX
    assert box["sigma"][0] <= far.params.sigma <= box["sigma"][1]
    assert far.spec.kind is wls.KINDS[(5 * wls._BLOCK + 7) % 3]


def test_scenarios_hold_the_frm_at_origination():
    for p, m_f, _alpha in wls.scenarios(30):
        assert wls.mortval.solve_frm(p, m_f).boundaries["h2"] >= wls.SCENARIO_MIN_H2


# ------------------------------------------------------------ checkers

def test_quotes_check_rejects_a_value_above_the_payoff():
    wl = wls.Quotes(1)
    x = wl.inputs(0)
    out = wl.op(x)
    assert wl.check(x, out) is None
    solved, value, curve, prepay, default = out
    bumped = curve.copy()
    bumped[-1] += 1e-3 + abs(bumped[-1])
    assert wl.check(x, (solved, value, bumped, prepay, default))[0] == "check"
    assert wl.check(x, (solved, value + 1e-6, curve, prepay, default))[0] == "check"


@pytest.mark.parametrize("i", range(6))
def test_spreads_check_rejects_a_perturbed_cell(i):
    wl = wls.Spreads(2)
    x = wl.inputs(i)
    out = wl.op(x)
    assert wl.check(x, out) is None
    assert wl.check(x, out * (1 + 1e-4))[0] == "check"


def test_grid_check_applies_both_gates():
    wl = wls.Grid(1)
    values = np.zeros(3)
    assert wl.check(None, (5e-4, 5e-9, values)) is None
    assert wl.check(None, (2e-3, 5e-9, values))[0] == "gate"
    assert wl.check(None, (5e-4, 2e-8, values))[0] == "gate"


def test_montecarlo_check_rejects_an_estimate_outside_its_error_bar():
    wl = wls.MonteCarlo(1)
    x = wl.inputs(0)
    fake = wls.oracle.McResult(estimate=x.closed + 1e-4, std_error=2e-4, tail_bound=0.0,
                               n_paths=20_000, horizon=200.0, dt=1 / 52, note="")
    assert wl.check(x, fake) is None
    assert wl.check(x, dataclasses.replace(fake, estimate=x.closed + 1e-3))[0] == "gate"


@pytest.mark.parametrize("label", wls.CLI_COMMANDS)
def test_cli_check_rejects_a_changed_digit(label):
    wl = run.make_workload("cli", 4)
    k = wls.CLI_MIX.index(label)
    x = wl.inputs(k)
    code, stdout, stderr = wl.in_process(x)
    assert code == 0 and wl.check(x, (code, stdout, stderr)) is None
    # The last number printed is always a result, never an echoed input.
    j = max(j for j, ch in enumerate(stdout) if ch in "123456789")
    changed = stdout[:j] + str(int(stdout[j]) % 9 + 1) + stdout[j + 1:]
    assert wl.check(x, (code, changed, stderr))[0] == "check"


# ------------------------------------------------------------ the command

def test_benchmark_json_names_every_metric_the_run_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = wls.Quotes(1)
    wl.trace_ops = 30
    measured = run.traced_run(wl)["metrics"]
    assert {m["name"] for m in spec["per_layer"]} == set(measured)
    assert {w["name"] for w in spec["workloads"]} == set(wls.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quotes", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
