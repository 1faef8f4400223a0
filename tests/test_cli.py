import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mortval import (
    ContractKind,
    ContractSpec,
    GridSpec,
    ModelParams,
    endogenous_spread,
    foreclosure,
    perpetual_cashflows,
    psor_value,
    solve_contract,
)
from mortval.cli import _COMMANDS, _FLAGS, _QUANTITIES, _abscissae, main

BASE = ["--r", "0.017825", "--delta", "0.045", "--sigma", "0.1125", "--b0", "0.9", "--m", "0.0326"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A complete command line for each command: every flag it requires, and no more.
FULL = {
    "solve": ["--contract", "frm", *BASE],
    "sweep": [*BASE, "--quantity", "value", "--x", "h", "--x-min", "0.5", "--x-max", "1.5"],
    "alpha-star": BASE,
    "oracle-check": ["--contract", "frm", *BASE],
    "schedule": ["--kind", "frm", "--m", "0.0326", "--b0", "0.9", "--T", "30", "--t", "0"],
}


class TestTables:
    @pytest.mark.parametrize("command,dest", [(c, d) for c, entry in _COMMANDS.items() for d in entry[3]])
    def test_dropping_a_required_flag_names_it(self, capsys, command, dest):
        argv = list(FULL[command])
        flag = "--" + dest.replace("_", "-")
        at = argv.index(flag)
        del argv[at:at + 2]
        code, out, err = run(capsys, [command, *argv])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValuationError", "detail": f"missing required flags: {flag}"}

    def test_every_flag_is_used(self):
        used = {dest for entry in _COMMANDS.values() for dest in entry[2]}
        assert set(_FLAGS) == used | {"config"}


class TestSolve:
    def test_frm_boundaries_in_json(self, capsys):
        code, out, _ = run(capsys, ["solve", "--contract", "frm", *BASE])
        assert code == 0
        payload = json.loads(out)
        assert payload["boundaries"]["h1"] == pytest.approx(0.54, abs=0.01)
        assert payload["boundaries"]["h2"] == pytest.approx(1.43, abs=0.01)
        assert payload["exponents"]["p1"] > 1.0
        assert {r["action"] for r in payload["regions"]} == {"default", "continue", "prepay"}
        assert "value_at_h" in payload

    def test_sharing_above_threshold_empty_boundaries(self, capsys):
        code, out, _ = run(capsys, ["solve", "--contract", "aprm", "--alpha", "0.08", *BASE])
        assert code == 0
        assert json.loads(out)["boundaries"] == {}

    def test_negative_spread_exits_2_with_machine_error(self, capsys):
        code, out, err = run(capsys, ["solve", "--contract", "frm", *BASE[:-1], "0.01"])
        assert code == 2
        assert json.loads(err)["error"] == "NegativeSpread"

    def test_boundary_past_the_float_range_exits_0_without_boundaries(self, capsys):
        # The ABM's h2 overflows here: it is at infinity, and the contract is held forever.
        code, out, err = run(capsys, [
            "solve", "--contract", "abm", "--r", "0.00547037976873022", "--delta", "0.02399551246756193",
            "--sigma", "0.5766188358088469", "--b0", "0.6881895655214953", "--m", "0.0054703797742006",
        ])
        assert code == 0 and err == ""
        assert json.loads(out)["boundaries"] == {}

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(capsys, ["solve", "--contract", "frm", "--r", "0.02"])
        assert code == 2
        assert "error" in json.loads(err)

    def test_repeat_runs_bit_identical(self, capsys):
        _, first, _ = run(capsys, ["solve", "--contract", "abm", *BASE])
        _, second, _ = run(capsys, ["solve", "--contract", "abm", *BASE])
        assert first == second

    def test_emitted_inputs_round_trip_via_config(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["solve", "--contract", "aprm", "--alpha", "0.05", *BASE])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(out)["inputs"]))
        _, again, _ = run(capsys, ["solve", "--config", str(config)])
        assert again == out

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "contract": "frm", "r": 0.017825, "delta": 0.045,
            "sigma": 0.1125, "b0": 0.9, "m": 0.0326,
        }))
        _, out, _ = run(capsys, ["solve", "--config", str(config), "--m", "0.04"])
        assert json.loads(out)["inputs"]["m"] == 0.04

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["solve", "--contract", "frm", "--format", "csv", *BASE])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lo,hi,action,c_p1,c_p2,k0,k1"
        assert len(lines) == 4  # header + three regions
        assert lines[-1].split(",")[1] == ""  # unbounded top region

    def test_foreclosure_value(self, capsys):
        code, out, _ = run(capsys, ["solve", "--contract", "frm", "--phi", "0.35", "--h", "1.0", *BASE])
        payload = json.loads(out)
        assert code == 0
        assert payload["foreclosure_value_at_h"] < payload["value_at_h"]

    @pytest.mark.parametrize("h", ["-1", "0", "inf", "nan"])
    def test_price_must_be_positive_and_finite(self, capsys, h):
        code, out, err = run(capsys, ["solve", "--contract", "abm", "--h", h, *BASE])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidParams"

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, ["solve", "--contract", "frm", *BASE])
        h1 = json.loads(out)["boundaries"]["h1"]
        assert len(repr(h1).replace("0.", "")) <= 12


class TestConfig:
    SWEEP = {"r": 0.017825, "delta": 0.045, "sigma": 0.1125, "b0": 0.9, "m": 0.0326,
             "quantity": "value", "x": "h", "x-min": 0.5, "x-max": 1.5, "steps": 2}

    @pytest.mark.parametrize("config", [
        [1, 2],
        {**SWEEP, "r": "0.017825"},
        {**SWEEP, "steps": 2.5},
        {**SWEEP, "steps": True},
        {**SWEEP, "quantity": "bogus"},
    ])
    def test_bad_values_exit_2(self, capsys, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, ["sweep", "--config", str(path)])
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("key,value,detail", [
        ("x-min", "a", "config value 'a' has the wrong type for --x-min"),
        ("quantity", "bogus", "config value 'bogus' for --quantity is not one of "),
    ])
    def test_errors_spell_the_flag(self, capsys, tmp_path, key, value, detail):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.SWEEP, key: value}))
        code, _, err = run(capsys, ["sweep", "--config", str(path)])
        assert code == 2
        assert json.loads(err)["detail"].startswith(detail)

    def test_integers_for_float_flags_and_unknown_keys(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.SWEEP, "x-max": 2, "note": [1, 2]}))
        code, out, _ = run(capsys, ["sweep", "--config", str(path)])
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()[1:]] == ["0.5", "1.25", "2"]

    def test_flag_overrides_a_bad_config_value(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.SWEEP, "quantity": "bogus"}))
        code, _, _ = run(capsys, ["sweep", "--config", str(path), "--quantity", "value"])
        assert code == 0


class TestSweep:
    def test_spread_by_friction(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--quantity", "spread", "--x", "phi",
            "--x-min", "0.2", "--x-max", "0.4", "--steps", "4",
            "--alpha", "0.05", *BASE,
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x\tabm\taprm"
        assert len(lines) == 6
        spreads = [float(line.split("\t")[1]) for line in lines[1:]]
        assert all(s2 < s1 for s1, s2 in zip(spreads, spreads[1:]))  # decreasing in phi

    SPREAD = ["sweep", "--quantity", "spread", "--x", "phi", "--x-min", "0.05", "--x-max", "0.6",
              "--steps", "10", "--alpha", "0.05", *BASE]

    @pytest.mark.parametrize("contracts,targets", [
        (None, [ContractKind.ABM, ContractKind.APRM]),
        ("abm", [ContractKind.ABM]),
    ])
    def test_spread_solves_max_rate_once_per_target(self, capsys, monkeypatch, contracts, targets):
        kinds = []
        original = foreclosure.max_rate

        def counted(params, kind, alpha=0.0):
            kinds.append(kind)
            return original(params, kind, alpha)

        monkeypatch.setattr(foreclosure, "max_rate", counted)
        code, out, _ = run(capsys, self.SPREAD + (["--contract", contracts] if contracts else []))
        assert code == 0 and len(out.splitlines()) == 12
        assert kinds == targets

    def test_spread_prints_endogenous_spread(self, capsys):
        code, out, _ = run(capsys, self.SPREAD)
        assert code == 0
        params = ModelParams(r=0.017825, delta=0.045, sigma=0.1125, b0=0.9)
        want = [
            [f"{phi:.12g}"] + [f"{endogenous_spread(params, 0.0326, phi, t, 0.05):.12g}"
                               for t in (ContractKind.ABM, ContractKind.APRM)]
            for phi in np.linspace(0.05, 0.6, 11)
        ]
        assert [line.split("\t") for line in out.splitlines()[1:]] == want

    def test_spread_of_a_flat_target_exits_2(self, capsys):
        # At h = 1.5 both the ABM and the FRM (h2 = 1.43) prepay.
        code, out, err = run(capsys, [*self.SPREAD, "--h", "1.5"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "Degenerate"

    def test_single_step_gives_endpoints(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--quantity", "value", "--x", "h",
            "--x-min", "0.5", "--x-max", "1.5", "--steps", "1",
            "--contract", "frm", *BASE,
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.5", "1.5"]

    def test_relative_prepay_ordering(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--quantity", "relpp", "--x", "h",
            "--x-min", "0.8", "--x-max", "1.0", "--steps", "1",
            "--alpha", "0.05", *BASE,
        ])
        assert code == 0
        row = out.strip().splitlines()[-1].split("\t")
        assert row[0] == "1"
        frm, abm, aprm = (float(v) for v in row[1:])
        assert abm < frm and aprm < frm

    def test_boundaries_sweep(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--quantity", "boundaries", "--x", "m",
            "--x-min", "0.03", "--x-max", "0.05", "--steps", "2",
            "--contract", "frm", *BASE,
        ])
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert lines[0] == "x\th1\th2\th3"
        assert all(len(line.split("\t")) == 4 for line in lines[1:])
        assert all(line.split("\t")[3] == "" for line in lines[1:])  # two-boundary contract

    def test_zero_price_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--quantity", "relpp", "--x", "h",
            "--x-min", "0", "--x-max", "1", "--steps", "2", *BASE,
        ])
        assert code == 2
        assert json.loads(err)["error"] == "InvalidParams"

    @pytest.mark.filterwarnings("error")
    def test_zero_price_equiv_phi_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "sweep", "--quantity", "equiv-phi", "--x", "h",
            "--x-min", "0", "--x-max", "1", "--steps", "2", *BASE,
        ])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidParams"

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--quantity", "value", "--x", "h",
            "--x-min", "2.0", "--x-max", "1.0", "--steps", "3", *BASE,
        ])
        assert code == 2
        assert "error" in json.loads(err)


class TestAlphaStar:
    def test_low_benefit(self, capsys):
        code, out, _ = run(capsys, ["alpha-star", *BASE])
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_star"] == pytest.approx(0.0766, abs=0.001)
        assert payload["regime"] == "low_rate"

    def test_takes_no_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["alpha-star", *BASE, "--alpha", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 0.1" in capsys.readouterr().err

    def test_high_rate_reports_null(self, capsys):
        code, out, _ = run(capsys, ["alpha-star", *BASE[:-1], "0.06"])
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "high_rate"
        assert payload["alpha_star"] is None


class TestSchedule:
    def test_origination_balance(self, capsys):
        code, out, _ = run(capsys, ["schedule", "--kind", "frm", "--m", "0.0326", "--b0", "0.9", "--T", "30", "--t", "0"])
        assert code == 0
        assert json.loads(out)["balance"] == pytest.approx(0.9)

    def test_aprm_state(self, capsys):
        code, out, _ = run(capsys, [
            "schedule", "--kind", "aprm", "--m", "0.0326", "--b0", "0.9",
            "--T", "30", "--t", "10", "--h", "1.4", "--alpha", "0.05",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["prepay_amount"] - payload["balance"] == pytest.approx(0.02)

    def test_price_defaults_to_one(self, capsys):
        argv = ["schedule", "--kind", "abm", "--m", "0.0326", "--b0", "0.9", "--T", "30", "--t", "10"]
        assert run(capsys, argv) == run(capsys, [*argv, "--h", "1"])

    @pytest.mark.parametrize("kind", ["abm", "aprm"])
    def test_infinite_price_exits_2(self, capsys, kind):
        code, out, err = run(capsys, ["schedule", "--kind", kind, "--m", "0.0326", "--b0", "0.9",
                                      "--T", "30", "--t", "10", "--h", "inf", "--alpha", "0.1"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidParams"

    def test_bad_time_exits_2(self, capsys):
        code, _, err = run(capsys, ["schedule", "--kind", "frm", "--m", "0.0326", "--b0", "0.9", "--T", "30", "--t", "31"])
        assert code == 2
        assert json.loads(err)["error"] == "InvalidTime"


class TestOracleCheck:
    def test_frm_passes_all_tolerances(self, capsys):
        code, out, _ = run(capsys, [
            "oracle-check", "--contract", "frm", *BASE,
            "--n-points", "501", "--n-paths", "10000", "--seed", "3",
        ])
        assert code == 0, out
        assert out.count("ok") >= 3
        assert "mc std error" in out and "truncation" not in out
        # The Monte Carlo line names its policy: the FRM defaults at h1.
        assert "no-prepayment value at h=1 (stopped at h1=0.539227): closed-form" in out

    def test_abm_mc_tolerance_has_no_truncation_term(self, capsys):
        # No Monte Carlo estimate truncates anything, so the tolerance is
        # max(3 SE, 5e-4) alone.
        code, out, _ = run(capsys, ["oracle-check", "--contract", "abm", *BASE, "--n-points", "501"])
        assert code == 0, out
        assert "truncation" not in out
        assert "(tol 5.000e-04) ok" in out
        # The ABM has no default boundary, so its Monte Carlo never stops.
        assert "no-prepayment value at h=1 (held forever): closed-form" in out

    def test_grid_window_without_stopping_above_par(self):
        # A payment-adjusted draw that only stops below par and has p1 = 1.78,
        # on the benchmark's grid with its top node at 12: the top row held at
        # min(f, sup-coupon / r) put the grid 5.5e-3 off the closed form on
        # [0.05, 3].  The discrete far field needs no padding.
        params = ModelParams(r=0.02839, delta=0.02635, sigma=0.18797, b0=0.869)
        spec = ContractSpec(kind=ContractKind.APRM, m=0.04736, alpha=0.357)
        solved = solve_contract(params, spec)
        assert "h2" not in solved.boundaries
        grid = psor_value(params, perpetual_cashflows(spec, params), GridSpec(2e-3, 12.0, 2001))
        on = (grid.grid >= 0.05) & (grid.grid <= 3.0)
        assert np.max(np.abs(grid.values[on] - solved.value(grid.grid[on]))) <= 1e-4

    def test_above_the_band_checks_the_policy_from_h3(self, capsys):
        # Above h3 the contract stops only on a fall to h3, so the policy
        # oracle must value (h3, none), not (h1, h2), which pays off at once.
        code, out, _ = run(capsys, ["oracle-check", "--contract", "aprm", *BASE, "--alpha", "0.05", "--h", "50",
                                    "--n-points", "501", "--n-paths", "10000"])
        assert code == 0, out
        assert "FAIL" not in out
        # The grid tops out at twice h3, far below h = 50: no node's value is
        # printed, and the grid's band edge is checked against h3.
        assert "grid none (h outside its nodes 0.0020 to " in out and "node h=" not in out
        assert "grid band-edge log-gap to h3" in out


class TestWithoutNumpy:
    # A range for each sweep axis, at BASE.
    SPANS = {"h": ("0.8", "1.2"), "m": ("0.03", "0.05"), "alpha": ("0", "0.05"), "phi": ("0.2", "0.4")}
    SCHEDULE = ["--m", "0.0326", "--b0", "0.9", "--T", "30", "--t", "10", "--h", "1.4", "--alpha", "0.05"]
    CHILD = """
import contextlib, io, json, sys
from mortval.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
json.dump({"codes": codes, "numpy": "numpy" in sys.modules}, sys.stdout)
"""

    def test_commands_without_an_oracle_never_import_numpy(self):
        argvs = [
            ["solve", "--contract", "frm", *BASE],
            ["solve", "--contract", "abm", "--format", "csv", *BASE],
            ["solve", "--contract", "frm", "--phi", "0.3", *BASE],
        ]
        for quantity, (axes, _, _) in _QUANTITIES.items():
            for x in sorted(axes):
                lo, hi = self.SPANS[x]
                argvs.append(["sweep", "--quantity", quantity, "--x", x, "--x-min", lo, "--x-max", hi,
                              "--steps", "2", "--alpha", "0.05", *BASE])
        argvs += [["alpha-star", *BASE]] + [["schedule", "--kind", k, *self.SCHEDULE] for k in ("frm", "abm", "aprm")]
        argvs.append(["solve", "--contract", "frm", *BASE[:-1], "0.01"])  # NegativeSpread
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", self.CHILD, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0] * (len(argvs) - 1) + [2], "numpy": False}


class TestAbscissae:
    @staticmethod
    def assert_linspace_bits(x_min, x_max, steps):
        want = np.linspace(x_min, x_max, steps + 1).tolist()
        assert [x.hex() for x in _abscissae(x_min, x_max, steps)] == [x.hex() for x in want]

    @pytest.mark.parametrize("x_min,x_max,steps", [
        (0.05, 0.6, 50),                          # the README's spread sweep
        (0.5, 1.5, 1),
        (1.0, math.nextafter(1.0, 2.0), 7),       # one ulp wide
        (0.0, 5e-324, 3),                         # the step underflows to 0
        (-1e-321, 1e-321, 4000),                  # and again, across zero
    ])
    def test_numpy_linspace_bits(self, x_min, x_max, steps):
        self.assert_linspace_bits(x_min, x_max, steps)

    def test_numpy_linspace_bits_at_random(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            x_min = float(rng.uniform(-2.0, 2.0) * 10.0 ** rng.integers(-8, 4))
            x_max = x_min + max(abs(x_min), 1e-3) * 10.0 ** rng.uniform(-15.0, 2.0)
            self.assert_linspace_bits(x_min, max(x_max, math.nextafter(x_min, math.inf)), int(rng.integers(1, 400)))
