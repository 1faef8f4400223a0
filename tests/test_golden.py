"""Closed-form outputs pinned bit for bit.

``golden_closed_form.json`` holds a seeded corpus of markets and, in float
hex, what the closed forms give on it: every boundary and the value at
``PRICES`` for each market and contract kind, with and without the
prepayment right, and ``max_rate`` and ``endogenous_spread`` on three
markets.  A change that is meant to leave the numbers alone (a speed-up, a
refactor) must leave every entry as it is.  Only for an intended change in
the numbers, regenerate the file and say why in the change:

    PYTHONPATH=src python tests/test_golden.py

The file pins mortval's arithmetic, not numpy's CPU dispatch.  numpy's
AVX-512 ``exp``, ``log`` and ``power`` kernels round differently from the
other paths on a few percent of inputs, and not every x86-64 CPU has them.
So the values are computed, both when the file is written and when it is
checked, in a child process that runs with ``DISPATCH_OFF`` and first
confirms that no AVX-512 code is dispatched; if it cannot confirm that, the
check fails.  The file records numpy's version and the SIMD targets that
wrote it, so that a mismatch names its cause.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mortval import (
    ContractKind,
    ModelParams,
    ValuationError,
    endogenous_spread,
    max_rate,
    solve_contract,
    solve_no_prepay,
)
from mortval.contracts import contract_spec

GOLDEN = Path(__file__).with_name("golden_closed_form.json")
SRC = Path(__file__).resolve().parents[1] / "src"
# numpy 2.x names of its AVX-512 dispatch targets.
DISPATCH_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
PRICES = (0.5, 0.8, 1.0, 1.25, 2.0)
SEED = 2020
N_MARKETS = 40
# Corpus box: (r, delta, sigma, b0, m - r, alpha) low and high ends.  It
# spans every FRM, ABM and APRM region layout.
BOX_LO = (0.005, 0.02, 0.05, 0.6, 0.002, 0.0)
BOX_HI = (0.05, 0.09, 0.30, 0.98, 0.05, 0.6)
# Markets of the derived quantities: the paper's two benefit rates at its
# calibration, and one off it.  Spreads are against an FRM at ``M_F``.
DERIVED_MARKETS = (
    (0.017825, 0.045, 0.1125, 0.9),
    (0.017825, 0.07, 0.1125, 0.9),
    (0.025, 0.055, 0.15, 0.85),
)
M_F, PHI, ALPHA = 0.0326, 0.30, 0.05
MARKET_KEYS = ("r", "delta", "sigma", "b0", "m", "alpha")


def simd() -> dict:
    """numpy's version and the SIMD targets it runs, once no AVX-512 target is among them."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    dispatched = [name for name in umath.__cpu_dispatch__ if features[name]]
    avx512 = [name for name in umath.__cpu_baseline__ + dispatched
              if name.startswith("AVX512") or name == "X86_V4"]
    if avx512:
        raise RuntimeError(f"numpy {np.__version__} still runs AVX-512 code: {avx512}")
    return {"numpy": np.__version__, "baseline": umath.__cpu_baseline__, "dispatched": dispatched}


def _hex(x) -> str:
    return float(x).hex()


def _outcome(fn):
    """``fn()``, or the code of the ``ValuationError`` it raised."""
    try:
        return fn()
    except ValuationError as exc:
        return {"error": exc.code}


def _solved(solve):
    def record():
        solved = solve()
        return {
            "boundaries": {k: _hex(v) for k, v in sorted(solved.boundaries.items())},
            "value": [_hex(solved.value(h)) for h in PRICES],
        }
    return _outcome(record)


def closed_forms(market: dict) -> dict:
    """Boundaries and values of every kind on one market, full and no-prepay."""
    params = ModelParams(market["r"], market["delta"], market["sigma"], market["b0"])
    out = {}
    for kind in ContractKind:
        spec = contract_spec(kind, market["m"], market["alpha"])
        out[kind.value] = {
            "full": _solved(lambda: solve_contract(params, spec)),
            "no_prepay": _solved(lambda: solve_no_prepay(params, spec)),
        }
    return out


def derived() -> list:
    rows = []
    for r, delta, sigma, b0 in DERIVED_MARKETS:
        params = ModelParams(r, delta, sigma, b0)
        row = {
            "max_rate": {
                kind.value: _outcome(lambda: _hex(max_rate(params, kind, ALPHA)))
                for kind in ContractKind
            },
            "endogenous_spread": {
                kind.value: _outcome(lambda: _hex(endogenous_spread(params, M_F, PHI, kind, ALPHA)))
                for kind in (ContractKind.ABM, ContractKind.APRM)
            },
        }
        rows.append(row)
    return rows


def _draw_markets() -> list:
    rng = np.random.default_rng(SEED)
    markets = []
    for r, delta, sigma, b0, spread, alpha in rng.uniform(BOX_LO, BOX_HI, (N_MARKETS, 6)):
        markets.append(dict(zip(MARKET_KEYS, (r, delta, sigma, b0, r + spread, alpha))))
    return markets


def _load() -> dict:
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for entry in golden["markets"]:
        entry["market"] = {k: float.fromhex(v) for k, v in entry["market"].items()}
    return golden


GOLDEN_DATA = _load() if GOLDEN.exists() else {"markets": [], "derived": None, "simd": None}


def _in_child(mode: str) -> dict:
    """The JSON that this file prints in ``mode`` in a child process with ``DISPATCH_OFF``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **DISPATCH_OFF, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__, mode], env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


@functools.cache
def computed() -> dict:
    """The closed forms on the file's markets, as the child process computes them."""
    return _in_child("--check")


def _written_by() -> str:
    return f"file written by {GOLDEN_DATA['simd']}, checked by {computed()['simd']}"


@pytest.mark.parametrize("i", range(len(GOLDEN_DATA["markets"])))
def test_closed_forms_bit_identical(i):
    assert computed()["markets"][i] == GOLDEN_DATA["markets"][i]["closed_forms"], _written_by()


def test_derived_quantities_bit_identical():
    assert computed()["derived"] == GOLDEN_DATA["derived"], _written_by()


def test_corpus_covers_every_region_layout():
    outcomes = [
        rec for entry in GOLDEN_DATA["markets"]
        for kind in entry["closed_forms"].values() for rec in kind.values()
    ]
    assert len(GOLDEN_DATA["markets"]) == N_MARKETS
    solved = [rec for rec in outcomes if "error" not in rec]
    assert len(solved) > 0.9 * len(outcomes)
    assert {len(rec["boundaries"]) for rec in solved} == {0, 1, 2, 3}


def _generate() -> dict:
    return {
        "prices": list(PRICES),
        "simd": simd(),
        "markets": [
            {"market": {k: _hex(v) for k, v in mk.items()}, "closed_forms": closed_forms(mk)}
            for mk in _draw_markets()
        ],
        "derived": derived(),
    }


def _check() -> dict:
    return {
        "simd": simd(),
        "markets": [closed_forms(entry["market"]) for entry in GOLDEN_DATA["markets"]],
        "derived": derived(),
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        json.dump(_check(), sys.stdout)
    elif sys.argv[1:] == ["--generate"]:
        json.dump(_generate(), sys.stdout)
    else:
        payload = _in_child("--generate")
        with open(GOLDEN, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN}")
