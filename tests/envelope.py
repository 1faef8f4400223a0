"""Envelope tables of the closed forms, from fixed seeds.

pytest does not collect this file; one Tier-1 test runs each table on a few
markets.  From the repository root:

    PYTHONPATH=src python tests/envelope.py alpha-star
    PYTHONPATH=src python tests/envelope.py wide-box

alpha-star: on 20 000 markets drawn like the wide box from seed 7
(r .002-.1, delta .002-.12, sigma .03-.8, b0 .05-1 and
m = r (1 + 10^U(-10, 1.5))), ``aprm_regime``'s alpha* against
``solve_aprm``'s band.  Where alpha* >= 1e-300 and alpha* (1 + 1e-9) < 1,
a miss is a market whose band is gone at alpha* (1 - 1e-9) or still there
at alpha* (1 + 1e-9), a raise included.

wide-box: on ``wide_box(20000, 4242)``, ``solve_contract`` for the FRM, the
ABM and the APRM at alpha in {0, 1e-12, .05, .3}: per contract the returns,
the returns without a prepayment boundary h2, and the raises grouped by
error class and message, with numbers shown as # and call arguments cut.
"""

from __future__ import annotations

import argparse
import collections
import re
import sys

import numpy as np

from mortval import ContractKind, ModelParams, UnsupportedRegime, ValuationError, aprm_regime, solve_aprm, solve_contract
from mortval.contracts import contract_spec

WIDE_BOX = ((0.002, 0.002, 0.03, 0.05, -10.0), (0.1, 0.12, 0.8, 1.0, 1.5))
WIDE_BOX_CONTRACTS = {
    "frm": (ContractKind.FRM, 0.0),
    "abm": (ContractKind.ABM, 0.0),
    **{f"aprm alpha={alpha:g}": (ContractKind.APRM, alpha) for alpha in (0.0, 1e-12, 0.05, 0.3)},
}
_NUMBER = re.compile(r"\b\d+\.?\d*(?:e[-+]?\d+)?")


def wide_box(n: int, seed: int):
    """``n`` markets (params, m) from ``WIDE_BOX``, m = r (1 + 10^u)."""
    rng = np.random.default_rng(seed)
    for draw in rng.uniform(*WIDE_BOX, (n, 5)):
        r, delta, sigma, b0, u = map(float, draw)
        yield ModelParams(r, delta, sigma, b0), r * (1.0 + 10.0**u)


def _band_switches(params: ModelParams, m: float, alpha_star: float) -> bool:
    try:
        below = solve_aprm(params, m, alpha_star * (1.0 - 1e-9)).boundaries
        above = solve_aprm(params, m, alpha_star * (1.0 + 1e-9)).boundaries
    except UnsupportedRegime:
        return False
    return "h2" in below and "h2" not in above


def alpha_star_table(n: int = 20_000) -> dict[str, int]:
    """Counts of the alpha-star table on the first ``n`` wide-box markets of seed 7."""
    counts = collections.Counter(markets=n)
    for params, m in wide_box(n, 7):
        try:
            alpha_star = aprm_regime(params, m).alpha_star
        except UnsupportedRegime:
            counts["UnsupportedRegime"] += 1
            continue
        if alpha_star is None:
            continue
        counts["with alpha*"] += 1
        counts["alpha* < 1e-300"] += alpha_star < 1e-300
        counts["alpha* = 0.0"] += alpha_star == 0.0
        if alpha_star >= 1e-300 and alpha_star * (1.0 + 1e-9) < 1.0:
            counts["band checked at alpha* (1 -+ 1e-9)"] += 1
            counts["band-switch misses"] += not _band_switches(params, m, alpha_star)
    return {key: counts[key] for key in ("markets", "with alpha*", "UnsupportedRegime",
                                         "band checked at alpha* (1 -+ 1e-9)", "band-switch misses",
                                         "alpha* < 1e-300", "alpha* = 0.0")}


def _cause(exc: ValuationError) -> str:
    """``exc``'s class and message, numbers as # and call arguments cut."""
    return f"{exc.code}: {_NUMBER.sub('#', str(exc).split(' at (')[0])}"


def wide_box_table(markets) -> dict[str, collections.Counter]:
    """Per contract of ``WIDE_BOX_CONTRACTS``, its returns, returns without
    h2 and raises by cause on ``markets``, an iterable of (params, m)."""
    table = {name: collections.Counter({"returns": 0, "without h2": 0}) for name in WIDE_BOX_CONTRACTS}
    for params, m in markets:
        for name, (kind, alpha) in WIDE_BOX_CONTRACTS.items():
            try:
                solved = solve_contract(params, contract_spec(kind, m, alpha))
            except ValuationError as exc:
                table[name][_cause(exc)] += 1
                continue
            table[name]["returns"] += 1
            table[name]["without h2"] += "h2" not in solved.boundaries
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", choices=["alpha-star", "wide-box"])
    if parser.parse_args(argv).table == "alpha-star":
        print("alpha-star: 20000 wide-box markets, seed 7")
        for key, count in alpha_star_table().items():
            print(f"  {key:<36} {count:>6}")
        return 0
    print("wide-box: 20000 markets, seed 4242")
    print(f"  {'contract':<18} {'returns':>7} {'without h2':>10} {'raises':>6}")
    for name, counts in wide_box_table(wide_box(20_000, 4242)).items():
        returns, no_h2 = counts.pop("returns"), counts.pop("without h2")
        print(f"  {name:<18} {returns:>7} {no_h2:>10} {sum(counts.values()):>6}")
        for cause, count in counts.most_common():
            print(f"    {count:>6}  {cause}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
