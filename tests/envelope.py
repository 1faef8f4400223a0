"""Envelope tables of the closed forms, from fixed seeds.

pytest does not collect this file; one Tier-1 test runs each table on a few
markets.  From the repository root:

    PYTHONPATH=src python tests/envelope.py alpha-star

alpha-star: on 20 000 markets drawn like the wide box from seed 7
(r .002-.1, delta .002-.12, sigma .03-.8, b0 .05-1 and
m = r (1 + 10^U(-10, 1.5))), ``aprm_regime``'s alpha* against
``solve_aprm``'s band.  Where alpha* >= 1e-300 and alpha* (1 + 1e-9) < 1,
a miss is a market whose band is gone at alpha* (1 - 1e-9) or still there
at alpha* (1 + 1e-9), a raise included.
"""

from __future__ import annotations

import argparse
import collections
import sys

import numpy as np

from mortval import ModelParams, UnsupportedRegime, aprm_regime, solve_aprm

WIDE_BOX = ((0.002, 0.002, 0.03, 0.05, -10.0), (0.1, 0.12, 0.8, 1.0, 1.5))


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", choices=["alpha-star"])
    parser.parse_args(argv)
    print("alpha-star: 20000 wide-box markets, seed 7")
    for key, count in alpha_star_table().items():
        print(f"  {key:<36} {count:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
