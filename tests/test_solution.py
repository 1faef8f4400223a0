import functools
import json
import math
import sys

import numpy as np
import pytest

from mortval import ContractKind, ContractSpec, InvalidParams, ModelParams, solve_contract, solve_no_prepay
from mortval.solution import Action

from conftest import B0, M0, R0, SIGMA0
from dispatch import in_child, without_avx512

PARAMS = ModelParams(r=R0, delta=0.045, sigma=SIGMA0, b0=B0)
FRM, ABM, APRM = ContractKind.FRM, ContractKind.ABM, ContractKind.APRM

# (kind, m, alpha) at PARAMS, one per region layout the solvers produce.
CASES = {
    "frm": (FRM, M0, 0.0),
    "abm one-sided": (ABM, M0, 0.0),
    "abm two-sided": (ABM, 0.047, 0.0),
    "aprm low band": (APRM, M0, 0.05),
    "aprm never stops": (APRM, M0, 0.08),
    "aprm mid band": (APRM, 0.047, 0.02),
    "aprm mid frozen": (APRM, 0.047, 0.6),
    "aprm high": (APRM, 0.06, 0.05),
    "aprm zero alpha": (APRM, 0.047, 0.0),
}
SOLVED = {name: solve_contract(PARAMS, ContractSpec(*case)) for name, case in CASES.items()}
SOLVED.update({
    f"{kind.value} no prepay": solve_no_prepay(PARAMS, ContractSpec(kind, M0))
    for kind in (FRM, ABM, APRM)
})


def _edge_prices(solved) -> list[float]:
    """Every region edge and its two float neighbours, and 257 prices from 0.01 to 50."""
    edges = [reg.hi for reg in solved.regions[:-1]]
    h = [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
    return h + np.geomspace(0.01, 50.0, 257).tolist()


def _scalar_and_array_bits() -> dict:
    """For each contract: the value and slope at ``_edge_prices``, in float hex,
    from one float call per price and from one array call."""
    out = {}
    for name, solved in SOLVED.items():
        h = _edge_prices(solved)
        out[name] = [
            ([fn(x).hex() for x in h], [float(v).hex() for v in fn(np.array(h))])
            for fn in (solved.value, solved.derivative)
        ]
    return out


@functools.cache
def _bits_without_avx512() -> dict:
    return in_child(__file__)


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_scalar_lookup_matches_array_at_edges(name):
    # Floats take ``math`` and arrays numpy's ufuncs; they give the same
    # bits where numpy rounds as the C library does, so without AVX-512.
    for scalar, array in _bits_without_avx512()[name]:
        assert scalar == array


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_scalar_and_array_lookups_pick_the_same_region(name):
    solved = SOLVED[name]
    h = _edge_prices(solved)
    assert [solved.regions[i] for i in solved.region_index(np.array(h))] == [solved.region_at(x) for x in h]


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_edge_belongs_to_the_stopping_side(name):
    solved = SOLVED[name]
    edges = [reg.hi for reg in solved.regions[:-1]]
    assert solved.region_index(np.array(edges)).tolist() == [solved.region_index(e) for e in edges]
    for j, (left, right) in enumerate(zip(solved.regions, solved.regions[1:])):
        edge = left.hi
        assert solved.region_index(math.nextafter(edge, 0.0)) == j
        assert solved.region_index(math.nextafter(edge, math.inf)) == j + 1
        owner = solved.region_index(edge)
        if left.action is Action.CONTINUE and right.action is Action.CONTINUE:
            assert owner == j
        else:
            assert owner in (j, j + 1) and solved.regions[owner].action is not Action.CONTINUE
        assert solved.region_at(edge) is solved.regions[owner]


@pytest.mark.parametrize("kind", [FRM, ABM, APRM])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_prices_must_be_positive_and_finite(kind, bad):
    solved = solve_contract(PARAMS, ContractSpec(kind, M0, 0.05 if kind is APRM else 0.0))
    for fn in (solved.value, solved.derivative):
        with pytest.raises(InvalidParams):
            fn(bad)
        with pytest.raises(InvalidParams):
            fn(np.array([1.0, bad]))


@pytest.mark.parametrize("name", sorted(SOLVED))
@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, np.float64("nan")])
def test_region_at_applies_the_price_rule(name, bad):
    with pytest.raises(InvalidParams):
        SOLVED[name].region_at(bad)


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_every_scalar_type_gives_the_float_result(name):
    solved = SOLVED[name]
    edges = [reg.hi for reg in solved.regions[:-1]]
    for h in edges + [0.3, 1.0, 2.0, 7.0]:
        want = solved.value(h)
        assert type(want) is float
        for same in (np.float64(h), np.array(h), np.array([h])[0]):
            assert solved.value(same).hex() == want.hex()
        assert solved.region_at(np.float64(h)) is solved.region_at(h)
    assert solved.value(2).hex() == solved.value(2.0).hex()


if __name__ == "__main__":
    without_avx512()
    json.dump(_scalar_and_array_bits(), sys.stdout)
