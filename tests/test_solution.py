import math

import numpy as np
import pytest

from mortval import ContractKind, ContractSpec, InvalidParams, ModelParams, solve_contract, solve_no_prepay
from mortval.solution import Action

from conftest import B0, M0, R0, SIGMA0

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


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_scalar_lookup_matches_array_at_edges(name):
    solved = SOLVED[name]
    edges = [reg.hi for reg in solved.regions[:-1]]
    h = [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
    h += np.geomspace(0.01, 50.0, 257).tolist()
    for fn in (solved.value, solved.derivative):
        vec = fn(np.array(h))
        assert [fn(x).hex() for x in h] == [float(v).hex() for v in vec]


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
