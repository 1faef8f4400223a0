import pytest

import mortval


def test_every_export_resolves():
    missing = [name for name in mortval.__all__ if not hasattr(mortval, name)]
    assert missing == []
    assert set(mortval.__all__) <= set(dir(mortval))


def test_oracle_exports_resolve_through_the_oracle_module():
    # The oracles are imported on first access; see test_cli's numpy-free commands.
    from mortval import oracle

    assert oracle is mortval.oracle
    assert mortval.psor_value is oracle.psor_value
    assert mortval.GridSpec is oracle.GridSpec
    with pytest.raises(AttributeError):
        mortval.no_such_name


def test_exports_are_unique():
    assert len(mortval.__all__) == len(set(mortval.__all__))
