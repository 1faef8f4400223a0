import mortval


def test_every_export_resolves():
    missing = [name for name in mortval.__all__ if not hasattr(mortval, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(mortval.__all__) == len(set(mortval.__all__))
