import coopt


def test_every_exported_name_resolves():
    assert [name for name in coopt.__all__ if not hasattr(coopt, name)] == []
