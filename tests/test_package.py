import braidkit


def test_every_exported_name_resolves():
    missing = [name for name in braidkit.__all__ if not hasattr(braidkit, name)]
    assert missing == []
    assert len(set(braidkit.__all__)) == len(braidkit.__all__)
