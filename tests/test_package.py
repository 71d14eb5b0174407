import hyperconv


def test_every_exported_name_resolves():
    missing = [name for name in hyperconv.__all__ if not hasattr(hyperconv, name)]
    assert missing == []
    assert len(set(hyperconv.__all__)) == len(hyperconv.__all__)
