import hyf


def test_every_export_resolves_once():
    assert len(hyf.__all__) == len(set(hyf.__all__))
    assert [name for name in hyf.__all__ if not hasattr(hyf, name)] == []
