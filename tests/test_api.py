"""The package namespace: every exported name is listed once and resolves."""

import pairstats


def test_all_has_no_duplicates():
    assert len(pairstats.__all__) == len(set(pairstats.__all__))


def test_all_names_resolve():
    missing = [name for name in pairstats.__all__ if not hasattr(pairstats, name)]
    assert missing == []
