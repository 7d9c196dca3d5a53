"""Shared fixtures."""

import pytest

from togglekit import seqmodel as sm


@pytest.fixture
def built_elements(monkeypatch):
    """Every ``PulseElement`` constructed while the test runs, keyed by id:
    the checked ones (through ``__post_init__``) and the ones ``seqmodel``
    derives from a sequence's arrays (through ``PulseElement.__new__``)."""
    built = {}
    original = sm.PulseElement
    post_init = original.__post_init__

    class Counted(original):
        def __new__(cls, *args, **kwargs):
            el = super().__new__(cls)
            built[id(el)] = el
            return el

    def counted_post_init(el):
        built[id(el)] = el
        post_init(el)

    monkeypatch.setattr(original, "__post_init__", counted_post_init)
    monkeypatch.setattr(sm, "PulseElement", Counted)
    return built
