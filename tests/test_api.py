"""The public API: every exported name resolves, and no object has two."""

import pytest

import dopwave
from dopwave import codes, doppler, numtheory, stagger

MODULES = [dopwave, numtheory, codes, doppler, stagger]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_object_has_two_exported_names(module):
    names: dict[int, list[str]] = {}
    for name in module.__all__:
        names.setdefault(id(getattr(module, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []
