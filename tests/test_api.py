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


@pytest.mark.parametrize("module", [dopwave, numtheory], ids=lambda m: m.__name__)
def test_weight_table_is_the_matrix_itself(module):
    # weight_table returns the sign matrix; no wrapper type is exported.
    assert "WeightTable" not in module.__all__
    assert not hasattr(module, "WeightTable")
