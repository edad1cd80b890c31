"""The public API: its names, every exported name resolves, and no object has two."""

import pytest

import dopwave
from dopwave import codes, doppler, numtheory, stagger

MODULES = [dopwave, numtheory, codes, doppler, stagger]

# dopwave.__all__, sorted; a change to the public API edits this list on purpose.
PUBLIC_API = [
    "AmbiguitySurface", "Ccm", "DomainMismatchError", "EspPartition", "Lane",
    "PulseTrain", "TaylorReport", "acf", "ambiguity", "ambiguity_surface",
    "build_cyclic_train", "build_ptm_train", "builtin_partition",
    "compare_ptm_vs_stagger", "decompose_to_antennas", "digit_sum_mod",
    "esp_check", "esp_search", "forward_transform", "gen_dft_set",
    "gen_golay_pair", "inverse_transform", "pad_partition", "power_sum",
    "ptm_partition", "ptm_sequence", "sidelobe_split_check", "taylor_coeffs",
    "validate_ccm", "weight_table", "ztransform_eval",
]


def test_public_api_is_pinned():
    assert sorted(dopwave.__all__) == PUBLIC_API


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
