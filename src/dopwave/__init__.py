"""Doppler-tolerant pulse trains from complementary code sets.

The package splits into four layers:

    numtheory  exact digit sums, PTM sequences/partitions, power sums,
               equal-power-sum partition search, sign transforms
    codes      unimodular codes, autocorrelation, one complementarity check
               (exact for orders 1, 2, 4), binary-pair and DFT-set generators
    doppler    pulse trains, ambiguity function, Taylor-coefficient null
               orders in the delay and z domains, surface sampling
    stagger    multi-antenna staggered schedules built from equal-power-sum
               partitions, with Taylor-report null verification

plus a ``dopwave`` command-line tool (see dopwave.cli).
"""

from .codes import (
    Ccm,
    acf,
    gen_dft_set,
    gen_golay_pair,
    validate_ccm,
    ztransform_eval,
)
from .doppler import (
    AmbiguitySurface,
    DomainMismatchError,
    PulseTrain,
    TaylorReport,
    ambiguity,
    ambiguity_surface,
    build_cyclic_train,
    build_ptm_train,
    taylor_coeffs,
)
from .numtheory import (
    EspPartition,
    WeightTable,
    digit_sum_mod,
    esp_check,
    esp_search,
    forward_transform,
    inverse_transform,
    power_sum,
    prouhet_sum,
    ptm_partition,
    ptm_sequence,
    sidelobe_split_check,
    weight_table,
)
from .stagger import (
    StaggerPlan,
    builtin_partition,
    compare_ptm_vs_stagger,
    decompose_to_antennas,
    pad_partition,
)

__version__ = "0.1.0"

__all__ = [
    "Ccm",
    "acf",
    "gen_dft_set",
    "gen_golay_pair",
    "validate_ccm",
    "ztransform_eval",
    "AmbiguitySurface",
    "DomainMismatchError",
    "PulseTrain",
    "TaylorReport",
    "ambiguity",
    "ambiguity_surface",
    "build_cyclic_train",
    "build_ptm_train",
    "taylor_coeffs",
    "EspPartition",
    "WeightTable",
    "digit_sum_mod",
    "esp_check",
    "esp_search",
    "forward_transform",
    "inverse_transform",
    "power_sum",
    "prouhet_sum",
    "ptm_partition",
    "ptm_sequence",
    "sidelobe_split_check",
    "weight_table",
    "StaggerPlan",
    "builtin_partition",
    "compare_ptm_vs_stagger",
    "decompose_to_antennas",
    "pad_partition",
]
