"""LMKG core: encodings, the learned estimators, and the framework.

The paper's evaluated models: LMKG-S, LMKG-U, grouping and the façade.
The model planner (§IV) is imported from :mod:`repro.core.planner`
directly, so serving processes do not load it.  The future-work
extensions live outside ``src/``, in ``benchmarks/ext/``, next to the
benches that measure them.
"""

from repro.core.decomposition import (
    classified_components,
    combine_estimates,
    shared_variables,
)
from repro.core.encoders import (
    TermEncoder,
    binary_width,
    decode_binary,
    encode_binary,
    encode_one_hot,
    make_encoders,
    one_hot_width,
)
from repro.core.estimator import (
    Estimator,
    EstimatorContractError,
    finalize_estimates,
)
from repro.core.framework import (
    LMKG,
    CheckpointError,
    CreationReport,
    EstimationError,
)
from repro.core.grouping import (
    GroupingStrategy,
    SingleGrouping,
    SizeGrouping,
    SpecializedGrouping,
    TypeGrouping,
    group_extent,
    make_grouping,
)
from repro.core.lmkg_s import LMKGS, LMKGSConfig
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.core.metrics import AccuracySummary, q_error, q_errors, summarize
from repro.core.pattern_bound import PatternBoundEncoder
from repro.core.sg_encoding import SGEncoding

__all__ = [
    "classified_components",
    "combine_estimates",
    "shared_variables",
    "TermEncoder",
    "binary_width",
    "decode_binary",
    "encode_binary",
    "encode_one_hot",
    "make_encoders",
    "one_hot_width",
    "LMKG",
    "CheckpointError",
    "CreationReport",
    "EstimationError",
    "Estimator",
    "EstimatorContractError",
    "finalize_estimates",
    "GroupingStrategy",
    "SingleGrouping",
    "SizeGrouping",
    "SpecializedGrouping",
    "TypeGrouping",
    "group_extent",
    "make_grouping",
    "LMKGS",
    "LMKGSConfig",
    "LMKGU",
    "LMKGUConfig",
    "AccuracySummary",
    "q_error",
    "q_errors",
    "summarize",
    "PatternBoundEncoder",
    "SGEncoding",
]
