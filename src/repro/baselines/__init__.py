"""Competitor estimators from the paper's evaluation (§VIII).

Summary-based: :class:`CharacteristicSets` (CSET), :class:`SumRDF`.
Sampling-based: :class:`WanderJoin` (WJ), :class:`JSUB`, :class:`Impr`.
Learned: :class:`MSCN` (MSCN-0 / MSCN-1k via ``MSCNConfig.num_samples``).
Plus the :class:`IndependenceEstimator` floor.

Every baseline subclasses :class:`repro.core.estimator.Estimator` and
implements the per-query hook ``_estimate_one(query) -> float`` (or,
with a vectorized path like MSCN, ``_estimate_batch``); the public
``estimate`` / ``estimate_batch`` surface and its validation live there.
Sampling-based estimators also expose ``runs`` — the repetitions G-CARE
averages over (30 in the paper); their ``_estimate_one`` performs the
averaging, so benches measure the same work the paper timed.
"""

from repro.baselines.cset import CharacteristicSets
from repro.baselines.impr import Impr
from repro.baselines.independence import IndependenceEstimator
from repro.baselines.jsub import JSUB
from repro.baselines.mscn import MSCN, MSCNConfig
from repro.baselines.sumrdf import SumRDF
from repro.baselines.wanderjoin import WanderJoin

__all__ = [
    "CharacteristicSets",
    "Impr",
    "IndependenceEstimator",
    "JSUB",
    "MSCN",
    "MSCNConfig",
    "SumRDF",
    "WanderJoin",
]
