"""repro — a reproduction of LMKG (EDBT 2022): learned cardinality
estimation for knowledge graphs.

Public API highlights:

- :class:`repro.core.Estimator` — the unified estimation protocol
  (``estimate_batch(queries) -> np.ndarray`` with ``estimate``
  derived) every model and baseline implements,
- :class:`repro.core.LMKG` — the framework façade (both LMKG-S and
  LMKG-U behind grouping strategies and query decomposition), with
  whole-framework checkpointing (``save``/``load``),
- :mod:`repro.serve` — the micro-batched HTTP serving subsystem
  (``python -m repro serve``),
- :mod:`repro.rdf` — triple store, exact matcher, SPARQL-subset parser,
- :mod:`repro.datasets` — SWDF/LUBM/YAGO-like synthetic graphs,
- :mod:`repro.sampling` — training-data and workload generation,
- :mod:`repro.baselines` — CSET, SUMRDF, WanderJoin, JSUB, Impr and MSCN,
- :mod:`repro.nn` — the numpy neural-network substrate.

The paper's future-work items (the compound S+U estimator, workload-shift
adaptation, range queries, a universal LMKG-U, an outlier buffer, a
Bayesian-network baseline and a join optimizer) are not part of the
package: they live in ``benchmarks/ext/``, next to the benches that
measure them.
"""

from repro.core import (
    LMKG,
    LMKGS,
    LMKGU,
    Estimator,
    LMKGSConfig,
    LMKGUConfig,
    q_error,
    summarize,
)
from repro.datasets import load_dataset
from repro.rdf import (
    QueryPattern,
    TripleStore,
    Variable,
    chain_pattern,
    count_bgp,
    star_pattern,
)

__version__ = "1.1.0"

__all__ = [
    "Estimator",
    "LMKG",
    "LMKGS",
    "LMKGU",
    "LMKGSConfig",
    "LMKGUConfig",
    "q_error",
    "summarize",
    "load_dataset",
    "QueryPattern",
    "TripleStore",
    "Variable",
    "chain_pattern",
    "count_bgp",
    "star_pattern",
]
