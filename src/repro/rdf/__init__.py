"""RDF substrate: terms, dictionaries, the triple store, and exact matching.

This subpackage is the storage and query-evaluation layer every estimator
builds on.  Public surface:

- :class:`~repro.rdf.terms.Variable`, :class:`~repro.rdf.terms.TriplePattern`
  and the :func:`~repro.rdf.terms.pattern` helper,
- :class:`~repro.rdf.pattern.QueryPattern` with star/chain topology
  classification and the constructors
  :func:`~repro.rdf.pattern.star_pattern` /
  :func:`~repro.rdf.pattern.chain_pattern`,
- :class:`~repro.rdf.store.TripleStore` with full permutation indexes,
- :func:`~repro.rdf.matcher.count_bgp` — exact cardinalities,
- N-Triples / SPARQL-subset IO in :mod:`repro.rdf.parser`,
- dataset statistics in :mod:`repro.rdf.stats`.
"""

from repro.rdf.columnar import ColumnarBackend, SnapshotError
from repro.rdf.dictionary import UNBOUND_ID, GraphDictionary, TermDictionary
from repro.rdf.matcher import cardinalities, count_bgp, iter_bindings
from repro.rdf.parser import (
    ParseError,
    format_sparql,
    load_ntriples,
    parse_sparql,
    read_ntriples,
    write_ntriples,
)
from repro.rdf.pattern import (
    QueryPattern,
    Topology,
    chain_pattern,
    star_pattern,
)
from repro.rdf.stats import GraphStats, compute_stats
from repro.rdf.parallel import ParallelLabelingError, label_queries
from repro.rdf.store import ReadOnlyStoreError, TripleStore
from repro.rdf.treecount import count_tree, is_tree_query
from repro.rdf.terms import Triple, TriplePattern, Variable, pattern

__all__ = [
    "ColumnarBackend",
    "ParallelLabelingError",
    "ReadOnlyStoreError",
    "SnapshotError",
    "label_queries",
    "UNBOUND_ID",
    "GraphDictionary",
    "TermDictionary",
    "cardinalities",
    "count_bgp",
    "iter_bindings",
    "ParseError",
    "format_sparql",
    "load_ntriples",
    "parse_sparql",
    "read_ntriples",
    "write_ntriples",
    "QueryPattern",
    "Topology",
    "chain_pattern",
    "star_pattern",
    "GraphStats",
    "compute_stats",
    "TripleStore",
    "count_tree",
    "is_tree_query",
    "Triple",
    "TriplePattern",
    "Variable",
    "pattern",
]
