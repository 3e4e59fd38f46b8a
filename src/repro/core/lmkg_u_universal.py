"""A single autoregressive model over every query shape (NeuroCard-style).

The paper's related work (§II) notes that NeuroCard — "one cardinality
estimator for all tables" — "has the potential to be applied on KGs"
and defers the investigation to future work.  This module carries it
out for LMKG-U: instead of one ResMADE per (topology, size), a single
model learns the joint distribution over a *union* of shape universes.

Construction:

- The input sequence is ``[shape, n1, p1, ..., p_K, n_{K+1}]`` where
  ``shape`` indexes the covered (topology, size) pairs and ``K`` is the
  largest covered size; instances of smaller shapes pad the unused tail
  positions with the reserved id 0.
- Training draws instances from each shape's universe proportional to
  the universe's size, so the model approximates the uniform
  distribution over the union and ``card(q) = N_total × P(shape,
  bound terms, pads)`` with unbound positions marginalised by the same
  likelihood-weighted sampling LMKG-U uses.

The trade is exactly §VII-B's single-model row: one set of weights for
all shapes (smaller memory, less maintenance) against the specialised
models' accuracy — quantified in ``bench_ext_universal_u.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import Estimator
from repro.core.lmkg_u import (
    LMKGU,
    GumbelStream,
    LMKGUConfig,
    sweep_probabilities,
)
from repro.nn.masked import MADE
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.rdf.terms import PatternTerm, Variable, is_bound
from repro.sampling.random_walk import sample_instances

Shape = Tuple[str, int]

#: vocabulary indices inside the MADE
_NODE_VOCAB = 0
_PRED_VOCAB = 1
_SHAPE_VOCAB = 2


class UniversalLMKGU(Estimator):
    """One ResMADE covering several (topology, size) shapes.

    Args:
        store: the knowledge graph.
        shapes: the (topology, size) pairs to cover; sizes need not be
            equal — smaller shapes pad.
        config: shared hyperparameters (``training_samples`` is the
            *total* budget, split across shapes by universe size).
    """

    def __init__(
        self,
        store: TripleStore,
        shapes: Sequence[Shape],
        config: Optional[LMKGUConfig] = None,
    ) -> None:
        if not shapes:
            raise ValueError("need at least one shape")
        for topology, size in shapes:
            if topology not in ("star", "chain"):
                raise ValueError(f"unsupported topology {topology!r}")
            if size < 1:
                raise ValueError("shape size must be >= 1")
        self.store = store
        self.shapes: List[Shape] = list(dict.fromkeys(shapes))
        self.config = config if config is not None else LMKGUConfig()
        self.max_size = max(size for _, size in self.shapes)
        #: term positions after the shape column
        self.term_positions = 2 * self.max_size + 1
        self.num_positions = 1 + self.term_positions
        self._var_vocabs = [_SHAPE_VOCAB] + [
            _NODE_VOCAB if i % 2 == 0 else _PRED_VOCAB
            for i in range(self.term_positions)
        ]
        # id 0 is reserved in every vocabulary (padding / unbound).
        self._vocab_sizes = [
            store.num_nodes + 1,
            store.num_predicates + 1,
            len(self.shapes) + 1,
        ]
        self._shape_ids: Dict[Shape, int] = {
            shape: idx + 1 for idx, shape in enumerate(self.shapes)
        }
        self.model: Optional[MADE] = None
        self.universes: Dict[Shape, int] = {}
        self.total_universe: int = 0
        self.history: List[float] = []
        self._noise: Optional[GumbelStream] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def build_model(self) -> MADE:
        """Instantiate the (untrained) shared ResMADE."""
        self.model = MADE(
            var_vocabs=self._var_vocabs,
            vocab_sizes=self._vocab_sizes,
            embed_dim=self.config.embed_dim,
            hidden_sizes=self.config.hidden_sizes,
            residual=self.config.residual,
            seed=self.config.seed,
        )
        return self.model

    def _padded(self, shape: Shape, instance: Sequence[int]) -> List[int]:
        row = [self._shape_ids[shape]]
        row.extend(instance)
        row.extend([0] * (self.term_positions - len(instance)))
        return row

    def fit(self) -> List[float]:
        """Sample every shape's universe and train the shared model.

        The per-shape sample counts are proportional to universe sizes
        (floored at a small minimum so rare shapes are represented),
        which makes the trained distribution approximate the uniform
        distribution over the union of universes.
        """
        budgets = self._sample_budgets()
        rows: List[List[int]] = []
        for shape, budget in budgets.items():
            topology, size = shape
            instances, universe = sample_instances(
                self.store,
                topology,
                size,
                budget,
                seed=self.config.seed + 13 * self._shape_ids[shape],
                method=self.config.sample_method,
            )
            self.universes[shape] = universe
            rows.extend(
                self._padded(shape, instance) for instance in instances
            )
        self.total_universe = sum(self.universes.values())
        rng = np.random.default_rng(self.config.seed)
        data = np.array(rows, dtype=np.int64)
        data = data[rng.permutation(len(data))]
        self.build_model()
        assert self.model is not None
        self.history = self.model.fit(
            data,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            lr=self.config.learning_rate,
            seed=self.config.seed,
        )
        return self.history

    def _sample_budgets(self) -> Dict[Shape, int]:
        """Split ``training_samples`` across shapes by universe size."""
        universes: Dict[Shape, int] = {}
        for topology, size in self.shapes:
            _, universe = sample_instances(
                self.store, topology, size, 0
            )
            universes[(topology, size)] = universe
        total = sum(universes.values())
        if total == 0:
            raise ValueError("no shape has any instance in the graph")
        floor = max(self.config.training_samples // (10 * len(universes)), 1)
        return {
            shape: max(
                int(self.config.training_samples * universe / total),
                floor,
            )
            for shape, universe in universes.items()
        }

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def _query_constraints(
        self, query: QueryPattern
    ) -> List[Optional[int]]:
        topology = query.topology()
        if topology in (Topology.STAR, Topology.SINGLE):
            shape: Shape = ("star", query.size)
            if shape not in self._shape_ids and topology is Topology.SINGLE:
                shape = ("chain", query.size)
        elif topology is Topology.CHAIN:
            shape = ("chain", query.size)
        else:
            raise ValueError(
                "universal model covers star and chain queries only"
            )
        if shape not in self._shape_ids:
            raise ValueError(
                f"model does not cover shape {shape}; trained for "
                f"{self.shapes}"
            )
        terms: List[PatternTerm] = [query.triples[0].s]
        for tp in query.triples:
            terms.extend((tp.p, tp.o))
        variables = [t for t in terms if isinstance(t, Variable)]
        if len(variables) != len(set(variables)):
            raise ValueError(
                "query repeats a variable beyond the topology's structure"
            )
        constraints: List[Optional[int]] = [self._shape_ids[shape]]
        constraints.extend(
            t if is_bound(t) else None for t in terms
        )
        # Pad positions are *bound* to the reserved id 0.
        constraints.extend(
            [0] * (self.term_positions - len(terms))
        )
        return constraints

    def _estimate_batch(self, queries) -> np.ndarray:
        """Batched likelihood weighting on the shared block sweep.

        :func:`~repro.core.lmkg_u.sweep_probabilities`, exactly as
        :class:`LMKGU`'s batch path.  Pad positions are bound to the
        reserved id 0, so they ride the bound-value branch of the sweep
        unchanged.
        """
        if self.model is None or not self.total_universe:
            raise RuntimeError("estimate() before fit()")
        return float(self.total_universe) * sweep_probabilities(
            self.model,
            [self._query_constraints(query) for query in queries],
            self.config.particles,
            self._noise_stream(),
        )

    # The noise table and the size accounting are LMKGU's own: both
    # classes keep ``model`` / ``config`` / ``_noise`` /
    # ``num_positions`` / ``_vocab_sizes`` under the same names, so one
    # definition serves both.
    _noise_stream = LMKGU._noise_stream
    num_parameters = LMKGU.num_parameters
    memory_bytes = LMKGU.memory_bytes
    checkpoint_bytes = LMKGU.checkpoint_bytes

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint the shared ResMADE plus shape/universe metadata."""
        from repro.nn.serialization import save_arrays

        if self.model is None or not self.total_universe:
            raise RuntimeError("save() before fit()")
        arrays = self.model.state()
        arrays["_meta_shapes"] = np.array(
            [f"{topology}:{size}".encode() for topology, size in self.shapes]
        )
        # Universe counts can exceed int64; store decimal strings.
        arrays["_meta_universes"] = np.array(
            [
                str(self.universes[shape]).encode()
                for shape in self.shapes
            ]
        )
        arrays["_meta_universal"] = np.array(
            [self.config.particles, self.config.seed]
        )
        save_arrays(path, arrays)

    @classmethod
    def load(cls, path, store: TripleStore) -> "UniversalLMKGU":
        """Rebuild a trained universal model against the same store."""
        from repro.nn.masked import MADE
        from repro.nn.serialization import load_arrays

        arrays = load_arrays(path)
        shapes: List[Shape] = []
        for raw in arrays["_meta_shapes"]:
            topology, size = bytes(raw).decode().split(":")
            shapes.append((topology, int(size)))
        meta = arrays["_meta_universal"]
        config = LMKGUConfig(particles=int(meta[0]), seed=int(meta[1]))
        model = cls(store, shapes, config)
        model.model = MADE.from_state(arrays)
        model.universes = {
            shape: int(bytes(raw).decode())
            for shape, raw in zip(shapes, arrays["_meta_universes"])
        }
        model.total_universe = sum(model.universes.values())
        return model
