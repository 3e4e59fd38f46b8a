"""The LMKG framework façade (paper §IV, Fig. 1).

Bundles the creation phase — choose models per the grouping strategy,
generate training data, train — and the execution phase — route a query
to the model covering its (topology, size), decomposing composite queries
first.

The framework speaks the unified
:class:`~repro.core.estimator.Estimator` protocol:
``estimate_batch(queries) -> np.ndarray`` is the primary surface (one
encoding pass + one forward per routed model), and ``estimate`` is the
derived one-query form.  The serving layer (:mod:`repro.serve`) builds
directly on this surface.

Typical use::

    from repro import LMKG
    framework = LMKG(store, model_type="supervised", grouping="size")
    framework.fit(shapes=[("star", 2), ("star", 3), ("chain", 2)])
    framework.estimate_batch(queries)   # -> np.ndarray
    framework.save(checkpoint_dir)      # later: LMKG.load(dir, store)
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.decomposition import (
    classified_components,
    combine_estimates,
)
from repro.core.estimator import Estimator
from repro.core.grouping import (
    GroupingStrategy,
    SpecializedGrouping,
    group_extent,
    make_grouping,
)
from repro.core.lmkg_s import LMKGS, LMKGSConfig
from repro.core.lmkg_u import LMKGU, LMKGUConfig
from repro.rdf.pattern import QueryPattern, Topology
from repro.rdf.store import TripleStore
from repro.sampling.workload import QueryRecord, generate_workload

Shape = Tuple[str, int]

ARTIFACT_FILENAME = "artifact.json"

#: the artifact schema version ``LMKG.save`` writes and the only one
#: :func:`read_artifact` accepts.
ARTIFACT_SCHEMA_VERSION = 3


def file_crc32(path: Path) -> int:
    """CRC32 of a file's content, read in 1 MiB blocks."""
    crc = 0
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            crc = zlib.crc32(block, crc)
    return crc


#: A route-table entry not looked up yet (None means "no model").
_UNROUTED = object()


class EstimationError(RuntimeError):
    """Raised when no trained model can answer a query component."""


class CheckpointError(RuntimeError):
    """Raised when a framework checkpoint directory cannot be loaded."""


class ArtifactError(CheckpointError):
    """A checkpoint's ``artifact.json`` failed the gate.

    ``reason`` codes:

    - ``missing`` — no ``artifact.json`` at the path;
    - ``corrupt`` — artifact present but unreadable or malformed, or a
      listed file that is not a plain file name inside the checkpoint;
    - ``checksum`` — a checkpoint file does not match its recorded CRC;
    - ``incompatible`` — a schema version this reader does not support.
    """

    def __init__(self, message: str, reason: str = "corrupt") -> None:
        super().__init__(message)
        self.reason = reason


def read_artifact(path: Path) -> Dict[str, object]:
    """Parse and gate-check ``artifact.json`` under *path*.

    The one reader of the record :meth:`LMKG.save` writes: it checks
    the schema version, that every model entry names a plain file
    inside *path*, and each file's CRC32 — before any weight is opened.
    Raises :class:`ArtifactError` with a typed ``reason``.
    """
    artifact_path = path / ARTIFACT_FILENAME
    if not artifact_path.is_file():
        raise ArtifactError(
            f"no checkpoint at {path} (no {ARTIFACT_FILENAME})",
            reason="missing",
        )
    try:
        record = json.loads(artifact_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(
            f"corrupt artifact at {artifact_path}: {exc}"
        ) from exc
    if not isinstance(record, dict) or "schema_version" not in record:
        raise ArtifactError(
            f"artifact at {artifact_path} has no schema_version"
        )
    version = record["schema_version"]
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"checkpoint artifact schema version {version!r} is not "
            f"supported by this reader (supports "
            f"[{ARTIFACT_SCHEMA_VERSION}]); roll the serving fleet "
            "forward, or re-save the checkpoint with this version",
            reason="incompatible",
        )
    models = record.get("models")
    if not (
        isinstance(models, list)
        and models
        and all(isinstance(entry, dict) for entry in models)
        and isinstance(record.get("trained_shapes"), dict)
        and isinstance(record.get("grouping"), dict)
        and isinstance(record.get("store"), dict)
    ):
        raise ArtifactError(
            "artifact models must be a non-empty list of objects and "
            "grouping, trained_shapes and store must be objects"
        )
    for entry in models:
        name = entry.get("file")
        if not (
            isinstance(name, str)
            and name not in ("", "..")
            and Path(name).name == name
        ):
            raise ArtifactError(
                f"model file {name!r} is not a plain file name inside "
                "the checkpoint"
            )
        target = path / name
        if not target.is_file():
            raise ArtifactError(
                f"checkpoint file {name} listed in the artifact is "
                "missing",
                reason="checksum",
            )
        actual = file_crc32(target)
        if actual != entry.get("crc32"):
            raise ArtifactError(
                f"checkpoint file {name} fails its content checksum "
                f"(recorded {entry.get('crc32')}, actual {actual}) — "
                "the checkpoint is corrupt or was partially copied",
                reason="checksum",
            )
    return record


@dataclass
class CreationReport:
    """What the creation phase built: model keys and training sizes."""

    model_keys: List[Hashable] = field(default_factory=list)
    training_records: Dict[Hashable, int] = field(default_factory=dict)


class LMKG(Estimator):
    """Compound estimator: a set of learned models plus routing logic."""

    name = "lmkg"

    def __init__(
        self,
        store: TripleStore,
        model_type: str = "supervised",
        grouping: Union[str, GroupingStrategy] = "size",
        lmkgs_config: Optional[LMKGSConfig] = None,
        lmkgu_config: Optional[LMKGUConfig] = None,
        seed: int = 0,
    ) -> None:
        if model_type not in ("supervised", "unsupervised"):
            raise ValueError(f"unknown model type {model_type!r}")
        self.store = store
        self.model_type = model_type
        if model_type == "unsupervised":
            # LMKG-U is per-shape by construction (§VIII-B: query size and
            # type grouping); a coarser grouping cannot apply.
            self.grouping: GroupingStrategy = SpecializedGrouping()
        elif isinstance(grouping, GroupingStrategy):
            self.grouping = grouping
        else:
            self.grouping = make_grouping(grouping)
        self.lmkgs_config = lmkgs_config
        self.lmkgu_config = lmkgu_config
        self.seed = seed
        self.models: Dict[Hashable, Union[LMKGS, LMKGU]] = {}
        self._group_max_size: Dict[Hashable, int] = {}
        self._group_topologies: Dict[Hashable, set] = {}

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------

    def fit(
        self,
        shapes: Sequence[Shape],
        workload: Optional[Sequence[QueryRecord]] = None,
        queries_per_shape: int = 2_000,
    ) -> CreationReport:
        """Train the models covering *shapes*.

        With no sample *workload*, training data is generated from the
        store (supervised: sampled queries labelled with exact counts;
        unsupervised: bound instances).
        """
        report = CreationReport()
        if self.model_type == "unsupervised":
            for topology, size in shapes:
                key = self.grouping.key(topology, size)
                config = self.lmkgu_config or LMKGUConfig(seed=self.seed)
                model = LMKGU(self.store, topology, size, config)
                model.fit()
                self.models[key] = model
                self._group_max_size[key] = size
                self._group_topologies[key] = {topology}
                report.model_keys.append(key)
                report.training_records[key] = config.training_samples
            return report

        records = (
            list(workload)
            if workload is not None
            else self._generate_training_data(shapes, queries_per_shape)
        )
        for key, group in self.grouping.partition(records).items():
            topologies, max_size = group_extent(group)
            config = self.lmkgs_config or LMKGSConfig(seed=self.seed)
            model = LMKGS(self.store, topologies, max_size, config)
            model.fit(group)
            self.models[key] = model
            self._group_max_size[key] = max_size
            self._group_topologies[key] = {r.topology for r in group}
            report.model_keys.append(key)
            report.training_records[key] = len(group)
        return report

    def _generate_training_data(
        self, shapes: Sequence[Shape], queries_per_shape: int
    ) -> List[QueryRecord]:
        from repro.sampling.trees import generate_tree_workload

        records: List[QueryRecord] = []
        for i, (topology, size) in enumerate(shapes):
            if topology == "tree":
                workload = generate_tree_workload(
                    self.store,
                    size,
                    num_queries=queries_per_shape,
                    seed=self.seed + 37 * i,
                )
            else:
                workload = generate_workload(
                    self.store,
                    topology,
                    size,
                    num_queries=queries_per_shape,
                    seed=self.seed + 37 * i,
                )
            records.extend(workload.records)
        return records

    # ------------------------------------------------------------------
    # Execution phase
    # ------------------------------------------------------------------

    def _estimate_batch(
        self, queries: Sequence[QueryPattern]
    ) -> List[float]:
        """Batched estimation: one featurize + one forward per model.

        The one estimation routine of the framework (``estimate`` is the
        protocol-derived one-query batch).  Each query is classified
        once and its topology handed down.  A single triple pattern is
        counted exactly from the indexes, as every RDF engine does; a
        star or chain is its own only component.  Composite queries are
        answered by a trained tree model where possible, otherwise
        decomposed into star/chain/single components.

        Routing is one pass over the batch.  A route table local to
        this call maps each (topology, size) to the model covering it,
        or to None when none does, and each size to its tree model or
        None; the grouping strategy is asked once per shape, and
        nothing outlives the call, so a model trained or loaded between
        calls is always seen.  A single triple's count and a tree
        model's estimate never enter the table: both depend on the
        query, not on its shape.  A star or chain whose shape lacks a
        model can still be absorbed by a trained tree model (a
        star/chain is also a tree).

        Components landing on the same trained model are collected and
        answered by a single ``estimate_batch`` call on it (one encoding
        pass + one network forward for LMKG-S / one shared particle
        sweep for LMKG-U), which returns them validated and clamped.
        """
        results: List[Optional[float]] = [None] * len(queries)
        #: composite query index, its classified components, their
        #: estimate slots
        pending: List[
            Tuple[
                int,
                List[Tuple[QueryPattern, Topology]],
                List[Optional[float]],
            ]
        ] = []
        #: model -> (slot list, slot index, component) to batch through
        #: it; the slot list is ``results`` itself for a one-component
        #: query
        grouped: Dict[
            Union[LMKGS, LMKGU],
            List[Tuple[List[Optional[float]], int, QueryPattern]],
        ] = {}
        #: the route table: (topology, size) -> the model covering it,
        #: or None when none does
        routes: Dict[
            Tuple[Topology, int], Optional[Union[LMKGS, LMKGU]]
        ] = {}
        #: size -> the tree model a query of that size may route to
        trees: Dict[int, Optional[LMKGS]] = {}
        count = self.store.count_pattern

        def tree_estimate(query: QueryPattern) -> Optional[float]:
            size = len(query.triples)
            if size not in trees:
                trees[size] = self._tree_model(size)
            model = trees[size]
            if model is None:
                return None
            # Imported here: a process without a tree model never loads
            # treecount.
            from repro.rdf.treecount import is_tree_query

            if not is_tree_query(query):
                return None
            return max(float(model.estimate(query)), 0.0)

        def route(
            component: QueryPattern,
            topology: Topology,
            slots: List[Optional[float]],
            index: int,
        ) -> None:
            triples = component.triples
            size = len(triples)
            if size == 1:
                slots[index] = float(count(triples[0]))
                return
            shape = (topology, size)
            model = routes.get(shape, _UNROUTED)
            if model is _UNROUTED:
                try:
                    model = self._model_for(topology.value, size)
                except EstimationError:
                    model = None
                routes[shape] = model
            if model is None:
                estimate = tree_estimate(component)
                if estimate is not None:
                    slots[index] = estimate
                    return
                # Asked again only to raise the EstimationError naming
                # the uncovered shape, once per failing call.
                model = self._model_for(topology.value, size)
            grouped.setdefault(model, []).append((slots, index, component))

        for qi, query in enumerate(queries):
            topology = query.topology()
            if topology is not Topology.COMPOSITE:
                route(query, topology, results, qi)
                continue
            estimate = tree_estimate(query)
            if estimate is not None:
                results[qi] = estimate
                continue
            classified = classified_components(query, topology)
            slots: List[Optional[float]] = [None] * len(classified)
            pending.append((qi, classified, slots))
            for ci, (component, component_topology) in enumerate(classified):
                route(component, component_topology, slots, ci)
        for model, items in grouped.items():
            batch = model.estimate_batch([c for _, _, c in items])
            for (slots, ci, _), value in zip(items, batch.tolist()):
                slots[ci] = value
        for qi, classified, slots in pending:
            if len(slots) == 1:
                results[qi] = slots[0]
            else:
                results[qi] = combine_estimates(
                    self.store, [c for c, _ in classified], slots
                )
        return results

    def _tree_model(self, size: int) -> Optional[LMKGS]:
        """The LMKG-S model a tree-shaped query of *size* triples may be
        answered by, or None; it depends on the size only."""
        key = self.grouping.key("tree", size)
        model = self.models.get(key)
        if model is None or isinstance(model, LMKGU):
            return None
        # Only answer directly when the model actually saw tree queries;
        # an untouched star/chain model would extrapolate blindly.
        if "tree" not in self._group_topologies.get(key, set()):
            return None
        if size > self._group_max_size.get(key, 0):
            return None
        return model

    def _model_for(
        self, topology: str, size: int
    ) -> Union[LMKGS, LMKGU]:
        key = self.grouping.key(topology, size)
        model = self.models.get(key)
        if model is None:
            raise EstimationError(
                f"no model trained for key {key!r} "
                f"(topology={topology}, size={size})"
            )
        if size > self._group_max_size.get(key, 0):
            raise EstimationError(
                f"model {key!r} covers sizes up to "
                f"{self._group_max_size[key]}, query has {size}"
            )
        if isinstance(model, LMKGU) and model.size != size:
            raise EstimationError(
                f"LMKG-U model {key!r} is fixed to size {model.size}"
            )
        return model

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Total in-memory size of all trained models (LMKG-U models
        count their float64 masters plus fused float32 caches)."""
        return sum(m.memory_bytes() for m in self.models.values())

    def checkpoint_bytes(self) -> int:
        """Total serialized size at checkpoint precision (Table II)."""
        return sum(m.checkpoint_bytes() for m in self.models.values())

    def num_models(self) -> int:
        return len(self.models)

    def covered_shapes(self) -> Dict[str, List[int]]:
        """Topology -> sorted sizes the execution phase can route.

        Probes the actual routing: for every trained model, the grouping
        strategy is asked which (topology, size) pairs land on its key,
        so the answer is exactly what ``_model_for`` / ``_tree_model``
        accept.  This is the ``trained_shapes`` record of the artifact.
        """
        covered: Dict[str, set] = {}
        for key, model in self.models.items():
            max_size = self._group_max_size.get(key, 0)
            for topology in self._group_topologies.get(key, set()):
                if isinstance(model, LMKGU):
                    if topology == "tree":
                        # _tree_model never answers through LMKG-U,
                        # and "tree" is not a routable Topology value.
                        continue
                    # LMKG-U is fixed-size by construction; routing
                    # rejects any other size on the same key.
                    sizes = [model.size]
                else:
                    sizes = [
                        size
                        for size in range(2, max_size + 1)
                        if self.grouping.key(topology, size) == key
                    ]
                covered.setdefault(topology, set()).update(sizes)
        return {t: sorted(sizes) for t, sizes in sorted(covered.items())}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the whole framework to a checkpoint directory.

        One ``model_<i>.npz`` per trained model, then ``artifact.json``:
        the one record :func:`read_artifact` gates on.  It holds the
        schema version, the model type, seed and grouping strategy, each
        model's entry (key, kind, file, CRC32, routing extent), the
        covered shapes and the store fingerprint.  The artifact is
        written last, so its presence marks a complete checkpoint; its
        path is returned.  ``LMKG.load(path, store)`` rebuilds an
        identical framework against the same store (or a snapshot of
        it).  Checkpoints hold the float64 training masters bit-exactly;
        the fused float32 inference caches are derived state and rebuilt
        on first use after a load.
        """
        if not self.models:
            raise RuntimeError("save() before fit()")
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        entries = []
        for i, (key, model) in enumerate(self.models.items()):
            filename = f"model_{i}.npz"
            model.save(path / filename)
            entries.append(
                {
                    "key": list(key) if isinstance(key, tuple) else key,
                    "key_is_tuple": isinstance(key, tuple),
                    "kind": (
                        "lmkg-u" if isinstance(model, LMKGU) else "lmkg-s"
                    ),
                    "file": filename,
                    "crc32": file_crc32(path / filename),
                    "max_size": int(self._group_max_size.get(key, 0)),
                    "topologies": sorted(
                        self._group_topologies.get(key, set())
                    ),
                }
            )
        grouping: Dict[str, object] = {"name": self.grouping.name}
        boundaries = getattr(self.grouping, "boundaries", None)
        if boundaries is not None:
            grouping["boundaries"] = list(boundaries)
        artifact = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "model_type": self.model_type,
            "seed": self.seed,
            "grouping": grouping,
            "models": entries,
            "trained_shapes": self.covered_shapes(),
            # The term encoders only derive widths from the store, so a
            # checkpoint loaded against a *different* graph with
            # matching widths would silently serve garbage — load()
            # refuses instead.
            "store": self.store.fingerprint(),
        }
        artifact_path = path / ARTIFACT_FILENAME
        artifact_path.write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        )
        return artifact_path

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        store: TripleStore,
        allow_stale_store: bool = False,
    ) -> "LMKG":
        """Gate-check (:func:`read_artifact`) and rebuild a saved
        framework against *store*; see :meth:`from_artifact`."""
        path = Path(path)
        return cls.from_artifact(
            path, read_artifact(path), store, allow_stale_store
        )

    @classmethod
    def from_artifact(
        cls,
        path: Path,
        record: Dict[str, object],
        store: TripleStore,
        allow_stale_store: bool = False,
    ) -> "LMKG":
        """Rebuild the framework *record* — :func:`read_artifact`'s
        result for the checkpoint at *path* — describes, against *store*.

        The store must be the graph the models were trained on (or a
        snapshot of it): the term encoders derive their widths from the
        store's node/predicate counts.

        ``allow_stale_store=True`` relaxes exactly one check — the
        triple-count equality — for the incremental-maintenance path
        (:mod:`repro.maintain`), which deliberately loads a checkpoint
        against a graph that has gained or lost triples since training
        in order to fine-tune it.  The vocabulary rule
        (:meth:`~repro.rdf.store.TripleStore.vocabulary_mismatches`)
        still holds: the encoders derive their widths from it, so a
        vocabulary change can never be absorbed by fine-tuning and
        always forces a full rebuild.
        """
        recorded = record["store"]
        mismatches = store.vocabulary_mismatches(recorded)
        if not allow_stale_store and recorded.get("num_triples") not in (
            None,
            len(store),
        ):
            mismatches.insert(
                0,
                f"num_triples: recorded {recorded['num_triples']} vs "
                f"store {len(store)}",
            )
        if mismatches:
            raise CheckpointError(
                "checkpoint was saved against a different graph ("
                + "; ".join(mismatches)
                + ")"
            )
        try:
            grouping_spec = record["grouping"]
            kwargs = (
                {"boundaries": tuple(grouping_spec["boundaries"])}
                if "boundaries" in grouping_spec
                else {}
            )
            framework = cls(
                store,
                model_type=record["model_type"],
                grouping=make_grouping(grouping_spec["name"], **kwargs),
                seed=int(record.get("seed", 0)),
            )
            entries = [
                (
                    tuple(entry["key"])
                    if entry.get("key_is_tuple")
                    else entry["key"],
                    LMKGU if entry["kind"] == "lmkg-u" else LMKGS,
                    entry["file"],
                    int(entry["max_size"]),
                    set(entry["topologies"]),
                )
                for entry in record["models"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed artifact at {path}: {exc!r}"
            ) from exc
        for key, loader, filename, max_size, topologies in entries:
            try:
                model = loader.load(path / filename, store)
            except (OSError, KeyError, ValueError) as exc:
                raise CheckpointError(
                    f"cannot load {filename}: {exc}"
                ) from exc
            framework.models[key] = model
            framework._group_max_size[key] = max_size
            framework._group_topologies[key] = topologies
        return framework
