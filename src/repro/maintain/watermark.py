"""The materialization high-water mark (dbt incremental idiom).

dbt's incremental materializations persist the target's high-water mark
and, on every later run, process only source rows above it.  Here the
"target" is the trained estimator checkpoint and the "source" is the
triple store: the watermark records the store fingerprint the models
were last materialized against — generation counter, triple count,
vocabulary widths, dictionary checksum — plus a monotonic run counter.
It is stamped as ``watermark.json`` into every checkpoint directory the
:class:`~repro.maintain.runner.MaintenanceRunner` publishes, next to
the serving layer's ``artifact.json``, so both the maintenance planner
and the freshness surface on ``/healthz`` can recover "how stale is the
model this process is serving" from the artifact alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from repro.rdf.store import TripleStore

WATERMARK_FILENAME = "watermark.json"

_FORMAT = "repro-maintain-watermark"
_VERSION = 1


class WatermarkError(RuntimeError):
    """Raised when a watermark file exists but cannot be trusted."""


@dataclass(frozen=True)
class Watermark:
    """Store fingerprint at the moment a materialization completed.

    Attributes:
        run: monotonic materialization counter (1 = first full build);
            doubles as the published checkpoint's generation number.
        generation: the store's mutation counter at materialization
            time.  Only comparable within one process lifetime — a
            freshly loaded snapshot restarts at 0 — so staleness
            decisions use the triple count, not this.
        num_triples / num_nodes / num_predicates: the graph extent the
            models saw.  A vocabulary change (nodes/predicates) can
            never be fine-tuned over — encoder widths derive from it —
            and always forces a full rebuild.
        dictionary_checksum: hex checksum of the term dictionary, when
            the store carries one; a changed checksum means renamed
            terms and likewise forces a full rebuild.
    """

    run: int
    generation: int
    num_triples: int
    num_nodes: int
    num_predicates: int
    dictionary_checksum: Optional[str] = None

    @classmethod
    def of_store(cls, store: TripleStore, run: int) -> "Watermark":
        return cls(
            run=int(run),
            generation=int(store.generation),
            **store.fingerprint(),
        )

    def vocabulary_matches(self, store: TripleStore) -> bool:
        """True when *store* still speaks this watermark's vocabulary.

        The necessary condition for the incremental path, by the same
        rule the checkpoint loader applies
        (:meth:`~repro.rdf.store.TripleStore.vocabulary_mismatches`).
        Triple count may differ — that difference *is* the delta to
        process.
        """
        return not store.vocabulary_mismatches(asdict(self))

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["format"] = _FORMAT
        payload["version"] = _VERSION
        return payload


def write_watermark(
    directory: Union[str, Path], watermark: Watermark
) -> Path:
    """Persist *watermark* as ``watermark.json`` under *directory*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / WATERMARK_FILENAME
    path.write_text(
        json.dumps(watermark.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def read_watermark(
    directory: Union[str, Path]
) -> Optional[Watermark]:
    """Load the watermark stamped under *directory*, or None.

    A missing file returns None — the dbt convention: no high-water
    mark means "first run", i.e. a full materialization.  A file that
    exists but cannot be parsed raises :class:`WatermarkError` instead
    of being silently treated as a first run, because acting on a
    corrupt watermark could discard a live materialization.
    """
    path = Path(directory) / WATERMARK_FILENAME
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WatermarkError(f"corrupt watermark at {path}: {exc}") from exc
    if payload.get("format") != _FORMAT:
        raise WatermarkError(f"not a watermark file: {path}")
    if payload.get("version") != _VERSION:
        raise WatermarkError(
            f"unsupported watermark version {payload.get('version')!r}"
        )
    try:
        checksum = payload.get("dictionary_checksum")
        return Watermark(
            run=int(payload["run"]),
            generation=int(payload["generation"]),
            num_triples=int(payload["num_triples"]),
            num_nodes=int(payload["num_nodes"]),
            num_predicates=int(payload["num_predicates"]),
            dictionary_checksum=(
                None if checksum is None else str(checksum)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WatermarkError(
            f"malformed watermark at {path}: {exc}"
        ) from exc
