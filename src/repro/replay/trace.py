"""Recorded workload traces: what to fire at the server, and when.

A trace is a list of :class:`TraceEvent` — one SPARQL query per event
with the **offset in seconds** at which the open-loop driver must fire
it, whatever the server's response lag looks like at that moment.
Traces are generated (:func:`generate_trace`) from a store with a
configurable shape mix and Zipf-skewed query popularity, or recorded to
/ loaded from a TSV file (:func:`save_trace` / :func:`load_trace`) so a
run is exactly reproducible across machines and PRs.

Shape mixes
-----------

A mix is a list of ``(topology, size, weight)`` entries; each event
picks its shape by weight, then its concrete query by a Zipf draw over
that shape's pre-sampled pool — a few hot queries dominate, the tail is
long, which is what production query logs look like.  Topologies:

- ``star`` / ``chain`` — sampled bound instances with a random unbound
  node subset (the serving layer's bread and butter);
- ``compound`` — a star:2 component and a chain:(size-2) component in
  one BGP (disjoint variables), exercising the decomposition +
  admission path; requires ``size >= 4``.

File format
-----------

::

    # repro-trace v1
    # meta: {"seed": 0, "rate_qps": 50.0, ...}
    offset_s<TAB>topology<TAB>size<TAB>query
    0.013371<TAB>star<TAB>2<TAB>SELECT ?s WHERE { ?s <p> <o> . }

Queries are single-line (runs of whitespace collapse; SPARQL does not
care).  Events are offset-sorted; a file whose offsets go backwards is
rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.rdf.parser import format_sparql
from repro.rdf.store import TripleStore
from repro.sampling.random_walk import sample_instances
from repro.sampling.unbinding import (
    query_from_instance,
    random_unbound_mask,
)

_HEADER = "# repro-trace v1"
_COLUMNS = "offset_s\ttopology\tsize\tquery"

#: default mix: mostly small stars, some chains — every shape covered
#: by the default trained manifest (star:2/3, chain:2/3).
DEFAULT_MIX: Tuple[Tuple[str, int, float], ...] = (
    ("star", 2, 0.5),
    ("star", 3, 0.2),
    ("chain", 2, 0.2),
    ("chain", 3, 0.1),
)

TOPOLOGIES = ("star", "chain", "compound")


class TraceFormatError(RuntimeError):
    """A trace file or mix spec that cannot be used."""


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled request: fire *text* at ``t0 + offset_s``."""

    offset_s: float
    topology: str
    size: int
    text: str


@dataclass
class Trace:
    """An offset-sorted list of events plus its generation metadata."""

    events: List[TraceEvent]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def duration_s(self) -> float:
        """Span of the arrival schedule (to the last event)."""
        return self.events[-1].offset_s if self.events else 0.0

    @property
    def offered_rate_qps(self) -> float:
        """Events per second the schedule asks for."""
        span = self.duration_s
        if span <= 0:
            return float(len(self.events))
        return len(self.events) / span


def covering_shapes(trace: "Trace") -> Tuple[Tuple[str, int], ...]:
    """The (topology, size) set a server must train/admit to answer
    every event in *trace*.

    Compound events decompose into their star:2 + chain:(size-2)
    components (admission checks decomposed components).
    """
    shapes = set()
    for event in trace:
        if event.topology in ("star", "chain"):
            shapes.add((event.topology, event.size))
        elif event.topology == "compound":
            shapes.add(("star", 2))
            shapes.add(("chain", max(event.size - 2, 2)))
    return tuple(sorted(shapes))


def parse_mix(values: Sequence[str]) -> List[Tuple[str, int, float]]:
    """``topology:size[:weight]`` strings to mix entries (CLI surface)."""
    mix: List[Tuple[str, int, float]] = []
    for value in values:
        parts = value.split(":")
        if len(parts) not in (2, 3):
            raise TraceFormatError(
                f"mix entry must be topology:size[:weight], got {value!r}"
            )
        topology = parts[0]
        if topology not in TOPOLOGIES:
            raise TraceFormatError(
                f"unknown topology {topology!r} "
                f"(choose from {', '.join(TOPOLOGIES)})"
            )
        try:
            size = int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise TraceFormatError(f"bad mix entry {value!r}: {exc}")
        if size < 1 or weight <= 0:
            raise TraceFormatError(
                f"bad mix entry {value!r}: size must be >= 1 and "
                "weight > 0"
            )
        mix.append((topology, size, weight))
    if not mix:
        raise TraceFormatError("empty mix")
    return mix


def _flatten(text: str) -> str:
    return " ".join(text.split())


def _sample_pool(
    store: TripleStore,
    topology: str,
    size: int,
    pool_size: int,
    seed: int,
) -> List[str]:
    """*pool_size* single-line query texts of one shape."""
    rng = np.random.default_rng(seed)
    if store.dictionary is None:
        raise TraceFormatError(
            "trace generation requires a dictionary-encoded store "
            "(queries are rendered back to SPARQL text)"
        )
    if topology in ("star", "chain"):
        instances, _ = sample_instances(
            store, topology, size, pool_size, seed=seed
        )
        texts = []
        for instance in instances:
            mask = random_unbound_mask(size + 1, rng)
            query = query_from_instance(topology, instance, mask)
            texts.append(
                _flatten(format_sparql(query, store.dictionary))
            )
        return texts
    if topology == "compound":
        if size < 4:
            raise TraceFormatError(
                f"compound queries need size >= 4 "
                f"(star:2 + chain:{size - 2}), got {size}"
            )
        stars, _ = sample_instances(store, "star", 2, pool_size, seed=seed)
        chains, _ = sample_instances(
            store, "chain", size - 2, pool_size, seed=seed + 1
        )
        texts = []
        for star, chain in zip(stars, chains):
            star_q = query_from_instance(
                "star", star, random_unbound_mask(3, rng)
            )
            chain_q = query_from_instance(
                "chain", chain, random_unbound_mask(size - 1, rng)
            )
            star_text = _flatten(
                format_sparql(star_q, store.dictionary)
            )
            chain_text = _flatten(
                format_sparql(chain_q, store.dictionary)
            )
            # One BGP with both components: splice both WHERE bodies
            # under a merged explicit projection (the parser has no
            # ``SELECT *``).  Variable names never clash (star uses
            # s/oN, chain uses nN).
            star_head, star_body = star_text.split("{", 1)
            chain_head, chain_body = chain_text.split("{", 1)
            variables = (
                star_head.replace("SELECT", "", 1).replace("WHERE", "")
                + " "
                + chain_head.replace("SELECT", "", 1).replace(
                    "WHERE", ""
                )
            )
            texts.append(
                _flatten(
                    "SELECT "
                    + variables
                    + " WHERE { "
                    + star_body.rsplit("}", 1)[0]
                    + " "
                    + chain_body.rsplit("}", 1)[0]
                    + " }"
                )
            )
        return texts
    raise TraceFormatError(f"unknown topology {topology!r}")


def generate_trace(
    store: TripleStore,
    rate_qps: float,
    duration_s: float,
    mix: Optional[Sequence[Tuple[str, int, float]]] = None,
    seed: int = 0,
    zipf_s: float = 1.1,
    pool_per_shape: int = 48,
    arrivals: str = "poisson",
) -> Trace:
    """Generate a reproducible open-loop trace.

    Arrival offsets follow a Poisson process at *rate_qps* (or a
    deterministic ``1/rate`` grid with ``arrivals="uniform"``); each
    event's shape is drawn from *mix* weights and its concrete query by
    a Zipf(*zipf_s*) draw over that shape's *pool_per_shape* pre-sampled
    queries (``zipf_s=0`` → uniform popularity).
    """
    if rate_qps <= 0:
        raise TraceFormatError(f"rate_qps must be > 0, got {rate_qps}")
    if duration_s <= 0:
        raise TraceFormatError(
            f"duration_s must be > 0, got {duration_s}"
        )
    if arrivals not in ("poisson", "uniform"):
        raise TraceFormatError(
            f"arrivals must be poisson|uniform, got {arrivals!r}"
        )
    entries = list(mix) if mix is not None else list(DEFAULT_MIX)
    rng = np.random.default_rng(seed)
    pools = []
    weights = []
    for i, (topology, size, weight) in enumerate(entries):
        pool = _sample_pool(
            store, topology, size, pool_per_shape, seed + 101 * (i + 1)
        )
        if not pool:
            raise TraceFormatError(
                f"shape {topology}:{size} sampled an empty pool"
            )
        # Zipf popularity over the (shuffled) pool: rank k gets
        # probability ∝ (k+1)^-s.
        rng.shuffle(pool)
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        popularity = ranks ** -float(zipf_s)
        pools.append((topology, size, pool, popularity / popularity.sum()))
        weights.append(float(weight))
    weights = np.asarray(weights, dtype=np.float64)
    weights /= weights.sum()

    offsets: List[float] = []
    if arrivals == "uniform":
        step = 1.0 / rate_qps
        offsets = list(np.arange(0.0, duration_s, step))
    else:
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_qps))
            if t > duration_s:
                break
            offsets.append(t)
    if not offsets:
        raise TraceFormatError(
            f"no arrivals in {duration_s} s at {rate_qps} qps"
        )

    events = []
    shape_idx = rng.choice(len(pools), size=len(offsets), p=weights)
    for offset, idx in zip(offsets, shape_idx):
        topology, size, pool, popularity = pools[idx]
        query_idx = int(rng.choice(len(pool), p=popularity))
        events.append(
            TraceEvent(
                offset_s=round(float(offset), 6),
                topology=topology,
                size=size,
                text=pool[query_idx],
            )
        )
    meta = {
        "seed": seed,
        "rate_qps": rate_qps,
        "duration_s": duration_s,
        "zipf_s": zipf_s,
        "pool_per_shape": pool_per_shape,
        "arrivals": arrivals,
        "mix": [list(entry) for entry in entries],
        "num_events": len(events),
    }
    return Trace(events=events, meta=meta)


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace as TSV; parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        _HEADER,
        "# meta: " + json.dumps(trace.meta, sort_keys=True),
        _COLUMNS,
    ]
    for event in trace.events:
        if "\t" in event.text or "\n" in event.text:
            raise TraceFormatError(
                "query text must be single-line and tab-free"
            )
        lines.append(
            f"{event.offset_s:.6f}\t{event.topology}"
            f"\t{event.size}\t{event.text}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace back; validates the header and offset ordering."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}")
    if not lines or lines[0].strip() != _HEADER:
        raise TraceFormatError(
            f"{path}: not a trace file (missing '{_HEADER}')"
        )
    meta: dict = {}
    events: List[TraceEvent] = []
    previous = -1.0
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("# meta:"):
            try:
                meta = json.loads(line.split(":", 1)[1])
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: bad meta JSON: {exc}"
                )
            continue
        if line.startswith("#") or line == _COLUMNS:
            continue
        parts = line.split("\t", 3)
        if len(parts) != 4:
            raise TraceFormatError(
                f"{path}:{lineno}: expected 4 tab-separated fields, "
                f"got {len(parts)}"
            )
        try:
            offset = float(parts[0])
            size = int(parts[2])
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}")
        if offset < previous:
            raise TraceFormatError(
                f"{path}:{lineno}: offsets must be non-decreasing "
                f"({offset} after {previous})"
            )
        previous = offset
        events.append(
            TraceEvent(
                offset_s=offset,
                topology=parts[1],
                size=size,
                text=parts[3],
            )
        )
    if not events:
        raise TraceFormatError(f"{path}: trace has no events")
    return Trace(events=events, meta=meta)
