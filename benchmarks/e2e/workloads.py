"""The four workloads: their inputs, their traffic, their checks, and
how their end-to-end metrics are read off what came back.

Each workload exists because it loads the layers differently; the
``why`` strings are the short form of that reasoning and are copied
into ``BENCHMARK.json``.

Inputs are made from the seed alone: the graph seed is the seed, the
training seeds follow ``repro``'s own ``seed + 37 * i`` convention, and
request pools come from ``seed + REQUEST_SEED_OFFSET`` so that served
queries are not the training queries.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import loadgen
import metrics as M
from system import System, TrainSpec, clock

REQUEST_SEED_OFFSET = 10_007
S_SHAPES = (("star", 2), ("star", 3), ("chain", 2), ("chain", 3))
U_SHAPES = (("star", 2), ("chain", 2))
WARMUP_S = 0.4
#: responses compared against an in-process estimate_batch
REFERENCE_SAMPLE = 200
#: Inference runs on fused float32 weights, and the scheduler coalesces
#: requests, so a served estimate comes out of a GEMM of another width
#: than the reference's and may differ in the last float32 digits
#: (measured: up to 1.3e-6 relative after the log-scale inverse).
REFERENCE_RTOL = 1e-5


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@dataclass
class PhaseSpec:
    name: str
    mode: str  # "open" | "closed"
    seconds: float
    indices: np.ndarray
    offsets: Optional[np.ndarray] = None
    connections: Optional[int] = None


@dataclass
class Inputs:
    """Everything a measured pass sends, fixed before it starts."""

    #: one entry per distinct request: encoded (head, body)
    requests: List[Tuple[bytes, bytes]]
    #: the parsed queries each request carries
    queries: List[list]
    #: exact cardinality per query (NaN where no label applies)
    truths: List[np.ndarray]
    phases: List[PhaseSpec]
    queries_per_request: int
    sha256: str = ""

    def seal(self) -> "Inputs":
        digest = hashlib.sha256()
        for phase in self.phases:
            digest.update(phase.name.encode())
            for index in phase.indices:
                digest.update(self.requests[index][1])
            if phase.offsets is not None:
                digest.update(np.round(phase.offsets, 9).tobytes())
        self.sha256 = digest.hexdigest()
        return self


def labelled_pool(store, shapes, per_shape: int, seed: int):
    """(queries, exact cardinalities, shape index) — *per_shape* distinct
    labelled queries of every shape."""
    from repro.sampling.workload import generate_workload

    queries, truths, shape_of = [], [], []
    for i, (topology, size) in enumerate(shapes):
        records = generate_workload(
            store, topology, size, num_queries=per_shape,
            seed=seed + 101 * (i + 1),
        ).records
        queries.extend(r.query for r in records)
        truths.extend(r.cardinality for r in records)
        shape_of.extend([i] * len(records))
    return queries, np.array(truths, dtype=np.float64), np.array(shape_of)


def encode_requests(store, groups: Sequence[Sequence]) -> List[Tuple[bytes, bytes]]:
    """One ``POST /estimate`` per group of queries."""
    from repro.rdf.parser import format_sparql

    out = []
    for group in groups:
        texts = [
            " ".join(format_sparql(q, store.dictionary).split())
            for q in group
        ]
        body = json.dumps({"queries": texts}).encode("utf-8")
        out.append(loadgen.encode_request("/estimate", body))
    return out


def zipf_choice(
    rng: np.random.Generator, shape_of: np.ndarray, count: int, s: float
) -> np.ndarray:
    """*count* draws: shape uniform, then Zipf(*s*) rank within it."""
    shapes = np.unique(shape_of)
    picks = np.empty(count, dtype=np.int64)
    which = rng.integers(0, len(shapes), count)
    for shape in shapes:
        members = rng.permutation(np.flatnonzero(shape_of == shape))
        weight = np.arange(1, len(members) + 1, dtype=np.float64) ** -s
        mask = which == shape
        picks[mask] = rng.choice(
            members, size=int(mask.sum()), p=weight / weight.sum()
        )
    return picks


# ----------------------------------------------------------------------
# Output checks shared by the HTTP workloads
# ----------------------------------------------------------------------

@dataclass
class Checked:
    """Parsed responses of one pass, with every failed check counted."""

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    #: per phase: ok mask (200 + well-formed)
    ok: List[np.ndarray] = field(default_factory=list)
    #: per phase: list of estimate arrays (None where not ok)
    estimates: List[list] = field(default_factory=list)
    generations: List[np.ndarray] = field(default_factory=list)
    degraded: int = 0
    shed: int = 0
    answered_by_next_generation: int = 0

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count


def check_responses(phases, inputs: Inputs) -> Checked:
    """Every 200 has ``count`` == queries sent and finite, non-negative
    estimates; anything else is a failure."""
    checked = Checked()
    for phase in phases:
        ok = np.zeros(len(phase.status), dtype=bool)
        estimates: list = [None] * len(phase.status)
        generations = np.zeros(len(phase.status), dtype=np.int64)
        for k, (status, raw) in enumerate(zip(phase.status, phase.bodies)):
            checked.attempted += 1
            if status != 200:
                checked.shed += status == 429
                checked.fail(f"http_{status}")
                continue
            try:
                payload = json.loads(raw)
                values = np.asarray(payload["estimates"], dtype=np.float64)
                sent = len(inputs.queries[phase.index[k]])
                if payload["count"] != sent or values.shape != (sent,):
                    checked.fail("wrong_count")
                    continue
                if not (np.isfinite(values).all() and (values >= 0).all()):
                    checked.fail("bad_estimate")
                    continue
            except (ValueError, KeyError, TypeError):
                checked.fail("malformed_body")
                continue
            ok[k] = True
            estimates[k] = values
            generations[k] = int(payload.get("generation") or 0)
            checked.degraded += bool(payload.get("degraded"))
        checked.ok.append(ok)
        checked.estimates.append(estimates)
        checked.generations.append(generations)
    return checked


def check_against_reference(
    checked: Checked, phases, inputs: Inputs, frameworks: Dict[int, object]
) -> None:
    """A sample of 200-responses equals in-process
    ``LMKG.estimate_batch`` on the checkpoint that served it.

    *frameworks* maps a generation to its loaded checkpoint.  During a
    blue-green reload the pool flips to the new worker set, then stops
    the old one, and only then does the backend's generation counter
    move: for those tenths of a second answers computed by generation
    g + 1 still carry the label g.  An answer that matches the *next*
    generation is counted under ``answered_by_next_generation``, not as
    a failure.
    """
    candidates = [
        (p, k)
        for p, phase in enumerate(phases)
        for k in np.flatnonzero(checked.ok[p])
    ]
    if not candidates:
        checked.fail("no_reference_sample")
        return
    step = max(len(candidates) // REFERENCE_SAMPLE, 1)
    for p, k in candidates[::step][:REFERENCE_SAMPLE]:
        queries = inputs.queries[phases[p].index[k]]
        generation = int(checked.generations[p][k])

        def matches(g: int) -> bool:
            return g in frameworks and np.allclose(
                checked.estimates[p][k],
                frameworks[g].estimate_batch(queries),
                rtol=REFERENCE_RTOL, atol=0.0,
            )

        if matches(generation):
            continue
        if matches(generation + 1):
            checked.answered_by_next_generation += 1
            continue
        checked.fail("differs_from_library")
        checked.ok[p][k] = False


def served_q_errors(checked: Checked, phases, inputs: Inputs, truths=None):
    """q-errors of the first good answer to every distinct labelled
    query (so a hot text counts once)."""
    truths = truths if truths is not None else inputs.truths
    seen = set()
    errors = []
    for p, phase in enumerate(phases):
        for k in np.flatnonzero(checked.ok[p]):
            index = int(phase.index[k])
            if index in seen:
                continue
            seen.add(index)
            truth = truths[index]
            labelled = ~np.isnan(truth)
            errors.append(
                M.q_errors(checked.estimates[p][k][labelled], truth[labelled])
            )
    return np.concatenate(errors) if errors else np.zeros(0)


def phase_report(segments: Sequence[tuple], weight: int) -> dict:
    """sent / succeeded / failed and the windowed timings of one phase,
    over every measured segment that ran it.

    *segments* holds one (PhaseResult, good-answer mask) per segment;
    the windows of all segments are pooled before ``metrics.steady``
    reads them.
    """
    first = segments[0][0]
    per_segment = max(M.WINDOWS // len(segments), 2)
    rows = []
    for phase, ok in segments:
        rows.extend(M.window_rows(
            phase.latency_ms, phase.due, phase.done, ok, phase.started,
            phase.seconds, per_segment, weight,
        ))
    sent = sum(len(ok) for _phase, ok in segments)
    succeeded = sum(int(ok.sum()) for _phase, ok in segments)
    report = {
        "mode": first.mode,
        "connections": first.connections,
        "seconds": sum(phase.seconds for phase, _ok in segments),
        "sent": sent,
        "succeeded": succeeded,
        "failed": sent - succeeded,
        "windows": rows,
        **M.steady_windows(rows),
    }
    if first.mode == "closed":
        good = [(phase.index[ok], phase.latency_ms[ok])
                for phase, ok in segments]
        report["by_input"] = M.by_input(
            np.concatenate([g[0] for g in good]),
            np.concatenate([g[1] for g in good]),
        )
    if first.mode == "open":
        # An open loop that cannot keep up finishes late: the backlog
        # shows as an achieved rate below the offered one.
        elapsed = sum(
            max(float(phase.done.max()) - phase.started, phase.seconds)
            for phase, _ok in segments
        )
        report["offered_qps"] = sent / report["seconds"]
        report["achieved_qps"] = succeeded / elapsed
        report["generator_lag_p99_ms"] = M.percentile(
            np.concatenate([phase.lag_ms for phase, _ok in segments]), 99
        )
    return report


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class HttpWorkload:
    """Common shape of the three workloads that talk to ``repro serve``."""

    name: str
    why: str
    triples: int
    train: TrainSpec
    workers: int
    reference_check = True

    def inputs(self, system: System, seed: int, seconds: float) -> Inputs:
        raise NotImplementedError

    def drive(self, host, port, inputs: Inputs, ids=None,
              measured_phase_begins=lambda: None):
        """Warm up (lazy caches fill, connections are accepted once),
        then run every phase in order."""
        warm = np.arange(min(len(inputs.requests), 64))
        loadgen.run_closed(
            "warmup", host, port, inputs.requests, warm, WARMUP_S
        )
        measured_phase_begins()
        out = []
        for spec in inputs.phases:
            if spec.mode == "open":
                out.append(loadgen.run_open(
                    spec.name, host, port, inputs.requests, spec.indices,
                    spec.offsets, spec.seconds, spec.connections, ids,
                ))
            else:
                out.append(loadgen.run_closed(
                    spec.name, host, port, inputs.requests, spec.indices,
                    spec.seconds, spec.connections, ids,
                ))
        return out

    def read(self, reports: Dict[str, dict]) -> Dict[str, float]:
        """Workload-specific end-to-end metrics from the phase reports."""
        raise NotImplementedError


class PointSOpen(HttpWorkload):
    name = M.POINT
    why = (
        "single-query POSTs of repeating hot texts, open-loop rate ladder "
        "then saturation: http, parse, admission and scheduler do the "
        "work, the estimator almost none"
    )
    triples = 100_000
    train = TrainSpec("s", S_SHAPES)
    workers = 1
    pool_per_shape = 256
    zipf_s = 1.1
    #: (phase, offered q/s, share of the measured seconds).  Two
    #: keep-alive connections carry at most ~2,200 q/s against today's
    #: server, so the top rung fails by a wide margin and the middle one
    #: passes by a wide margin; most seconds go to the two phases the
    #: bounded metrics are read from.
    ladder = (("rate_300", 300.0, 0.10), ("rate_900", 900.0, 0.50),
              ("rate_3000", 3000.0, 0.10))
    closed_share = 0.30

    def inputs(self, system, seed, seconds):
        rng = np.random.default_rng(seed + REQUEST_SEED_OFFSET)
        queries, truths, shape_of = labelled_pool(
            system.store, S_SHAPES, self.pool_per_shape,
            seed + REQUEST_SEED_OFFSET,
        )
        phases = []
        for name, rate, share in self.ladder:
            offsets = loadgen.poisson_offsets(rng, rate, seconds * share)
            phases.append(PhaseSpec(
                name, "open", seconds * share,
                zipf_choice(rng, shape_of, len(offsets), self.zipf_s),
                offsets,
            ))
        phases.append(PhaseSpec(
            "closed", "closed", seconds * self.closed_share,
            zipf_choice(rng, shape_of, 8192, self.zipf_s),
        ))
        return Inputs(
            encode_requests(system.store, [[q] for q in queries]),
            [[q] for q in queries],
            [np.array([t]) for t in truths],
            phases, 1,
        ).seal()

    def read(self, reports):
        mid = reports["rate_900"]
        passed = [
            rate
            for name, rate, _share in self.ladder
            if reports[name]["failed"] == 0
            and reports[name]["p99"] is not None
            and reports[name]["p99"]["value"] <= M.LATENCY_LIMIT_MS
            and reports[name]["achieved_qps"]
            >= M.ACHIEVED_SHARE * reports[name]["offered_qps"]
        ]
        return {
            "throughput_qps": reports["closed"]["answered_qps"],
            "latency_p50_ms": mid["p50"],
            "latency_p90_ms": mid["p90"],
            "latency_p99_ms": mid["p99"],
            "lowrate_latency_p50_ms": reports["rate_300"]["p50"],
            "max_rate_ok_qps": max(passed, default=0.0),
        }


class PlanUPool(HttpWorkload):
    name = M.PLAN
    why = (
        "32 distinct queries per request, closed loop, LMKG-U behind two "
        "pool workers: the nn.masked particle sweep and pool "
        "scatter/gather do the work, http cost is amortised 32x"
    )
    triples = 10_000
    train = TrainSpec("u", U_SHAPES, queries_per_shape=2000, epochs=1,
                      hidden=(64, 64))
    workers = 2
    reference_check = False  # LMKG-U samples; only the contract is checked
    pool_per_shape = 256
    width = 32
    distinct_requests = 128

    def inputs(self, system, seed, seconds):
        rng = np.random.default_rng(seed + REQUEST_SEED_OFFSET)
        queries, truths, _shape_of = labelled_pool(
            system.store, U_SHAPES, self.pool_per_shape,
            seed + REQUEST_SEED_OFFSET,
        )
        groups = [
            rng.choice(len(queries), self.width, replace=False)
            for _ in range(self.distinct_requests)
        ]
        return Inputs(
            encode_requests(
                system.store, [[queries[i] for i in g] for g in groups]
            ),
            [[queries[i] for i in g] for g in groups],
            [truths[g] for g in groups],
            [PhaseSpec(
                "closed", "closed", seconds,
                rng.permutation(self.distinct_requests), connections=1,
            )],
            self.width,
        ).seal()

    def read(self, reports):
        closed = reports["closed"]
        return {
            "throughput_qps": closed["answered_qps"],
            "latency_p50_ms": closed["p50"],
            "latency_p90_ms": closed["p90"],
        }


class MaintainReads(HttpWorkload):
    name = M.MAINTAIN
    why = (
        "never-repeating reads at a fixed open-loop rate while a loop "
        "adds a 1% delta and runs repro maintain run --reload-url: "
        "ingest, relabel, fine-tune and blue-green reload beside reads"
    )
    triples = 30_000
    train = TrainSpec("s", S_SHAPES, via_maintain=True)
    workers = 2
    rate_qps = 150.0
    delta_share = 0.01
    #: one maintenance cycle per this many measured seconds, run back
    #: to back from the start: a fixed count, so the work beside the
    #: reads (and the CPU charged per query) does not depend on how many
    #: cycles happened to fit
    seconds_per_cycle = 6.0

    def inputs(self, system, seed, seconds):
        rng = np.random.default_rng(seed + REQUEST_SEED_OFFSET)
        offsets = loadgen.poisson_offsets(rng, self.rate_qps, seconds)
        per_shape = math.ceil(len(offsets) * 1.25 / len(S_SHAPES))
        queries, truths, _shape_of = labelled_pool(
            system.store, S_SHAPES, per_shape, seed + REQUEST_SEED_OFFSET
        )
        if len(queries) < len(offsets):
            raise RuntimeError(
                f"read pool of {len(queries)} cannot cover "
                f"{len(offsets)} never-repeating reads"
            )
        return Inputs(
            encode_requests(system.store, [[q] for q in queries]),
            [[q] for q in queries],
            [np.array([t]) for t in truths],
            [PhaseSpec(
                "reads", "open", seconds,
                rng.permutation(len(queries))[:len(offsets)],
                offsets,
            )],
            1,
        ).seal()

    def read(self, reports):
        reads = reports["reads"]
        return {
            # an open loop answers what it is offered: the rate over the
            # whole phase, not the best window's
            "throughput_qps": reads["achieved_qps"],
            "latency_p50_ms": reads["p50"],
            "latency_p90_ms": reads["p90"],
            "latency_p99_ms": reads["p99"],
        }


def novel_triples(store, count: int, rng: np.random.Generator) -> np.ndarray:
    """*count* triples not in *store*, recombined from its own subjects,
    predicates and objects so the vocabulary (and with it the
    incremental maintenance path) is preserved."""
    rows = store.backend.rows()
    columns = [np.unique(rows[:, c]) for c in range(3)]
    found = np.empty((0, 3), dtype=np.int64)
    while len(found) < count:
        draw = np.stack(
            [rng.choice(column, 4 * count) for column in columns], axis=1
        ).astype(np.int64)
        draw = np.unique(draw, axis=0)
        draw = draw[~store.backend.isin_rows(draw)]
        found = np.unique(np.concatenate([found, draw]), axis=0)
    return found[rng.permutation(len(found))[:count]]


class MaintainLoop(threading.Thread):
    """Writes beside the reads: add a delta, snapshot the live graph,
    hand it to one maintenance cycle; *count* times, back to back.

    *cycle* runs one maintenance cycle against the saved snapshot and
    returns its report dict; the untraced pass gives the CLI, the traced
    pass an in-process runner.
    """

    def __init__(self, store, directory: Path, seed: int, count: int,
                 delta_share: float, cycle) -> None:
        super().__init__(name="bench-maintain-loop", daemon=True)
        self.store = store
        self.directory = directory
        self.rng = np.random.default_rng(seed + 2 * REQUEST_SEED_OFFSET)
        self.count = count
        self.delta_share = delta_share
        self.cycle = cycle
        self.cycles: List[dict] = []
        self.deltas: List[np.ndarray] = []
        self.error: Optional[BaseException] = None
        #: set to end the loop after the cycle in hand
        self.stop = threading.Event()

    def run(self) -> None:
        try:
            for _ in range(self.count):
                if self.stop.is_set():
                    break
                delta = novel_triples(
                    self.store,
                    max(int(len(self.store) * self.delta_share), 1),
                    self.rng,
                )
                applied = clock()
                self.store.add_all(delta)
                self.store.backend  # add_all only stages; this merges
                added = clock()
                live = self.directory / f"live-{len(self.cycles) + 1}"
                self.store.save_snapshot(live, record_source=False)
                saved = clock()
                report = self.cycle(live)
                done = clock()
                self.deltas.append(delta)
                self.cycles.append({
                    "cycle_s": done - applied,
                    "add_all_s": added - applied,
                    "save_snapshot_s": saved - added,
                    "delta_triples": int(len(delta)),
                    "report": report,
                })
        except BaseException as exc:  # noqa: BLE001 — reported by caller
            self.error = exc


# ----------------------------------------------------------------------
# The library workload
# ----------------------------------------------------------------------

class BatchSLib:
    """``LMKG.estimate_batch`` called straight from a fresh process."""

    name = M.BATCH
    why = (
        "no server: a child process calls LMKG.estimate_batch on batches "
        "of 256 parsed patterns (20% compound): core and nn do all the "
        "work, serve none, so a serving change must leave it flat"
    )
    triples = 100_000
    train = TrainSpec("s", S_SHAPES)
    workers = None
    batch = 256
    compound_share = 0.2
    distinct_batches = 16
    pool_per_shape = 1024

    def inputs(self, system, seed, seconds):
        from repro.rdf.pattern import QueryPattern

        rng = np.random.default_rng(seed + REQUEST_SEED_OFFSET)
        queries, truths, shape_of = labelled_pool(
            system.store, S_SHAPES, self.pool_per_shape,
            seed + REQUEST_SEED_OFFSET,
        )
        stars = np.flatnonzero(shape_of == 0)
        chains = np.flatnonzero(shape_of >= 2)
        compound = int(self.batch * self.compound_share)
        batches, labels = [], []
        for _ in range(self.distinct_batches):
            plain = rng.choice(len(queries), self.batch - compound,
                               replace=False)
            members = [queries[i] for i in plain]
            truth = list(truths[plain])
            for star, chain in zip(rng.choice(stars, compound),
                                   rng.choice(chains, compound)):
                # star variables are s/oN, chain variables nN: disjoint
                members.append(QueryPattern(
                    list(queries[star].triples)
                    + list(queries[chain].triples)
                ))
                truth.append(math.nan)
            order = rng.permutation(self.batch)
            batches.append([members[i] for i in order])
            labels.append(np.array(truth)[order])
        blob = [pickle.dumps(b, protocol=4) for b in batches]
        inputs = Inputs([(b"", b) for b in blob], batches, labels,
                        [PhaseSpec("batches", "closed", seconds,
                                   np.arange(self.distinct_batches))],
                        self.batch)
        return inputs.seal()

    def read(self, reports):
        calls = reports["batches"]
        # The call is deterministic and CPU-bound: percentiles over the
        # 16 distinct batches of each batch's undisturbed latency, not
        # over calls (see metrics.by_input).
        latency = calls["by_input"] or {
            k: calls[k]["value"] for k in ("p50", "p90", "p99")
        }
        return {
            "throughput_qps": calls["answered_qps"],
            "latency_p50_ms": latency["p50"],
            "latency_p90_ms": latency["p90"],
            "latency_p99_ms": latency["p99"],
        }
