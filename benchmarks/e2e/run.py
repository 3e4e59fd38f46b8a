"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/run.py --workload all --seed 0 [--trace 1]
    python3 benchmarks/e2e/run.py --workload point_s_open --seed 3 \
        --seconds 12 --trace 0          # what the driver runs
    python3 benchmarks/e2e/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off against
the real program (``python -m repro serve`` / ``repro maintain run`` as
subprocesses; a fresh child process for the library workload).
``--trace 1`` spends half the seconds on an untraced reference pass and
half on a pass against the same stack assembled in-process with a span
at every layer boundary, and reports the per-layer metrics.

With a single workload the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result of
every run is also written under ``results/``.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(
        f"benchmarks/e2e/run.py: no program to measure — {ROOT / 'src'} "
        "does not hold the repro package"
    )
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import system as S  # noqa: E402

# Before numpy loads its BLAS: this process trains the models.
os.environ.update(S.SINGLE_THREADED_BLAS)

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import metrics as M  # noqa: E402
import workloads as W  # noqa: E402
from spans import Recorder, client_span_id, self_times  # noqa: E402

clock = time.perf_counter

WORKLOADS = {
    w.name: w
    for w in (W.PointSOpen(), W.BatchSLib(), W.PlanUPool(), W.MaintainReads())
}
DEFAULT_SECONDS = 12.0
#: set-ups per run, each followed by its share of the measured seconds
SEGMENTS = 3
SMOKE_TRIPLES = 10_000
SMOKE_SECONDS = 1.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def set_up(workload, seed: int, directory: Path,
           triples: Optional[int]) -> S.System:
    return S.set_up(
        triples or workload.triples, workload.train, seed, directory,
        workload.workers,
    )


def reference_framework(system: S.System, snapshot=None, checkpoint=None):
    """The served checkpoint loaded in this process, for output checks;
    (store, framework, snapshot load seconds)."""
    from repro.rdf.store import TripleStore
    from repro.serve import load_checkpoint

    begun = clock()
    store = TripleStore.load_snapshot(snapshot or system.snapshot)
    load_s = clock() - begun
    framework, _artifact = load_checkpoint(
        checkpoint or system.checkpoint, store
    )
    return store, framework, load_s


def reference_frameworks(system: S.System, cycles: List[dict]):
    """generation -> loaded checkpoint, for every generation served
    (a server starts at generation 1)."""
    frameworks = {1: reference_framework(system)[1]}
    for generation, cycle in enumerate(cycles, start=2):
        report = cycle["report"]
        frameworks[generation] = reference_framework(
            system, report["snapshot_dir"], report["checkpoint_dir"]
        )[1]
    return frameworks


# ----------------------------------------------------------------------
# One measured pass over an HTTP workload
# ----------------------------------------------------------------------

class HttpPass:
    """Drive the phases against (host, port), then check what came back."""

    def __init__(self, workload, system: S.System, inputs: W.Inputs,
                 seed: int, host: str, port: int, ids=None, cycle=None,
                 cpu_s=None) -> None:
        from repro.rdf.store import TripleStore

        self.inputs = inputs
        self.loop = None
        if workload.name == M.MAINTAIN:
            live = TripleStore.load_snapshot(system.snapshot, verify=False)
            self.loop = W.MaintainLoop(
                live, system.tmp, seed,
                max(1, round(inputs.phases[0].seconds
                             / workload.seconds_per_cycle)),
                workload.delta_share, cycle,
            )
        self.cpu_begun = 0.0

        def measured_phase_begins() -> None:
            if cpu_s is not None:
                self.cpu_begun = cpu_s()
            if self.loop is not None:
                self.loop.start()

        try:
            self.phases = workload.drive(
                host, port, inputs, ids, measured_phase_begins
            )
        except BaseException:
            if self.loop is not None:
                self.loop.stop.set()
            raise
        finally:
            # Never leave the loop (and the CLI it runs) going behind
            # the caller's back, whichever way the drive ended.
            if self.loop is not None and self.loop.ident is not None:
                self.loop.join()
        if self.loop is not None and self.loop.error is not None:
            raise self.loop.error
        self.cpu_s = cpu_s() - self.cpu_begun if cpu_s is not None else 0.0
        self.checked = W.check_responses(self.phases, inputs)
        if self.loop is not None:
            self._check_generations(host, port)

    def _check_generations(self, host, port) -> None:
        """``generation`` never goes back on a connection, and after the
        last reload the server answers from generation cycles + 1."""
        checked, phase = self.checked, self.phases[0]
        generations = checked.generations[0]
        for slot in np.unique(phase.slot):
            mine = np.flatnonzero((phase.slot == slot) & checked.ok[0])
            order = mine[np.argsort(phase.sent[mine])]
            if (np.diff(generations[order]) < 0).any():
                checked.fail("generation_went_back")
        head, body = self.inputs.requests[0]
        status, raw = loadgen.Connection(host, port).request(head, body)
        expected = len(self.loop.cycles) + 1
        final = json.loads(raw).get("generation") if status == 200 else None
        checked.attempted += 1
        if final != expected:
            checked.fail(f"final_generation_{final}_not_{expected}")

    def truths(self, system: S.System):
        """Exact labels; on the maintained graph, of the generation
        that answered."""
        if self.loop is None:
            return self.inputs.truths
        from repro.rdf.parallel import label_queries
        from repro.rdf.store import TripleStore

        store = TripleStore.load_snapshot(system.snapshot, verify=False)
        truths = list(self.inputs.truths)
        phase, generations = self.phases[0], self.checked.generations[0]
        for generation, delta in enumerate(self.loop.deltas, start=2):
            store.add_all(delta)
            served = np.unique(phase.index[generations == generation])
            labels = label_queries(
                [self.inputs.queries[i][0] for i in served], store=store
            )
            for index, label in zip(served, labels):
                truths[index] = np.array([float(label)])
        return truths


def value(entry) -> float:
    """A ``metrics.steady`` summary's number, or a plain number."""
    return entry["value"] if isinstance(entry, dict) else float(entry)


def as_metrics(values: Dict[str, object], table) -> Dict[str, dict]:
    out = {}
    for name, entry in values.items():
        unit = table[name][0]
        record = {"value": value(entry), "unit": unit}
        if isinstance(entry, dict):
            record.update(median=entry["median"], min=entry["min"],
                          max=entry["max"])
        out[name] = record
    return out


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics against the real program
# ----------------------------------------------------------------------

@dataclass
class Segment:
    """What one measured segment against one set-up brought back."""

    #: phase name -> (loadgen.PhaseResult, mask of good answers)
    phases: Dict[str, tuple]
    cpu_s: float
    answered: int
    peak_rss_mb: float
    model_bytes: int
    errors: np.ndarray
    attempted: int
    failed: int
    reasons: Dict[str, int]
    cycles: List[dict] = field(default_factory=list)
    #: answers that carried generation g but matched g + 1 (see
    #: workloads.check_against_reference)
    answered_by_next_generation: int = 0
    #: the HttpPass / the child's result, for the traced pass
    detail: object = None


def run_end_to_end(workload, seed: int, seconds: float, work: Path,
                   segments: int, triples: Optional[int]) -> dict:
    """Set up *segments* times and measure ``seconds / segments`` against
    each set-up.

    The set-up has to be repeated anyway (``setup_s`` is the median of
    the repeats); measuring a slice after each one spreads the measured
    seconds over the whole run, so a ten-second slow spell of the
    machine cannot cover all of them.
    """
    parts: List[Segment] = []
    stages: List[Dict[str, float]] = []
    inputs = None
    for k in range(segments):
        system = set_up(workload, seed, work / f"setup-{k}", triples)
        try:
            stages.append(dict(system.timings))
            if inputs is None:
                inputs = workload.inputs(system, seed, seconds / segments)
            parts.append(measure(workload, system, inputs, seed, work))
        finally:
            system.close()
    values, reports = summarise(workload, parts, inputs)
    setups = [sum(stage.values()) for stage in stages]
    values["setup_s"] = {
        "value": statistics.median(setups),
        "median": statistics.median(setups),
        "min": min(setups), "max": max(setups),
    }
    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    values["failed_share"] = failed / attempted
    lag = max(
        (r["generator_lag_p99_ms"] for r in reports.values()
         if r["mode"] == "open"),
        default=0.0,
    )
    return {
        "workload": workload.name,
        "trace": 0,
        "seed": seed,
        "seconds": seconds,
        "segments": segments,
        "inputs_sha256": inputs.sha256,
        "attempted": attempted,
        "failed": failed,
        "failure_reasons": merged_reasons(*(p.reasons for p in parts)),
        "correct": failed == 0,
        "valid": lag <= M.MAX_GENERATOR_LAG_MS,
        "metrics": as_metrics(
            {
                name: values[name]
                for name, spec in M.END_TO_END.items()
                if workload.name in spec[3]
            },
            M.END_TO_END,
        ),
        "phases": reports,
        "setup_stages": stages,
        "cycles": [c for p in parts for c in p.cycles],
        "answered_by_next_generation": sum(
            p.answered_by_next_generation for p in parts
        ),
    }


def measure(workload, system, inputs, seed, work, spans=None) -> Segment:
    if workload.name == M.BATCH:
        return measure_library(system, inputs, work, spans)
    return measure_http(workload, system, inputs, seed)


def phase_reports(segments: List[Dict[str, tuple]], inputs: W.Inputs):
    """One report per phase over every segment that ran it."""
    return {
        name: W.phase_report(
            [phases[name] for phases in segments], inputs.queries_per_request
        )
        for name in segments[0]
    }


def summarise(workload, parts: List[Segment], inputs: W.Inputs):
    """(end-to-end values, phase reports) over the measured segments."""
    reports = phase_reports([part.phases for part in parts], inputs)
    errors = np.concatenate([part.errors for part in parts])
    values = workload.read(reports)
    values.update(
        cpu_ms_per_query=M.steady(
            [p.cpu_s * 1e3 / max(p.answered, 1) for p in parts], "lower"
        ),
        peak_rss_mb=max(p.peak_rss_mb for p in parts),
        model_bytes=float(parts[-1].model_bytes),
        **M.q_error_summary(errors),
    )
    cycles = [c["cycle_s"] for p in parts for c in p.cycles]
    if cycles:
        values["maintain_cycle_s"] = M.steady(cycles, "lower")
    return values, reports


def measure_http(workload, system: S.System, inputs: W.Inputs,
                 seed: int) -> Segment:
    server = system.server

    def cli_cycle(live: Path) -> dict:
        report, wall = S.maintain_cli(
            system.maintain_args, live, system.tmp,
            reload_url=server.url + "/admin/reload",
        )
        report["cli_wall_s"] = wall
        server.sample_rss()
        return report

    done = HttpPass(
        workload, system, inputs, seed, server.host, server.port,
        cycle=cli_cycle, cpu_s=server.cpu_s,
    )
    peak_rss_mb = server.sample_rss()
    cycles = done.loop.cycles if done.loop is not None else []
    checkpoint = system.checkpoint
    if cycles:
        checkpoint = Path(cycles[-1]["report"]["checkpoint_dir"])
    model_bytes = S.directory_bytes(checkpoint)
    system.close()
    if workload.reference_check:
        W.check_against_reference(
            done.checked, done.phases, inputs,
            reference_frameworks(system, cycles),
        )
    return Segment(
        phases={
            phase.name: (phase, ok)
            for phase, ok in zip(done.phases, done.checked.ok)
        },
        cpu_s=done.cpu_s,
        answered=inputs.queries_per_request * sum(
            int(ok.sum()) for ok in done.checked.ok
        ),
        peak_rss_mb=peak_rss_mb,
        model_bytes=model_bytes,
        errors=W.served_q_errors(
            done.checked, done.phases, inputs, done.truths(system)
        ),
        attempted=done.checked.attempted,
        failed=done.checked.failed,
        reasons=done.checked.reasons,
        cycles=cycles,
        answered_by_next_generation=done.checked.answered_by_next_generation,
        detail=done,
    )


def measure_library(system: S.System, inputs: W.Inputs, work: Path,
                    spans: Optional[Path] = None) -> Segment:
    """The library workload: a fresh child calls ``estimate_batch``."""
    seconds = inputs.phases[0].seconds
    batches, out = work / "batches.pkl", work / "lib-result.pkl"
    with open(batches, "wb") as handle:
        pickle.dump([body for _head, body in inputs.requests], handle)
    arguments = ["--batches", str(batches), "--seconds", str(seconds),
                 "--out", str(out)]
    if spans is not None:
        arguments += ["--spans", str(spans)]
    S.library_child(system, arguments)
    with open(out, "rb") as handle:
        result = pickle.load(handle)

    _store, framework, _load_s = reference_framework(system)
    calls = np.array(result["calls"], dtype=np.float64)
    ok = np.ones(len(calls), dtype=bool)
    reasons: Dict[str, int] = {}
    if result["mismatched"]:
        reasons["answer_changed_between_calls"] = int(result["mismatched"])
    errors = []
    for index, (batch, truth, answer) in enumerate(zip(
        inputs.queries, inputs.truths, result["answers"]
    )):
        expected = framework.estimate_batch(batch)
        good = (
            answer.shape == (len(batch),)
            and np.isfinite(answer).all() and (answer >= 0).all()
            and np.allclose(answer, expected, rtol=W.REFERENCE_RTOL, atol=0)
        )
        if not good:
            # every call that carried this batch got the wrong answer
            ok &= calls[:, 0] != index
        labelled = ~np.isnan(truth)
        errors.append(M.q_errors(answer[labelled], truth[labelled]))
    if not ok.all():
        reasons["differs_from_library"] = int((~ok).sum())
    begun, ended = calls[:, 1], calls[:, 2]
    phase = loadgen.PhaseResult(
        "batches", "closed", 1, seconds, result["start"],
        calls[:, 0].astype(np.int64), np.zeros(len(calls), dtype=np.int64),
        begun, begun, begun, ended,
        np.where(ok, 200, 0), np.full(len(calls), -1), [],
    )
    failed = min(int((~ok).sum()) + int(result["mismatched"]), len(calls))
    return Segment(
        phases={"batches": (phase, ok)},
        cpu_s=result["cpu_s"],
        answered=int(ok.sum()) * inputs.queries_per_request,
        peak_rss_mb=result["peak_rss_mb"],
        model_bytes=S.directory_bytes(system.checkpoint),
        errors=np.concatenate(errors),
        attempted=len(calls),
        failed=failed,
        reasons=reasons,
        detail=result,
    )


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics from the traced pass
# ----------------------------------------------------------------------

def p50_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def run_traced(workload, seed: int, seconds: float, work: Path,
               triples: Optional[int]) -> dict:
    """Untraced reference pass for half the seconds, traced pass for the
    other half, per-layer metrics from the spans."""
    system = set_up(workload, seed, work / "setup", triples)
    stages = [dict(system.timings)]
    layer = {name: 0.0 for name in M.PER_LAYER}
    span_path = RESULTS / f"spans-{workload.name}.jsonl"
    try:
        inputs = workload.inputs(system, seed, seconds / 2)
        if workload.name == M.BATCH:
            detail = trace_library(workload, system, inputs, work,
                                   span_path, layer)
        else:
            detail = trace_http(workload, system, inputs, seed, span_path,
                                layer)
    finally:
        system.close()
    timings = stages[0]
    for name in ("cli.serve_ready_s", "rdf.store.build_s",
                 "sampling.generate_workload_s", "core.lmkgs.fit_s",
                 "core.lmkgu.fit_s"):
        layer[name] = timings.get(name, 0.0)
    layer["rdf.snapshot.save_ms"] = timings["rdf.snapshot.save_s"] * 1e3
    return {
        "workload": workload.name,
        "trace": 1,
        "seed": seed,
        "seconds": seconds,
        "inputs_sha256": inputs.sha256,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "failure_reasons": detail["reasons"],
        "correct": detail["failed"] == 0,
        "reconciled": detail["reconciled"],
        "unattributed_share": detail["unattributed_share"],
        "metrics": {
            name: {"value": float(layer[name]), "unit": M.PER_LAYER[name][0]}
            for name in M.PER_LAYER
        },
        "spans_file": str(span_path.relative_to(ROOT)),
        "setup_stages": stages,
    }


def label_rate(queries: List, store) -> float:
    """Exact labels per second through the program's public labeler."""
    from repro.rdf.parallel import label_queries

    begun = clock()
    label_queries(queries, store=store)
    return len(queries) / max(clock() - begun, 1e-9)


def throughput(workload, part: Segment, inputs) -> float:
    reports = phase_reports([part.phases], inputs)
    return value(workload.read(reports)["throughput_qps"])


def merged_reasons(*parts) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for reasons in parts:
        for reason, count in reasons.items():
            out[reason] = out.get(reason, 0) + count
    return out


def trace_library(workload, system, inputs, work, span_path, layer) -> dict:
    untraced = measure_library(system, inputs, work)
    traced = measure_library(system, inputs, work, spans=span_path)
    child = traced.detail
    per_call = self_times(child["spans"])
    queries = inputs.queries_per_request

    def per_query_us(name: str) -> float:
        total = sum(t.get(name, 0.0) for t in per_call.values())
        return total * 1e6 / max(len(per_call) * queries, 1)

    layer["core.framework.route_us_per_query"] = per_query_us("core.framework")
    layer["core.lmkgs.featurize_us_per_query"] = per_query_us(
        "core.lmkgs.featurize")
    layer["core.lmkgs.forward_us_per_query"] = per_query_us("core.lmkgs")
    unattributed = [t.get("bench.call", 0.0) for t in per_call.values()]
    whole = [sum(t.values()) for t in per_call.values()]
    layer["core.unattributed_ms"] = p50_ms(unattributed)
    layer["rdf.snapshot.load_ms"] = child["snapshot_load_s"] * 1e3
    layer["rdf.fastcount.label_queries_per_s"] = label_rate(
        [q for q in inputs.queries[0] if q.size <= 3], system.store
    )
    layer["bench.trace_overhead_share"] = (
        throughput(workload, traced, inputs)
        / throughput(workload, untraced, inputs) - 1.0
    )
    share = statistics.median(
        u / w for u, w in zip(unattributed, whole) if w > 0
    )
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "reasons": merged_reasons(untraced.reasons, traced.reasons),
        "reconciled": share <= M.RECONCILE_SHARE,
        "unattributed_share": share,
    }


def trace_http(workload, system, inputs, seed, span_path, layer) -> dict:
    import traced as T

    untraced = measure_http(workload, system, inputs, seed)  # stops the server
    store, framework, load_s = reference_framework(system)
    layer["rdf.snapshot.load_ms"] = load_s * 1e3
    if untraced.cycles:
        # The traced pass carries on from the generation the untraced
        # cycles published last (its server numbers it 1 again).
        report = untraced.cycles[-1]["report"]
        system.snapshot = Path(report["snapshot_dir"])
        system.checkpoint = Path(report["checkpoint_dir"])

    rec = Recorder()
    server = T.TracedServer(
        system.snapshot, system.checkpoint, workload.workers, rec
    )
    maintenance = None
    try:
        if system.state_dir is not None:
            maintenance = T.TracedMaintenance(
                rec, system.state_dir, workload.train, seed,
                server.url + "/admin/reload",
            )
        done = HttpPass(
            workload, system, inputs, seed, server.host, server.port,
            ids=itertools.count(1), cycle=maintenance,
        )
        stats = server.stats()
    finally:
        server.close()
        if maintenance is not None:
            maintenance.close()
    # The client's view of every request (send -> reply read) is the
    # root its server-side spans hang under; what it does not cover
    # with them is the request's unattributed time.
    for phase in done.phases:
        for request_id, sent, read in zip(
            phase.request_ids.tolist(), phase.sent, phase.done
        ):
            rec.add("bench.client", float(sent), float(read), request_id,
                    span_id=client_span_id(request_id))
    rec.write(span_path)

    # -- per request, on the phase the latency metrics are read from ---
    primary = {M.POINT: "rate_900", M.PLAN: "closed", M.MAINTAIN: "reads"}
    by_owner = self_times(rec.spans, rec.links)

    def phase_requests(name: str):
        """(self times, client round trip) of the phase's requests."""
        phase = next(p for p in done.phases if p.name == name)
        return [
            (by_owner[r], sum(by_owner[r].values()))
            for r in phase.request_ids.tolist()
        ]

    rows = phase_requests(primary[workload.name])

    def p50_of(rows, *names: str) -> float:
        return statistics.median(
            sum(t.get(n, 0.0) for n in names) for t, _rtt in rows
        ) if rows else 0.0

    layer["serve.http.self_ms"] = 1e3 * p50_of(
        rows, "serve.http.parse_request", "serve.http.do_POST")
    layer["serve.service.parse_ms"] = 1e3 * p50_of(rows, "serve.service.parse")
    layer["serve.admission.admit_us"] = 1e6 * p50_of(
        rows, "serve.admission.admit")
    layer["serve.backend.self_us"] = 1e6 * p50_of(rows, "serve.backend")
    wait_rows = (
        phase_requests("rate_300") if workload.name == M.POINT else rows
    )
    layer["serve.scheduler.wait_ms"] = 1e3 * p50_of(
        wait_rows, "serve.scheduler.submit")
    layer["serve.unattributed_ms"] = 1e3 * p50_of(rows, "bench.client")
    unattributed_share = statistics.median(
        t["bench.client"] / rtt for t, rtt in rows
    )

    parsed = sum(t.get("rdf.parser.parse", 0.0) for t, _r in rows)
    layer["rdf.parser.parse_us_per_query"] = (
        parsed * 1e6 / max(len(rows) * inputs.queries_per_request, 1)
    )
    layer["serve.scheduler.batch_width_mean"] = (
        statistics.fmean(server.batch_widths) if server.batch_widths else 0.0
    )
    batches = {k: t for k, t in by_owner.items()
               if isinstance(k, str) and k.startswith("b")}
    batch_queries = max(sum(server.batch_widths), 1)
    if workload.workers > 1:
        layer["serve.pool.roundtrip_ms"] = p50_ms(
            [t["serve.pool.roundtrip"] for t in batches.values()
             if "serve.pool.roundtrip" in t]
        )
        replay_rec = Recorder()
        counts: Dict[str, int] = {}
        sample = [inputs.queries[i] for i in
                  np.unique(done.phases[0].index)[:64]]
        replay = T.replay_in_process(
            framework, sample, workload.workers, replay_rec, counts
        )
        layer["serve.pool.overhead_ms"] = (
            layer["serve.pool.roundtrip_ms"]
            - p50_ms(replay["slowest_chunk_s"])
        )
        layer["serve.pool.pickle_bytes_per_query"] = replay[
            "pickle_bytes_per_query"]
        core = self_times(replay_rec.spans)
        core_queries = replay["queries"]
        layer["nn.masked.head_rows_per_query"] = (
            counts.get("head_rows", 0) / max(core_queries, 1)
        )
        for name in ("begin_sweep", "assign", "head_lse", "head_gumbel",
                     "head_sample"):
            layer[f"nn.masked.{name}_ms"] = p50_ms(
                [t.get(f"nn.masked.{name}", 0.0) for t in core.values()]
            )
        layer["core.lmkgu.self_ms_per_request"] = p50_ms(
            [t.get("core.lmkgu", 0.0) for t in core.values()]
        )
    else:
        core, core_queries = batches, batch_queries

    def core_us_per_query(name: str) -> float:
        return sum(t.get(name, 0.0) for t in core.values()) * 1e6 / max(
            core_queries, 1)

    layer["core.framework.route_us_per_query"] = core_us_per_query(
        "core.framework")
    layer["core.lmkgs.featurize_us_per_query"] = core_us_per_query(
        "core.lmkgs.featurize")
    layer["core.lmkgs.forward_us_per_query"] = core_us_per_query("core.lmkgs")

    layer["rdf.fastcount.label_queries_per_s"] = label_rate(
        [q for group in inputs.queries[:2000] for q in group][:2000], store
    )
    layer["serve.shed_count"] = float(
        untraced.detail.checked.shed + done.checked.shed
        + stats.get("rejected", 0)
    )
    layer["serve.degraded_count"] = float(
        untraced.detail.checked.degraded + done.checked.degraded
    )
    before_reports = phase_reports([untraced.phases], inputs)
    after_reports = phase_reports(
        [{p.name: (p, ok) for p, ok in zip(done.phases, done.checked.ok)}],
        inputs,
    )
    before = workload.read(before_reports)
    after = workload.read(after_reports)
    layer["bench.generator_lag_p99_ms"] = max(
        (r["generator_lag_p99_ms"]
         for r in (*before_reports.values(), *after_reports.values())
         if r["mode"] == "open"),
        default=0.0,
    )
    if workload.name == M.MAINTAIN:
        # An open loop answers what it is offered either way; compare
        # the median latency instead (negative = the traced pass is
        # slower, as with throughput).
        layer["bench.trace_overhead_share"] = (
            value(before["latency_p50_ms"]) / value(after["latency_p50_ms"])
            - 1.0
        )
        trace_maintain(untraced, done, system, workload, rec, server, layer)
    else:
        layer["bench.trace_overhead_share"] = (
            value(after["throughput_qps"]) / value(before["throughput_qps"])
            - 1.0
        )
    return {
        "attempted": untraced.attempted + done.checked.attempted,
        "failed": untraced.failed + done.checked.failed,
        "reasons": merged_reasons(untraced.reasons, done.checked.reasons),
        "reconciled": unattributed_share <= M.RECONCILE_SHARE,
        "unattributed_share": unattributed_share,
    }


def trace_maintain(untraced, done, system, workload, rec, server, layer):
    """The ``maintain.*`` split of the in-process cycles, plus what the
    CLI cycles of the untraced pass add on top."""
    cycles = {
        k: t for k, t in self_times(rec.spans).items()
        if isinstance(k, str) and k.startswith("cycle")
    }
    for stage in ("plan", "relabel", "finetune", "publish"):
        layer[f"maintain.{stage}_s"] = statistics.median(
            t.get(f"maintain.{stage}", 0.0) for t in cycles.values()
        ) if cycles else 0.0
    layer["serve.reload.swap_s"] = (
        statistics.median(server.reload_s) if server.reload_s else 0.0
    )
    # maintain.cycle's own self time still holds the reload POST it
    # waited for; what is left after that has no name.
    layer["maintain.unattributed_ms"] = 1e3 * max(
        statistics.median(
            t.get("maintain.cycle", 0.0) for t in cycles.values()
        ) - layer["serve.reload.swap_s"], 0.0,
    ) if cycles else 0.0
    loops = untraced.cycles + done.loop.cycles
    total = workload.train.queries_per_shape * len(workload.train.shapes)
    relabeled = [
        sum(c["report"]["relabeled"].values()) / total for c in loops
    ]
    layer["maintain.relabeled_share"] = (
        statistics.median(relabeled) if relabeled else 0.0
    )
    layer["rdf.store.add_all_triples_per_s"] = statistics.median(
        c["delta_triples"] / max(c["add_all_s"], 1e-9) for c in loops
    ) if loops else 0.0
    startup = [system.maintain_startup_s] + [
        c["report"]["cli_wall_s"] - c["report"]["seconds"]
        for c in untraced.cycles
    ]
    layer["cli.maintain_startup_s"] = statistics.median(startup)


# ----------------------------------------------------------------------
# Machine facts, history, output
# ----------------------------------------------------------------------

def machine_facts() -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = {
            k: config["Build Dependencies"]["blas"].get(k)
            for k in ("name", "version", "openblas configuration")
        }
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": loadgen.usable_cpus(),
        "connection_cap": loadgen.connection_cap(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
        "git_commit": commit,
    }


def print_table(result: dict) -> None:
    table = M.PER_LAYER if result["trace"] else M.END_TO_END
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  seconds={result['seconds']:g}  "
          f"wall={result['wall_s']:.1f}s ==")
    for name, entry in result["metrics"].items():
        extra = ""
        if "min" in entry:
            extra = (f"   [median {entry['median']:.4g}  min "
                     f"{entry['min']:.4g}  max {entry['max']:.4g}]")
        if result["trace"]:
            extra += f"   -> {table[name][2]}"
        else:
            extra += f"   ({table[name][1]} is better, bound "
            extra += f"{table[name][2]:.0%})"
        print(f"  {name:38s} {entry['value']:14.6g} {entry['unit']:6s}{extra}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}"
          + (f" valid={result['valid']}" if "valid" in result else "")
          + (f" reconciled={result['reconciled']} (unattributed "
             f"{result['unattributed_share']:.1%})"
             if "reconciled" in result else ""))


def run_one(workload, seed: int, seconds: float, trace: int,
            segments: int, triples: Optional[int]) -> dict:
    work = S.fresh_workdir(f"{workload.name}-{seed}-{trace}")
    # Temporary files of this process (multiprocessing, the traced
    # in-process server) stay inside the checkout as well.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    begun = clock()
    try:
        if trace:
            result = run_traced(workload, seed, seconds, work, triples)
        else:
            result = run_end_to_end(
                workload, seed, seconds, work, segments, triples
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["wall_s"] = clock() - begun
    return result


def contract_line(result: dict) -> str:
    """The driver's one-line result of a single run."""
    wanted = M.PER_LAYER if result["trace"] else M.CONTRACT_END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"],
                   "unit": result["metrics"][name]["unit"]}
            for name in wanted
        },
    })


def check_benchmark_json() -> List[str]:
    """BENCHMARK.json must list exactly what this code emits."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = M.benchmark_json_lists()
    problems = []
    if declared["end_to_end"] != end_to_end:
        problems.append("end_to_end differs from metrics.END_TO_END")
    if declared["per_layer"] != per_layer:
        problems.append("per_layer differs from metrics.PER_LAYER")
    names = [w["name"] for w in declared["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"workloads {names} != {list(WORKLOADS)}")
    return problems


def main() -> int:
    """Run, and leave no process behind on any path out."""
    def terminated(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    S.adopt_orphans()
    try:
        return run()
    finally:
        left = S.end_descendants()
        if left:
            print(f"benchmarks/e2e/run.py: processes {left} did not end",
                  file=sys.stderr)


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1,
                        help="whole runs (set-up included) per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, metric name and check on a "
                             "10k-triple graph with 2 s phases")
    parser.add_argument("--out", type=Path, default=RESULTS,
                        help="directory the run's result file is written to")
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.smoke or (args.trace and args.workload == "all") \
        else [args.trace]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    triples = SMOKE_TRIPLES if args.smoke else None
    segments = 1 if args.smoke else SEGMENTS

    begun = clock()
    results = []
    for name in names:
        for trace in traces:
            for _ in range(1 if trace else args.repeats):
                result = run_one(WORKLOADS[name], args.seed, seconds, trace,
                                 segments, triples)
                print_table(result)
                results.append(result)

    problems = check_benchmark_json() if args.smoke else []
    for result in results:
        wanted = set(M.PER_LAYER) if result["trace"] else {
            n for n, spec in M.END_TO_END.items()
            if result["workload"] in spec[3]
        }
        if set(result["metrics"]) != wanted:
            problems.append(f"{result['workload']}: metric names differ")
        if not all(math.isfinite(e["value"])
                   for e in result["metrics"].values()):
            problems.append(f"{result['workload']}: non-finite metric")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S.%fZ")
    record = {
        "stamp": stamp,
        "machine": machine_facts(),
        "smoke": args.smoke,
        "wall_s": clock() - begun,
        "runs": results,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"run-{stamp}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    with open(args.out / "history.jsonl", "a") as handle:
        handle.write(json.dumps({
            "stamp": stamp,
            "git_commit": record["machine"]["git_commit"],
            "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
            "usable_cpus": record["machine"]["usable_cpus"],
            "runs": [
                {"workload": r["workload"], "trace": r["trace"],
                 "wall_s": round(r["wall_s"], 2), "correct": r["correct"],
                 "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                for r in results
            ],
        }, default=float) + "\n")
    print(f"\nresult written to {args.out / f'run-{stamp}.json'} "
          f"({clock() - begun:.1f}s)")
    if len(results) == 1:
        print(contract_line(results[0]))
    # A run that printed its result line exits 0 — ``correct`` carries
    # the verdict for the driver; the self-test and the full report
    # also fail the command.
    if problems or (len(names) > 1 and not all(r["correct"] for r in results)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
