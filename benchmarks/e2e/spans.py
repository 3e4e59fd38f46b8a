"""In-memory span recorder for the traced benchmark pass.

The benchmark measures layers from outside the program: it wraps the
bound callables at each layer boundary (``service.parse_queries``,
``scheduler.submit_with_meta``, ``framework.estimate_batch``, ...) and
records one span per call — name, start, end, the span that caused it,
and the request it served.  Spans stay in memory and are written out as
JSON lines when the pass ends.

Two kinds of owner exist.  A span recorded on a handler thread belongs
to one request (``request`` = its id).  A span recorded on the
scheduler thread belongs to a *batch* that answers several requests at
once (``request`` = ``"b<k>"``); ``Recorder.link`` remembers which
batch answered which request so the analysis can hang the batch's
spans under each member request's ``submit`` span — every member waits
for the whole batch, so every member is charged the whole batch.

A span's **self time** is its duration minus the part of its interval
that its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

clock = time.perf_counter


class Recorder:
    """Collects spans; thread-safe by appending tuples to one list."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, owner)
        self.spans: List[tuple] = []
        #: request id -> batch owner that answered it
        self.links: Dict[object, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic in CPython

    # -- the thread's current position in the span tree ----------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def owner(self):
        """The request/batch the calling thread is working for."""
        return getattr(self._local, "owner", None)

    @owner.setter
    def owner(self, value) -> None:
        self._local.owner = value
        self._local.root = None

    def serve_request(self, request_id) -> None:
        """The calling thread now works for a client request; its
        top-level spans hang under that request's client span, which
        the load generator's timestamps fill in afterwards."""
        self._local.owner = request_id
        self._local.root = (
            client_span_id(request_id) if request_id is not None else None
        )

    def link(self, request, batch: str) -> None:
        self.links[request] = batch

    # -- recording -----------------------------------------------------

    def add(
        self, name: str, start: float, end: float, owner=None, parent=None,
        span_id: Optional[int] = None,
    ) -> None:
        """Record a finished span measured by the caller."""
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, owner))

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        stack.append(span_id)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.owner)
            )

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* with every call recorded as a span called *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_attr(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with its traced form (instance or module
        attribute; the class and the source file stay untouched)."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, owner in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": owner,
                }
                batch = self.links.get(owner)
                if batch is not None and name == "serve.scheduler.submit":
                    record["batch"] = batch
                handle.write(json.dumps(record) + "\n")


def client_span_id(request_id: int) -> int:
    """Span id of the client's view of a request: known to both sides
    before either has recorded anything (recorder ids are positive)."""
    return -int(request_id)


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of *intervals*."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(
    spans: List[tuple], links: Optional[Dict[object, str]] = None
) -> Dict[object, Dict[str, float]]:
    """Per owner: span name -> summed self time (seconds).

    With *links*, each batch's spans are also charged to every request
    the batch answered: the batch's root spans become children of that
    request's ``serve.scheduler.submit`` span.
    """
    by_owner: Dict[object, list] = {}
    for span in spans:
        by_owner.setdefault(span[5], []).append(span)
    out: Dict[object, Dict[str, float]] = {}
    for owner, own in by_owner.items():
        if owner is None:
            continue
        tree = list(own)
        batch = (links or {}).get(owner)
        if batch is not None:
            submit = next(
                (s for s in own if s[1] == "serve.scheduler.submit"), None
            )
            for span in by_owner.get(batch, ()):
                if span[4] is None and submit is not None:
                    span = span[:4] + (submit[0],) + span[5:]
                tree.append(span)
        children: Dict[int, list] = {}
        for span in tree:
            if span[4] is not None:
                children.setdefault(span[4], []).append(
                    (span[2], span[3])
                )
        totals: Dict[str, float] = {}
        for span_id, name, start, end, _parent, _owner in tree:
            own_time = (end - start) - _covered(
                children.get(span_id, ()), start, end
            )
            totals[name] = totals.get(name, 0.0) + own_time
        out[owner] = totals
    return out
