"""Child process of the ``batch_s_lib`` workload.

Started fresh by ``run.py`` so the library path is measured the way an
optimizer embedding it pays for it: load the snapshot and checkpoint,
then call ``LMKG.estimate_batch`` from one thread on pre-parsed
batches for the given number of seconds.  Results go to a pickle the
parent reads; with ``--spans`` the calls are traced as well.  Without
``--batches`` it exits once loaded: that is the library's "ready", the
last stage of this workload's set-up.
"""

from __future__ import annotations

import argparse
import pickle
import re
import sys
import time
from pathlib import Path

import numpy as np

clock = time.perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--batches", help="omitted: load, then exit")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.rdf.store import TripleStore
    from repro.serve import load_checkpoint

    begun = clock()
    store = TripleStore.load_snapshot(args.snapshot)
    snapshot_load_s = clock() - begun
    begun = clock()
    framework, _artifact = load_checkpoint(args.checkpoint, store)
    checkpoint_load_s = clock() - begun
    if args.batches is None:
        return 0  # set-up only wanted to know how long "ready" takes
    with open(args.batches, "rb") as handle:
        batches = [pickle.loads(blob) for blob in pickle.load(handle)]

    rec = None
    if args.spans:
        from spans import Recorder
        from traced import trace_framework

        rec = Recorder()
        trace_framework(framework, rec, {})

    # One pass over the distinct batches warms every lazy cache and
    # yields the answers the parent checks.
    answers = [framework.estimate_batch(batch) for batch in batches]

    calls = []
    mismatched = 0
    cpu_begun = time.process_time()
    start = clock()
    deadline = start + args.seconds
    for k in range(1 << 40):
        begun = clock()
        if begun >= deadline:
            break
        index = k % len(batches)
        if rec is not None:
            rec.owner = k
            with rec.span("bench.call"):
                values = framework.estimate_batch(batches[index])
            rec.owner = None
        else:
            values = framework.estimate_batch(batches[index])
        ended = clock()
        calls.append((index, begun, ended))
        mismatched += not np.array_equal(values, answers[index])
    cpu_s = time.process_time() - cpu_begun

    status = Path("/proc/self/status").read_text()
    peak_kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
    result = {
        "start": start,
        "calls": calls,
        "answers": answers,
        "mismatched": mismatched,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "snapshot_load_s": snapshot_load_s,
        "checkpoint_load_s": checkpoint_load_s,
    }
    if rec is not None:
        result["spans"] = rec.spans
        rec.write(Path(args.spans))
    with open(args.out, "wb") as handle:
        pickle.dump(result, handle, protocol=4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
