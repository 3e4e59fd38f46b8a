"""Compare two sets of benchmark runs, or show the spread of one.

    python3 benchmarks/e2e/compare.py A/ B/     # A = parent, B = change
    python3 benchmarks/e2e/compare.py A/        # run-to-run spread of A

A set is a directory of ``run-*.json`` files written by ``run.py
--out``; every untraced run of a workload in it is one sample.  One row
is printed per workload x end-to-end metric with each side's median and
quartiles, the metric's bound, and a verdict:

- ``better`` / ``worse`` — the medians differ by more than the bound;
- ``unchanged`` — they do not;
- ``unresolved`` — the run-to-run spread (Q3 - Q1 over the median, the
  wider side) exceeds the bound and the two sides overlap, so the runs
  made cannot tell.

Runs whose ``inputs_sha256`` differ are not compared: the workload
itself changed, and the tool says so and exits 2.  Any ``worse`` exits
1.  With one directory the spread of every metric is set against a
third of its bound, the steadiness the benchmark asks of itself.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as M  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]


def load_set(directory: Path) -> Tuple[Samples, Dict[str, set]]:
    """(workload, metric) -> values, and workload -> input digests."""
    samples: Samples = {}
    digests: Dict[str, set] = {}
    files = sorted(directory.glob("run-*.json"))
    if not files:
        sys.exit(f"compare: no run-*.json under {directory}")
    for path in files:
        for run in json.loads(path.read_text())["runs"]:
            if run["trace"]:
                continue
            key = (run["seed"], run["seconds"], run["inputs_sha256"])
            digests.setdefault(run["workload"], set()).add(key)
            for name, entry in run["metrics"].items():
                samples.setdefault((run["workload"], name), []).append(
                    float(entry["value"])
                )
    return samples, digests


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(name: str, parent: float, change: float) -> float:
    """Relative change of the median, positive when it got worse."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if M.END_TO_END[name][1] == "lower" else -delta


def verdict(name: str, a: List[float], b: List[float]) -> str:
    bound = M.END_TO_END[name][2]
    lower = M.END_TO_END[name][1] == "lower"
    spread = max(M.quartile_spread(a), M.quartile_spread(b))
    if spread > bound:
        # Too noisy for the medians to speak: only a clean separation
        # of every run of one side from every run of the other counts.
        if max(b) < min(a) or min(b) > max(a):
            return "better" if (max(b) < min(a)) == lower else "worse"
        return "unresolved"
    change = worse_by(name, statistics.median(a), statistics.median(b))
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def show_spread(directory: Path) -> int:
    samples, _digests = load_set(directory)
    print(f"{'workload':16s} {'metric':24s} {'n':>3s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}  steady (spread <= bound/3)")
    unsteady = 0
    for (workload, name), values in samples.items():
        bound = M.END_TO_END[name][2]
        spread = M.quartile_spread(values)
        steady = spread <= bound / 3 or name == "setup_s"
        unsteady += not steady
        print(f"{workload:16s} {name:24s} {len(values):3d} "
              f"{statistics.median(values):12.5g} {spread:8.2%} "
              f"{bound:6.0%}  {'yes' if steady else 'NO'}")
    return 1 if unsteady else 0


def compare(parent: Path, change: Path) -> int:
    a, a_digests = load_set(parent)
    b, b_digests = load_set(change)
    for workload in sorted(set(a_digests) & set(b_digests)):
        if a_digests[workload] != b_digests[workload]:
            print(f"compare: {workload}: the two sets ran different inputs "
                  "(seed, seconds or inputs_sha256 differ); refusing to "
                  "compare them")
            return 2
    print(f"{'workload':16s} {'metric':24s} "
          f"{'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    worst = 0
    for key in a:
        if key not in b:
            continue
        workload, name = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        result = verdict(name, a[key], b[key])
        worst |= result == "worse"
        change_by = worse_by(name, qa[1], qb[1])
        print(f"{workload:16s} {name:24s} "
              f"{qa[0]:10.4g}/{qa[1]:10.4g}/{qa[2]:10.4g} "
              f"{qb[0]:10.4g}/{qb[1]:10.4g}/{qb[2]:10.4g} "
              f"{change_by:+9.2%} {M.END_TO_END[name][2]:6.0%}  {result}")
    return 1 if worst else 0


def main() -> int:
    if len(sys.argv) == 2:
        return show_spread(Path(sys.argv[1]))
    if len(sys.argv) == 3:
        return compare(Path(sys.argv[1]), Path(sys.argv[2]))
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
