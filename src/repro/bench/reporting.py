"""Table and series printers for benchmark output.

Every bench prints rows in the same layout the paper's tables/figures
use, so paper-vs-measured comparison is line-by-line.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-2:
            return f"{value:.2e}"
        return f"{value:.2f}"
    return str(value)


def print_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> None:
    print()
    print(format_table(headers, rows, title=title))
    print()


def write_json(path, payload: dict) -> None:
    """Persist a benchmark result dict as pretty-printed JSON.

    Used by the throughput benches (``BENCH_store.json``) so successive
    runs leave a machine-readable perf trajectory next to the text
    tables.
    """
    import json
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def merge_json(path, sections: dict) -> dict:
    """Merge *sections* into the JSON result file at *path*.

    Top-level keys in *sections* replace the same keys in the existing
    file; all other sections survive.  This is how independent benches
    (`bench_store_throughput`, `bench_ext_adaptivity`, the maintenance
    bench) share one ``BENCH_store.json`` without clobbering each
    other's numbers.  Returns the merged payload.
    """
    import json
    from pathlib import Path

    path = Path(path)
    merged: dict = {}
    if path.is_file():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            merged.update(existing)
    merged.update(sections)
    write_json(path, merged)
    return merged


def append_history(path, sections: dict) -> None:
    """Append one run's *sections* as a line of the JSONL file at *path*.

    The result file :func:`merge_json` maintains holds the latest run of
    every section; the history beside it keeps every run, stamped with
    the UTC time it was recorded and the :func:`machine_facts` of the
    machine it ran on, so a trend is a series of lines and a line that
    moved because the machine did can be told apart.
    """
    import json
    from datetime import datetime, timezone
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = {
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_facts(),
        "sections": sections,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def machine_facts() -> dict:
    """CPU budget, architecture, versions and BLAS thread pins of this run."""
    import os
    import platform

    import numpy as np

    from repro.rdf.parallel import available_cpus

    return {
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {
            name: os.environ.get(name)
            for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
            )
        },
    }


def format_bytes(num_bytes: int) -> str:
    """Human-readable size like the paper's Table II (KB/MB)."""
    if num_bytes >= 1_000_000:
        return f"{num_bytes / 1_000_000:.1f}MB"
    if num_bytes >= 1_000:
        return f"{num_bytes / 1_000:.1f}KB"
    return f"{num_bytes}B"
