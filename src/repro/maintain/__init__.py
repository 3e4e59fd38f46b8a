"""Incremental model maintenance: track a mutating graph without refits.

The dbt incremental-materialization idiom applied to learned
cardinality estimation: the first :class:`MaintenanceRunner` run
materializes everything (labelled workload, trained framework,
versioned checkpoint artifact, high-water mark); every later run
computes only the delta above the last watermark and merges it —
relabel only the affected training queries, fine-tune only the touched
models from their float64 checkpoint masters, publish a new versioned
artifact, and (optionally) trigger the serving layer's zero-downtime
``/admin/reload``.

Modules:

- :mod:`repro.maintain.watermark`  — the persisted high-water mark,
- :mod:`repro.maintain.freshness`  — dbt-sources-style max-staleness
  thresholds (pass/warn/error) for ``/healthz``,
- :mod:`repro.maintain.planner`    — delta triples → stale shapes and
  model keys through the store's array-native backend accessors,
- :mod:`repro.maintain.relabel`    — incremental relabel + merge of the
  labelled workload materialization,
- :mod:`repro.maintain.finetune`   — few-epoch fine-tuning of touched
  models from their bit-exact float64 masters,
- :mod:`repro.maintain.runner`     — the orchestrator behind
  ``repro maintain run/status``,
- :mod:`repro.maintain.gc`         — retire old ``gen-NNNN``
  generations (``repro maintain gc --keep N``), never the live/base
  one.
"""

from repro.maintain.freshness import (
    FRESHNESS_ERROR,
    FRESHNESS_PASS,
    FRESHNESS_UNKNOWN,
    FRESHNESS_WARN,
    FreshnessPolicy,
    FreshnessStatus,
    check_freshness,
)
from repro.maintain.gc import (
    GCError,
    GCReport,
    gc_generations,
    list_generations,
)
from repro.maintain.planner import MaintenancePlan, plan_maintenance
from repro.maintain.relabel import (
    affected_mask,
    relabel_records,
)
from repro.maintain.runner import (
    MaintenanceError,
    MaintenanceReport,
    MaintenanceRunner,
)
from repro.maintain.watermark import (
    WATERMARK_FILENAME,
    Watermark,
    WatermarkError,
    read_watermark,
    write_watermark,
)

__all__ = [
    "FRESHNESS_ERROR",
    "FRESHNESS_PASS",
    "FRESHNESS_UNKNOWN",
    "FRESHNESS_WARN",
    "FreshnessPolicy",
    "FreshnessStatus",
    "GCError",
    "GCReport",
    "MaintenanceError",
    "MaintenancePlan",
    "MaintenanceReport",
    "MaintenanceRunner",
    "WATERMARK_FILENAME",
    "Watermark",
    "WatermarkError",
    "affected_mask",
    "check_freshness",
    "gc_generations",
    "list_generations",
    "plan_maintenance",
    "read_watermark",
    "relabel_records",
    "write_watermark",
]
