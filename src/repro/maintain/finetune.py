"""Fine-tune only the touched models from their checkpoint masters.

The refit-avoidance half of the maintenance loop: the framework is
loaded from its last checkpoint (its float64 master weights restored
bit-exactly) against the *live* store with the triple-count gate
relaxed (``LMKG.load(..., allow_stale_store=True)``), and only the
models whose grouping keys the planner marked stale train a few more
epochs — LMKG-S on the relabelled queries of its group, LMKG-U on
fresh bound instances sampled from the mutated graph (which also
refreshes its shape-universe factor).  Untouched models keep their
exact checkpoint weights; their fused float32 inference caches rebuild
lazily and the optimizers' parameter-version bumps invalidate the
caches of the models that did move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence

from repro.core.framework import LMKG
from repro.core.lmkg_u import LMKGU
from repro.sampling.workload import QueryRecord

#: few epochs — the maintenance default; a delta worth more training
#: than this is usually also worth a full rebuild
DEFAULT_FINETUNE_EPOCHS = 2


@dataclass
class FinetuneReport:
    """Which models moved and on how much data."""

    #: per stale key: "lmkg-s" / "lmkg-u"
    kinds: Dict[Hashable, str] = field(default_factory=dict)
    #: per stale key: training records (LMKG-S) or samples (LMKG-U)
    records: Dict[Hashable, int] = field(default_factory=dict)
    epochs: int = DEFAULT_FINETUNE_EPOCHS
    #: stale keys with no loaded model (shape never trained) — skipped
    missing: List[Hashable] = field(default_factory=list)

    def to_dict(self) -> dict:
        def render(key: Hashable):
            return "_".join(map(str, key)) if isinstance(
                key, tuple
            ) else str(key)

        return {
            "epochs": self.epochs,
            "models": {
                render(key): {
                    "kind": kind,
                    "records": self.records.get(key, 0),
                }
                for key, kind in self.kinds.items()
            },
            "missing": [render(k) for k in self.missing],
        }


def finetune_models(
    framework: LMKG,
    stale_keys: Sequence[Hashable],
    records: Sequence[QueryRecord],
    epochs: int = DEFAULT_FINETUNE_EPOCHS,
) -> FinetuneReport:
    """Fine-tune the models behind *stale_keys*, leave the rest alone.

    *records* is the full merged (already relabelled) materialization;
    it is partitioned under the framework's own grouping so each
    supervised model sees exactly the group it was trained on —
    including the unaffected queries, whose unchanged labels anchor the
    fine-tune against drift on the parts of the distribution the delta
    did not touch.
    """
    report = FinetuneReport(epochs=epochs)
    groups = framework.grouping.partition(list(records))
    for key in stale_keys:
        model = framework.models.get(key)
        if model is None:
            report.missing.append(key)
            continue
        if isinstance(model, LMKGU):
            model.finetune(epochs=epochs)
            report.kinds[key] = "lmkg-u"
            report.records[key] = model.config.training_samples
        else:
            group = groups.get(key, [])
            if not group:
                report.missing.append(key)
                continue
            model.finetune(group, epochs=epochs)
            report.kinds[key] = "lmkg-s"
            report.records[key] = len(group)
    return report
