"""Counters of a supervised run (:class:`RecoveryStats`).

Timing lives elsewhere: the paper's figures are measured by the one
estimator in :mod:`repro.experiments.estimate`, the repository benchmark
by ``benchmarks/e2e``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from ..core.tracing import SpanStats, Tracer

__all__ = [
    "RecoveryStats",
    # Observability (re-exported; defined in repro.core.tracing so the
    # core package stays free of runtime imports).
    "Tracer",
    "SpanStats",
]


class RecoveryStats:
    """Counters for supervised (checkpoint-and-replay) execution.

    Filled in by :class:`repro.runtime.recovery.SupervisedPipeline`:
    how often the pipeline restarted, how much of the stream had to be
    replayed, how many re-emitted results the exactly-once dedup
    suppressed, and how long each recovery took (restore + rewind, not
    counting the replay itself, which is ordinary processing).
    """

    __slots__ = (
        "restarts",
        "source_retries",
        "checkpoints_taken",
        "replayed_elements",
        "replayed_records",
        "deduped_results",
        "results_emitted",
        "late_records",
        "quarantined_records",
        "store_fallbacks",
        "resumed_from_cursor",
        "recovery_seconds",
    )

    def __init__(self) -> None:
        self.restarts = 0
        self.source_retries = 0
        self.checkpoints_taken = 0
        self.replayed_elements = 0
        self.replayed_records = 0
        self.deduped_results = 0
        self.results_emitted = 0
        self.late_records = 0
        # Poison records the DeadLetterQueue pulled out of the stream.
        self.quarantined_records = 0
        # Corrupt newer generations skipped on restore (durable stores).
        self.store_fallbacks = 0
        # Cursor a resume=True run continued from; None for fresh runs.
        self.resumed_from_cursor: int | None = None
        self.recovery_seconds: List[float] = []

    def record_recovery(self, seconds: float, elements: int, records: int) -> None:
        """Account one restore-and-rewind cycle."""
        self.restarts += 1
        self.recovery_seconds.append(seconds)
        self.replayed_elements += elements
        self.replayed_records += records

    @property
    def total_recovery_seconds(self) -> float:
        return sum(self.recovery_seconds)

    @property
    def mean_recovery_seconds(self) -> float:
        if not self.recovery_seconds:
            return 0.0
        return statistics.fmean(self.recovery_seconds)

    def summary(self) -> Dict[str, float]:
        """Flat dict for result tables and logs."""
        return {
            "restarts": self.restarts,
            "source_retries": self.source_retries,
            "checkpoints_taken": self.checkpoints_taken,
            "replayed_elements": self.replayed_elements,
            "replayed_records": self.replayed_records,
            "deduped_results": self.deduped_results,
            "results_emitted": self.results_emitted,
            "late_records": self.late_records,
            "quarantined_records": self.quarantined_records,
            "store_fallbacks": self.store_fallbacks,
            "mean_recovery_seconds": self.mean_recovery_seconds,
            "total_recovery_seconds": self.total_recovery_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RecoveryStats(restarts={self.restarts}, "
            f"checkpoints={self.checkpoints_taken}, "
            f"replayed={self.replayed_records} records, "
            f"deduped={self.deduped_results}, "
            f"recovery={self.total_recovery_seconds * 1000:.1f}ms)"
        )
