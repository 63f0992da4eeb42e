"""Runtime observability: counters and spans for the slicing hot paths.

The paper's argument is quantitative -- which technique is fast, and
*why*.  The why is invisible from throughput numbers alone: it lives in
how many slices the slicer cut, how many merges the slice manager
performed, how many FlatFAT nodes an eager update touched, which kernel
absorbed the slice traffic (``kernel.appends`` / ``kernel.evictions``)
and how often overlapping windows reused a shared partial
(``share.hits``).  This module makes those visible without making them
expensive.

Design rules
------------

* **Disabled tracing is the absence of a tracer.**  Every instrumented
  component holds a ``tracer`` attribute that is ``None`` by default;
  the hot-path guard is a single ``if tracer is not None`` identity
  check, there is no no-op object whose method calls would still pay
  Python's dispatch cost, and no counter storage is allocated until a
  tracer is attached (:func:`WindowOperator.enable_tracing`).
* **Counters are plain dict entries**, created on first increment.  The
  counter names form a small stable glossary (see
  ``docs/observability.md``); components never pre-register names, so
  a snapshot contains exactly the events that actually happened.
* **Spans are for coarse phases** (a checkpoint, a batch, a restore),
  never for per-record work: a span costs two clock reads.

Example::

    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    tracer = operator.enable_tracing()
    operator.run(stream)
    tracer.value("slicer.slices_created")   # -> e.g. 12
    tracer.snapshot()                        # JSON-ready dict
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List

__all__ = ["Tracer", "SpanStats"]


class SpanStats:
    """Accumulated timing of one named span: call count + total time."""

    __slots__ = ("calls", "total_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "total_ns": self.total_ns}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanStats(calls={self.calls}, total_ns={self.total_ns})"


class _Span:
    """Context manager that adds its wall time to a :class:`SpanStats`."""

    __slots__ = ("_stats", "_begin")

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._begin = 0

    def __enter__(self) -> "_Span":
        self._begin = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        stats = self._stats
        stats.calls += 1
        stats.total_ns += time.perf_counter_ns() - self._begin


class Tracer:
    """A counter + span sink shared by all components of one operator.

    One tracer instance is threaded through the whole slicing pipeline
    (slicer, slice manager, aggregate store, FlatFATs, checkpointing),
    so a single snapshot shows the full picture.  Tracers are plain
    picklable state: a checkpointed operator restores with its counters
    intact.
    """

    __slots__ = ("counters", "spans")

    def __init__(self) -> None:
        #: name -> cumulative integer count.
        self.counters: Dict[str, int] = {}
        #: name -> :class:`SpanStats`.
        self.spans: Dict[str, SpanStats] = {}

    # ------------------------------------------------------------------
    # recording

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def span(self, name: str) -> _Span:
        """Context manager timing one invocation of phase ``name``."""
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        return _Span(stats)

    # ------------------------------------------------------------------
    # reading

    def value(self, name: str) -> int:
        """Current value of a counter (0 when it never fired)."""
        return self.counters.get(name, 0)

    def matching(self, prefix: str) -> Dict[str, int]:
        """All counters whose name starts with ``prefix``."""
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready copy of all counters and span statistics."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "spans": {
                name: stats.as_dict() for name, stats in sorted(self.spans.items())
            },
        }

    def merge_from(self, others: Iterable["Tracer"]) -> None:
        """Fold other tracers' totals into this one (keyed/partitioned runs)."""
        for other in others:
            for name, value in other.counters.items():
                self.count(name, value)
            for name, stats in other.spans.items():
                mine = self.spans.get(name)
                if mine is None:
                    mine = self.spans[name] = SpanStats()
                mine.calls += stats.calls
                mine.total_ns += stats.total_ns

    def format(self) -> str:
        """Human-readable multi-line counter report (widest value aligned)."""
        lines: List[str] = []
        if self.counters:
            width = max(len(name) for name in self.counters)
            for name, value in sorted(self.counters.items()):
                lines.append(f"{name.ljust(width)}  {value:,}")
        for name, stats in sorted(self.spans.items()):
            lines.append(
                f"{name}: {stats.calls} calls, "
                f"{stats.total_ns / 1e6:.2f}ms total, {stats.mean_ns:.0f}ns mean"
            )
        return "\n".join(lines) if lines else "(no events recorded)"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(counters={len(self.counters)}, spans={len(self.spans)})"
