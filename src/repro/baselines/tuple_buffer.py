"""Tuple Buffer baseline (Section 3.1, Table 1 row 1).

The straightforward technique: keep every record of the allowed
lateness in a ring buffer sorted by event-time and recompute each
window's aggregate lazily, from scratch, when the window ends.

Cost profile (reproduced by the benchmarks):

* throughput degrades with window overlap (every window recomputes) and
  with out-of-order input (sorted inserts copy memory);
* latency is high -- the full aggregation happens at window end;
* memory is ``|records| * size(record)``.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Sequence

from ..core.characteristics import Query
from ..core.operator_base import StreamOrderViolation, WindowOperator
from ..core.types import Record, Watermark, WindowResult
from .trigger import BufferTriggerEngine

__all__ = ["TupleBufferOperator"]


class TupleBufferOperator(WindowOperator):
    """Sorted ring-buffer of records with lazy per-window recomputation."""

    def __init__(
        self,
        *,
        stream_in_order: bool = False,
        allowed_lateness: int = 0,
        emit_empty: bool = False,
    ) -> None:
        super().__init__()
        self.stream_in_order = stream_in_order
        self.allowed_lateness = allowed_lateness
        #: Event-time-sorted buffer; two parallel arrays avoid per-record
        #: object overhead in the hot path (ring-buffer stand-in).
        self._ts: List[int] = []
        self._values: List[Any] = []
        self._max_ts: int | None = None
        self._watermark: int | None = None
        self._engine = BufferTriggerEngine(self, emit_empty=emit_empty)

    def _on_queries_changed(self) -> None:
        self._engine.set_queries(self.queries)

    # ------------------------------------------------------------------
    # SortedRecordsView protocol

    def timestamps(self) -> Sequence[int]:
        return self._ts

    def fold_range(self, lo: int, hi: int, query: Query) -> Any:
        function = query.aggregation
        partial = None
        for value in self._values[lo:hi]:
            lifted = function.lift(value)
            partial = lifted if partial is None else function.combine(partial, lifted)
        return partial

    # ------------------------------------------------------------------

    def process_record(self, record: Record) -> List[WindowResult]:
        results: List[WindowResult] = []
        in_order = self._max_ts is None or record.ts >= self._max_ts
        if in_order:
            self._ts.append(record.ts)
            self._values.append(record.value)
            self._max_ts = record.ts
            if self.stream_in_order:
                results.extend(self._engine.advance(record.ts))
                self._evict(record.ts)
        else:
            if self.stream_in_order:
                raise StreamOrderViolation(
                    f"late record ts={record.ts} on an in-order tuple buffer"
                )
            if (
                self._watermark is not None
                and record.ts < self._watermark - self.allowed_lateness
            ):
                self._drop_late(record)
                return results
            # The costly sorted insert (memory copy in the ring buffer).
            position = bisect.bisect_right(self._ts, record.ts)
            self._ts.insert(position, record.ts)
            self._values.insert(position, record.value)
            results.extend(self._engine.on_late_record(record.ts))
        return results

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        if self._watermark is not None and watermark.ts <= self._watermark:
            return []
        self._watermark = watermark.ts
        results = self._engine.advance(watermark.ts)
        self._evict(watermark.ts)
        return results

    def process_batch(self, elements) -> List[WindowResult]:
        """Batch entry point: bulk-append runs of in-order records.

        On watermark-driven streams an in-order record only appends to
        the buffer (no emission), so whole runs extend the parallel
        arrays in one step.  In-order-declared streams emit per record
        and keep the per-element path, as do late records and
        watermarks -- results are identical to :meth:`process`.
        """
        results: List[WindowResult] = []
        process = self.process
        n = len(elements)
        i = 0
        while i < n:
            element = elements[i]
            if not self.stream_in_order and isinstance(element, Record):
                prev = self._max_ts
                j = i
                while j < n:
                    e = elements[j]
                    if not isinstance(e, Record) or (prev is not None and e.ts < prev):
                        break
                    prev = e.ts
                    j += 1
                if j > i:
                    run = elements[i:j]
                    self._ts.extend(record.ts for record in run)
                    self._values.extend(record.value for record in run)
                    self._max_ts = prev
                    i = j
                    continue
            out = process(element)
            if out:
                results.extend(out)
            i += 1
        return results

    # ------------------------------------------------------------------

    #: Front deletions are O(n); batch them so steady-state eviction
    #: amortizes to O(1) per record.
    EVICT_BATCH = 1024

    def _evict(self, wm: int) -> None:
        cut = self._engine.evictable(wm - self.allowed_lateness)
        if cut >= self.EVICT_BATCH or (cut and cut == len(self._ts)):
            horizon = self._ts[cut - 1]
            del self._ts[:cut]
            del self._values[:cut]
            self._engine.note_eviction(cut)
            self._engine.prune_emitted(horizon)

    # ------------------------------------------------------------------

    def state_objects(self) -> list:
        return [self._ts, self._values]

    def buffered_records(self) -> int:
        return len(self._ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TupleBufferOperator(records={len(self._ts)}, queries={len(self.queries)})"
