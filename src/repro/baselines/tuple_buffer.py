"""Record-buffer baselines: Tuple Buffer and Aggregate Tree (Sections
3.1-3.2, Table 1 rows 1-2).

Both keep every record of the allowed lateness sorted by event-time and
trigger windows through :class:`~repro.baselines.trigger.BufferTriggerEngine`;
they differ only in how a range of records is folded.

:class:`TupleBufferOperator` recomputes each window's aggregate lazily,
from scratch, when the window ends.  Throughput degrades with window
overlap (every window recomputes) and with out-of-order input (sorted
inserts copy memory); latency is high; memory is
``|records| * size(record)``.

:class:`AggregateTreeOperator` adds the FlatFAT-style aggregate tree of
Tangwongsan et al. *on top of the stream records*, one per distinct
aggregate function: window aggregates become O(log n) range queries, so
the latency is far below a tuple buffer -- but every record costs
O(log n) tree updates, and an out-of-order record forces an O(n) leaf
insert plus rebuild ("rebalancing"), which is why this technique
collapses under disorder in Figure 9 / Figure 12a.  The raw values stay
too, so holistic and non-commutative workloads remain supported
(Table 1 row 2 counts both).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List

from ..core.characteristics import Query
from ..core.flatfat import FlatFAT
from ..core.operator_base import StreamOrderViolation, WindowOperator
from ..core.types import Record, Watermark, WindowResult
from .trigger import BufferTriggerEngine

__all__ = ["TupleBufferOperator", "AggregateTreeOperator"]


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
    # the record view the trigger engine reads

    def timestamps(self) -> List[int]:
        return self._ts

    def fold_range(self, lo: int, hi: int, query: Query) -> Any:
        function = query.aggregation
        partial = None
        for value in self._values[lo:hi]:
            partial = function.accumulate(partial, value)
        return partial

    # ------------------------------------------------------------------

    def process_record(self, record: Record) -> List[WindowResult]:
        if self._max_ts is None or record.ts >= self._max_ts:
            self._append(record)
            self._max_ts = record.ts
            if not self.stream_in_order:
                return []
            results = self._engine.advance(record.ts)
            self._evict(record.ts)
            return results
        if self.stream_in_order:
            raise StreamOrderViolation(
                f"late record ts={record.ts} on an in-order {type(self).__name__}"
            )
        if self._watermark is not None and record.ts < self._watermark - self.allowed_lateness:
            self._drop_late(record)
            return []
        self._insert(bisect.bisect_right(self._ts, record.ts), record)
        return self._engine.on_late_record(record.ts)

    def _append(self, record: Record) -> None:
        self._ts.append(record.ts)
        self._values.append(record.value)

    def _insert(self, position: int, record: Record) -> None:
        # The costly sorted insert (memory copy in the ring buffer).
        self._ts.insert(position, record.ts)
        self._values.insert(position, record.value)

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        if self._watermark is not None and watermark.ts <= self._watermark:
            return []
        self._watermark = watermark.ts
        results = self._engine.advance(watermark.ts)
        self._evict(watermark.ts)
        return results

    # ------------------------------------------------------------------

    #: Front deletions are O(n); batch them so steady-state eviction
    #: amortizes to O(1) per record.
    EVICT_BATCH = 1024

    def _evict(self, wm: int) -> None:
        cut = self._engine.evictable(wm - self.allowed_lateness)
        if cut >= self.EVICT_BATCH or (cut and cut == len(self._ts)):
            horizon = self._ts[cut - 1]
            self._drop_front(cut)
            self._engine.note_eviction(cut)
            self._engine.prune_emitted(horizon)

    def _drop_front(self, count: int) -> None:
        del self._ts[:count]
        del self._values[:count]

    # ------------------------------------------------------------------

    def state_objects(self) -> list:
        return [self._ts, self._values]

    def buffered_records(self) -> int:
        return len(self._ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(records={len(self._ts)}, queries={len(self.queries)})"


class AggregateTreeOperator(TupleBufferOperator):
    """FlatFAT over records: low latency, expensive out-of-order inserts."""

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        #: One FlatFAT per distinct aggregation (leaves = lifted records).
        self._trees: Dict[tuple, FlatFAT] = {}
        self._fn_by_key: Dict[tuple, Any] = {}

    def _on_queries_changed(self) -> None:
        super()._on_queries_changed()
        self._fn_by_key = {q.aggregation.signature(): q.aggregation for q in self.queries}
        for key in list(self._trees):
            if key not in self._fn_by_key:
                del self._trees[key]
        for key, function in self._fn_by_key.items():
            if key not in self._trees:
                leaves = [function.lift(value) for value in self._values]
                self._trees[key] = FlatFAT(function.combine, leaves)

    def fold_range(self, lo: int, hi: int, query: Query) -> Any:
        if hi <= lo:
            return None
        return self._trees[query.aggregation.signature()].query(lo, hi)

    def _append(self, record: Record) -> None:
        super()._append(record)
        for key, tree in self._trees.items():
            tree.append(self._fn_by_key[key].lift(record.value))

    def _insert(self, position: int, record: Record) -> None:
        super()._insert(position, record)
        # The expensive path: a leaf insert in the middle of the tree
        # shifts leaves and recomputes inner nodes (O(n)).
        for key, tree in self._trees.items():
            tree.insert(position, self._fn_by_key[key].lift(record.value))

    def _drop_front(self, count: int) -> None:
        super()._drop_front(count)
        for tree in self._trees.values():
            tree.remove_front(count)

    def state_objects(self) -> list:
        return [*super().state_objects(), *self._trees.values()]
