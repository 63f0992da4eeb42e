"""Aggregate Tree baseline: FlatFAT over individual records (Section 3.2).

Reimplements the FlatFAT-style aggregate tree (Tangwongsan et al.) as the
paper benchmarks it: a binary tree of partial aggregates *on top of the
stream records* (Table 1 row 2).  Window aggregates become O(log n)
range queries, so the latency is far below a tuple buffer -- but every
record costs O(log n) tree updates, and an out-of-order record forces an
O(n) leaf insert plus rebuild ("rebalancing"), which is why this
technique collapses under disorder in Figure 9 / Figure 12a.

One tree is maintained per distinct aggregate function; raw values are
additionally retained so that holistic/non-commutative workloads remain
supported (Table 1 row 2 counts both).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Sequence

from ..core.characteristics import Query
from ..core.flatfat import FlatFAT
from ..core.operator_base import StreamOrderViolation, WindowOperator
from ..core.types import Record, Watermark, WindowResult
from .trigger import BufferTriggerEngine

__all__ = ["AggregateTreeOperator"]


class AggregateTreeOperator(WindowOperator):
    """FlatFAT over records: low latency, expensive out-of-order inserts."""

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
        self._ts: List[int] = []
        self._values: List[Any] = []
        #: One FlatFAT per distinct aggregation (leaves = lifted records).
        self._trees: Dict[tuple, FlatFAT] = {}
        self._fn_by_key: Dict[tuple, Any] = {}
        self._max_ts: int | None = None
        self._watermark: int | None = None
        self._engine = BufferTriggerEngine(self, emit_empty=emit_empty)

    def _on_queries_changed(self) -> None:
        self._engine.set_queries(self.queries)
        self._fn_by_key = {q.aggregation.signature(): q.aggregation for q in self.queries}
        for query in self.queries:
            key = query.aggregation.signature()
            if key not in self._trees:
                function = query.aggregation
                leaves = [function.lift(value) for value in self._values]
                self._trees[key] = FlatFAT(function.combine, leaves)
        live = {q.aggregation.signature() for q in self.queries}
        for key in list(self._trees):
            if key not in live:
                del self._trees[key]

    # ------------------------------------------------------------------
    # SortedRecordsView protocol

    def timestamps(self) -> Sequence[int]:
        return self._ts

    def fold_range(self, lo: int, hi: int, query: Query) -> Any:
        if hi <= lo:
            return None
        return self._trees[query.aggregation.signature()].query(lo, hi)

    # ------------------------------------------------------------------

    def process_record(self, record: Record) -> List[WindowResult]:
        results: List[WindowResult] = []
        in_order = self._max_ts is None or record.ts >= self._max_ts
        if in_order:
            self._ts.append(record.ts)
            self._values.append(record.value)
            for key, tree in self._trees.items():
                function = self._function_for(key)
                tree.append(function.lift(record.value))
            self._max_ts = record.ts
            if self.stream_in_order:
                results.extend(self._engine.advance(record.ts))
                self._evict(record.ts)
        else:
            if self.stream_in_order:
                raise StreamOrderViolation(
                    f"late record ts={record.ts} on an in-order aggregate tree"
                )
            if (
                self._watermark is not None
                and record.ts < self._watermark - self.allowed_lateness
            ):
                self._drop_late(record)
                return results
            position = bisect.bisect_right(self._ts, record.ts)
            self._ts.insert(position, record.ts)
            self._values.insert(position, record.value)
            # The expensive path: a leaf insert in the middle of the tree
            # shifts leaves and recomputes inner nodes (O(n)).
            for key, tree in self._trees.items():
                function = self._function_for(key)
                tree.insert(position, function.lift(record.value))
            results.extend(self._engine.on_late_record(record.ts))
        return results

    def _function_for(self, key: tuple):
        return self._fn_by_key[key]

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        if self._watermark is not None and watermark.ts <= self._watermark:
            return []
        self._watermark = watermark.ts
        results = self._engine.advance(watermark.ts)
        self._evict(watermark.ts)
        return results

    def process_batch(self, elements) -> List[WindowResult]:
        """Batch entry point: bulk leaf appends for in-order runs.

        On watermark-driven streams a run of in-order records extends
        the buffer and each tree via :meth:`FlatFAT.extend` (one growth
        and one inner-node repair pass per run).  In-order-declared
        streams emit per record, and late records pay their O(n) insert,
        both on the per-element path -- results match :meth:`process`.
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
                    values = [record.value for record in run]
                    self._ts.extend(record.ts for record in run)
                    self._values.extend(values)
                    for key, tree in self._trees.items():
                        lift = self._function_for(key).lift
                        tree.extend([lift(value) for value in values])
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
            for tree in self._trees.values():
                tree.remove_front(cut)
            self._engine.note_eviction(cut)
            self._engine.prune_emitted(horizon)

    # ------------------------------------------------------------------

    def state_objects(self) -> list:
        return [self._ts, self._values, *self._trees.values()]

    def buffered_records(self) -> int:
        return len(self._ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AggregateTreeOperator(records={len(self._ts)}, "
            f"trees={len(self._trees)}, queries={len(self.queries)})"
        )
