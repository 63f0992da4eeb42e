"""Buckets baseline: one independent bucket per window (Section 3.3).

Li et al.'s Window-ID approach as adopted by Flink, Beam, and friends:
every window is an independent bucket keyed in a hash map; records are
assigned to *all* windows containing them (by event-time, regardless of
arrival order) and each bucket aggregates independently -- no sharing.

Cost profile (reproduced by the benchmarks):

* per-record cost grows linearly with the number of overlapping windows
  (the Figure 8/9 collapse for many concurrent windows);
* out-of-order records cost the same as in-order ones (bucket lookup +
  one incremental update) -- the Figure 12 robustness;
* latency is the lowest of all techniques: the final aggregate of every
  bucket is pre-computed when the window ends (hash-map lookup);
* memory duplicates state per overlapping window (Table 1 rows 3-4).

Two variants: :class:`AggregateBucketsOperator` stores one partial per
bucket (preferred); :class:`TupleBucketsOperator` keeps the individual
records per bucket, required for holistic aggregations or count-based
windows on out-of-order streams.

Session windows use Flink's merging-window behaviour: each record opens
a ``[ts, ts + gap)`` proto-bucket and overlapping buckets merge.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Any, Dict, List, Optional, Tuple

from ..core.characteristics import Query
from ..core.measures import MeasureKind
from ..core.operator_base import StreamOrderViolation, WindowOperator
from ..core.types import Record, Watermark, WindowResult
from ..windows.multimeasure import LastNEveryWindow
from ..windows.session import SessionWindow

__all__ = ["AggregateBucketsOperator", "TupleBucketsOperator", "BucketsOperator"]

_TS_OF = lambda pair: pair[0]  # noqa: E731 - bisect key


class _Bucket:
    """One window instance: bounds plus aggregate state."""

    __slots__ = ("start", "end", "partial", "records", "emitted")

    def __init__(self, start: int, end: int, keep_records: bool) -> None:
        self.start = start
        self.end = end
        self.partial: Any = None
        self.records: Optional[List[Tuple[int, Any]]] = [] if keep_records else None
        self.emitted = False

    def add(self, ts: int, value: Any, function) -> None:
        """Fold one record into the bucket (incremental where possible)."""
        if self.records is not None:
            bisect.insort_right(self.records, (ts, value), key=_TS_OF)
            if not function.commutative:
                self.partial = None  # recomputed lazily from sorted records
                return
        self.partial = function.accumulate(self.partial, value)

    def merge_in(self, other: "_Bucket", function) -> None:
        """Absorb an overlapping session proto-bucket."""
        self.start = min(self.start, other.start)
        self.end = max(self.end, other.end)
        if self.records is not None and other.records is not None:
            merged = self.records + other.records
            merged.sort(key=_TS_OF)
            self.records = merged
            if not function.commutative:
                self.partial = None
                self.emitted = self.emitted or other.emitted
                return
        if other.partial is not None:
            self.partial = (
                other.partial
                if self.partial is None
                else function.combine(self.partial, other.partial)
            )
        self.emitted = self.emitted or other.emitted

    def aggregate(self, function) -> Any:
        """The bucket partial, recomputed from records when invalidated."""
        if self.partial is None and self.records:
            partial = None
            for _, value in self.records:
                partial = function.accumulate(partial, value)
            self.partial = partial
        return self.partial


class BucketsOperator(WindowOperator):
    """Bucket-per-window aggregation (Flink-style WID)."""

    #: Subclasses choose: keep records per bucket or partials only.
    keep_records = False

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
        self.emit_empty = emit_empty
        #: (query_id, start, end) -> bucket (the Flink hash map).
        self._buckets: Dict[Tuple[int, int, int], _Bucket] = {}
        #: Pending emissions: (end, query_id, start) min-heaps, separate
        #: per measure domain (time ends vs count ends are incomparable).
        self._pending: List[Tuple[int, int, int]] = []
        self._pending_count: List[Tuple[int, int, int]] = []
        #: Session buckets per query, sorted by start (merging assigner).
        self._sessions: Dict[int, List[_Bucket]] = {}
        #: Sorted records per count/multi-measure query.
        self._count_records: Dict[int, List[Tuple[int, Any]]] = {}
        self._count_hwm: Dict[int, int] = {}
        self._edge_hwm: Dict[int, Optional[int]] = {}
        self._query_by_id: Dict[int, Query] = {}
        self._max_ts: int | None = None
        self._watermark: int | None = None
        self._arrived = 0
        self._advances = 0

    def _on_queries_changed(self) -> None:
        self._query_by_id = {query.query_id: query for query in self.queries}
        for query in self.queries:
            window = query.window
            if isinstance(window, SessionWindow):
                self._sessions.setdefault(query.query_id, [])
            elif isinstance(window, LastNEveryWindow) or (
                window.measure_kind is MeasureKind.COUNT
                and (self.keep_records or not self.stream_in_order)
            ):
                # Count positions are event-time ranks.  Partials-only
                # buckets can use arrival order as the rank on in-order
                # streams, but a late record shifts every later rank, so
                # out-of-order count queries must buffer records too.
                self._count_records.setdefault(query.query_id, [])
            if query.aggregation.kind.value == "holistic" and not self.keep_records:
                raise ValueError(
                    "aggregate buckets cannot serve holistic aggregations; "
                    "use TupleBucketsOperator"
                )

    # ------------------------------------------------------------------
    # record processing

    def process_record(self, record: Record) -> List[WindowResult]:
        results: List[WindowResult] = []
        in_order = self._max_ts is None or record.ts >= self._max_ts
        if not in_order and self.stream_in_order:
            raise StreamOrderViolation(
                f"late record ts={record.ts} on an in-order buckets operator"
            )
        if (
            not in_order
            and self._watermark is not None
            and record.ts < self._watermark - self.allowed_lateness
        ):
            self._drop_late(record)
            return results
        position = self._arrived
        self._arrived += 1
        for query in self.queries:
            window = query.window
            if isinstance(window, SessionWindow):
                bucket = self._add_to_session(query, record)
                if bucket.emitted:
                    results.append(self._result(query, bucket, is_update=True))
            elif query.query_id in self._count_records:
                records = self._count_records[query.query_id]
                bisect.insort_right(records, (record.ts, record.value), key=_TS_OF)
            elif window.measure_kind is MeasureKind.COUNT:
                # Partials-only count buckets: in-order streams only
                # (positions match arrival order there).
                for start, end in window.assign_windows(position):
                    self._add_to_bucket(query, start, end, record, results)
            else:
                # The hot loop: one update per containing window.
                for start, end in window.assign_windows(record.ts):
                    self._add_to_bucket(query, start, end, record, results)
        if in_order:
            self._max_ts = record.ts
            if self.stream_in_order:
                results.extend(self._advance(record.ts))
        return results

    def _add_to_bucket(
        self,
        query: Query,
        start: int,
        end: int,
        record: Record,
        results: List[WindowResult],
    ) -> None:
        key = (query.query_id, start, end)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(start, end, self.keep_records)
            self._buckets[key] = bucket
            if query.window.measure_kind is MeasureKind.COUNT:
                heapq.heappush(self._pending_count, (end, query.query_id, start))
            else:
                heapq.heappush(self._pending, (end, query.query_id, start))
        bucket.add(record.ts, record.value, query.aggregation)
        if bucket.emitted:
            results.append(self._result(query, bucket, is_update=True))

    def _add_to_session(self, query: Query, record: Record) -> _Bucket:
        window: SessionWindow = query.window
        buckets = self._sessions[query.query_id]
        proto = _Bucket(record.ts, record.ts + window.gap, self.keep_records)
        proto.add(record.ts, record.value, query.aggregation)
        position = bisect.bisect_right(buckets, proto.start, key=lambda b: b.start)
        buckets.insert(position, proto)
        # Merge with the left neighbour, then absorb right neighbours.
        index = position
        if index > 0 and buckets[index - 1].end > proto.start:
            buckets[index - 1].merge_in(proto, query.aggregation)
            buckets.pop(index)
            index -= 1
        target = buckets[index]
        while index + 1 < len(buckets) and buckets[index + 1].start < target.end:
            target.merge_in(buckets[index + 1], query.aggregation)
            buckets.pop(index + 1)
        return target

    # ------------------------------------------------------------------
    # emission

    def _advance(self, wm: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        # CF buckets: pop everything due from the heaps (hash-map lookups).
        while self._pending and self._pending[0][0] <= wm:
            end, query_id, start = heapq.heappop(self._pending)
            bucket = self._buckets.get((query_id, start, end))
            query = self._query_by_id.get(query_id)
            if bucket is None or query is None or bucket.emitted:
                continue
            results.append(self._result(query, bucket, is_update=False))
            bucket.emitted = True
        while self._pending_count and self._pending_count[0][0] <= self._arrived:
            end, query_id, start = heapq.heappop(self._pending_count)
            bucket = self._buckets.get((query_id, start, end))
            query = self._query_by_id.get(query_id)
            if bucket is None or query is None or bucket.emitted:
                continue
            results.append(self._result(query, bucket, is_update=False))
            bucket.emitted = True
        # Session buckets.
        for query_id, buckets in self._sessions.items():
            query = self._query_by_id.get(query_id)
            if query is None:
                continue
            for bucket in buckets:
                if not bucket.emitted and bucket.end <= wm:
                    results.append(self._result(query, bucket, is_update=False))
                    bucket.emitted = True
        results.extend(self._emit_count_windows(wm))
        # Eviction scans every bucket; amortize it across advances.
        self._advances += 1
        if self._advances % 512 == 0:
            self._evict(wm)
        return results

    def _emit_count_windows(self, wm: int) -> List[WindowResult]:
        """Emit record-kept count / multi-measure windows."""
        results: List[WindowResult] = []
        for query_id, records in self._count_records.items():
            query = self._query_by_id.get(query_id)
            if query is None:
                continue
            window = query.window
            timestamps = [ts for ts, _ in records]
            if isinstance(window, LastNEveryWindow):
                previous = self._edge_hwm.get(query_id)
                lower = (
                    previous
                    if previous is not None
                    else (timestamps[0] if timestamps else wm) - 1
                )
                for edge in window.time_edges_between(lower, wm):
                    cumulative = bisect.bisect_left(timestamps, edge)
                    start = max(0, cumulative - window.count)
                    value = self._fold(query, records[start:cumulative])
                    if value is not None or self.emit_empty:
                        results.append(WindowResult(query_id, start, cumulative, value))
                self._edge_hwm[query_id] = wm
            else:
                completed = bisect.bisect_right(timestamps, wm)
                previous = self._count_hwm.get(query_id, 0)
                if completed <= previous:
                    continue
                for start, end in window.trigger_windows(previous, completed):
                    value = self._fold(query, records[start:end])
                    if value is not None or self.emit_empty:
                        results.append(WindowResult(query_id, start, end, value))
                self._count_hwm[query_id] = completed
        return results

    def _fold(self, query: Query, pairs: List[Tuple[int, Any]]) -> Any:
        function = query.aggregation
        partial = None
        for _, value in pairs:
            partial = function.accumulate(partial, value)
        if partial is None:
            return function.empty_result() if self.emit_empty else None
        return function.lower(partial)

    def _result(self, query: Query, bucket: _Bucket, is_update: bool) -> WindowResult:
        value = query.aggregation.lower_or_default(bucket.aggregate(query.aggregation))
        return WindowResult(query.query_id, bucket.start, bucket.end, value, is_update)

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        if self._watermark is not None and watermark.ts <= self._watermark:
            return []
        results = self._advance(watermark.ts)
        self._watermark = watermark.ts
        return results

    # ------------------------------------------------------------------
    # housekeeping

    def _evict(self, wm: int) -> None:
        horizon = wm - self.allowed_lateness
        if len(self._buckets) > 0:
            stale = [key for key, bucket in self._buckets.items() if bucket.end <= horizon]
            for key in stale:
                del self._buckets[key]
        for query_id, buckets in self._sessions.items():
            self._sessions[query_id] = [
                bucket for bucket in buckets if bucket.end > horizon or not bucket.emitted
            ]

    def state_objects(self) -> list:
        return [self._buckets, self._sessions, self._count_records]

    def bucket_count(self) -> int:
        """Number of materialized buckets (the Table 1 |win| factor)."""
        return len(self._buckets) + sum(len(b) for b in self._sessions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(buckets={self.bucket_count()}, "
            f"queries={len(self.queries)})"
        )


class AggregateBucketsOperator(BucketsOperator):
    """Buckets storing one partial aggregate each (Table 1 row 3)."""

    keep_records = False


class TupleBucketsOperator(BucketsOperator):
    """Buckets storing the individual records (Table 1 row 4)."""

    keep_records = True
