"""The stream slice: the unit of partial aggregation (Section 5.2).

A slice covers a half-open timestamp interval ``[start, end)`` of the
stream and holds one incrementally maintained partial aggregate per
registered aggregate function.  Besides its boundaries, a slice tracks
the timestamps of the first and last record it actually contains
(``first_ts`` / ``last_ts``) -- these need not coincide with the
boundaries and drive session-window derivation.

When the workload requires it (Figure 4), the slice also retains its raw
records, sorted by event-time, enabling the expensive operations:
recomputation after a split, order-preserving aggregation for
non-commutative functions, and record shifting for count-based measures.

The three fundamental operations of Section 5.2 map to
:meth:`Slice.merge_from`, :meth:`Slice.split_at` /
:meth:`Slice.split_at_count`, and the ``add_*`` / ``remove_*`` update
methods.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Optional, Sequence

from ..aggregations.base import AggregateFunction
from .types import Record

__all__ = ["Slice"]

_TS_KEY = lambda record: record.ts  # noqa: E731 - bisect key


class Slice:
    """One stream slice with per-function partial aggregates."""

    #: Boundary kinds: the slice's ``end`` boundary is pinned either to a
    #: fixed time point (``"time"``) or to a fixed count value
    #: (``"count"``).  Count-pinned boundaries shift records when
    #: out-of-order arrivals change record positions (Figure 6).
    END_TIME = "time"
    END_COUNT = "count"

    __slots__ = (
        "start",
        "end",
        "first_ts",
        "last_ts",
        "aggs",
        "records",
        "record_count",
        "count_start",
        "count_end",
        "end_kind",
    )

    def __init__(
        self,
        start: int,
        end: Optional[int],
        num_functions: int,
        store_records: bool,
        count_start: Optional[int] = None,
    ) -> None:
        #: Slice boundaries in the primary (time) measure; ``end`` is
        #: ``None`` while the slice is the open head of the stream.
        self.start = start
        self.end = end
        #: Event-times of the first/last contained record (None if empty).
        self.first_ts: Optional[int] = None
        self.last_ts: Optional[int] = None
        #: One partial aggregate per registered function (None if empty).
        self.aggs: List[Any] = [None] * num_functions
        #: Raw records sorted by event-time, or None when not retained.
        self.records: Optional[List[Record]] = [] if store_records else None
        #: Number of records in the slice (maintained even without records).
        self.record_count = 0
        #: Count-measure boundaries (None when no count query is active).
        self.count_start = count_start
        self.count_end: Optional[int] = None
        #: What the ``end`` boundary is pinned to ("time" or "count").
        self.end_kind = Slice.END_TIME

    # ------------------------------------------------------------------
    # predicates

    def covers(self, ts: int) -> bool:
        """Whether ``ts`` falls into ``[start, end)``."""
        if ts < self.start:
            return False
        return self.end is None or ts < self.end

    def is_empty(self) -> bool:
        """Whether the slice contains no records."""
        return self.record_count == 0

    # ------------------------------------------------------------------
    # update operations

    def add_inorder(self, record: Record, functions: Sequence[AggregateFunction]) -> None:
        """Append a record arriving in event-time order (one ⊕ per function):
        the tests' reference for the operator's write into the open head."""
        aggs = self.aggs
        value = record.value
        ts = record.ts
        index = 0
        for function in functions:
            aggs[index] = function.accumulate(aggs[index], value)
            index += 1
        if self.records is not None:
            self.records.append(record)
        self.record_count += 1
        if self.first_ts is None:
            self.first_ts = ts
        self.last_ts = ts

    def add_run(self, records: Sequence[Record], functions: Sequence[AggregateFunction]) -> None:
        """Append a run of records arriving in event-time order (bulk path).

        Equivalent to calling :meth:`add_inorder` once per record, but
        with one partial-aggregate update per function for the whole run
        (via :meth:`~repro.aggregations.base.AggregateFunction.fold_values`).
        Record-storing slices extend their record list in one step.
        """
        if not records:
            return
        values = [record.value for record in records]
        aggs = self.aggs
        for index, function in enumerate(functions):
            aggs[index] = function.fold_values(aggs[index], values)
        if self.records is not None:
            self.records.extend(records)
        self.record_count += len(records)
        if self.first_ts is None:
            self.first_ts = records[0].ts
        self.last_ts = records[-1].ts

    def add_out_of_order(self, record: Record, functions: Sequence[AggregateFunction]) -> None:
        """Insert a late record.

        Commutative functions update incrementally; non-commutative ones
        recompute from the stored records to retain aggregation order
        (Section 5.3, Step 2).  The tests' reference for the operator's
        write of a late record.
        """
        if self.records is not None:
            bisect.insort_right(self.records, record, key=_TS_KEY)
        self.record_count += 1
        if self.first_ts is None or record.ts < self.first_ts:
            self.first_ts = record.ts
        if self.last_ts is None or record.ts > self.last_ts:
            self.last_ts = record.ts
        for index, function in enumerate(functions):
            if function.commutative:
                self.aggs[index] = function.accumulate(self.aggs[index], record.value)
            else:
                self.aggs[index] = self._fold_records(function)

    def recompute(self, functions: Sequence[AggregateFunction]) -> None:
        """Rebuild every partial aggregate from the stored records."""
        if self.records is None:
            raise ValueError("cannot recompute a slice that does not retain records")
        for index, function in enumerate(functions):
            self.aggs[index] = self._fold_records(function)

    def _fold_records(self, function: AggregateFunction) -> Any:
        if self.records is None:
            raise ValueError("cannot fold: records not retained")
        return function.fold_values(None, [record.value for record in self.records])

    def remove_last_record(self, functions: Sequence[AggregateFunction]) -> Record:
        """Remove and return the record with the largest event-time.

        Aggregates are maintained per function following Figure 6:
        invert when available; skip the update when the function can
        prove the removal does not affect the aggregate (min/max family);
        recompute from records otherwise.
        """
        if self.records is None or not self.records:
            raise ValueError("cannot remove from a slice without stored records")
        removed = self.records.pop()
        self.record_count -= 1
        self.last_ts = self.records[-1].ts if self.records else None
        if not self.records:
            self.first_ts = None
        for index, function in enumerate(functions):
            current = self.aggs[index]
            if self.record_count == 0:
                self.aggs[index] = None
                continue
            lifted = function.lift(removed.value)
            if function.invertible:
                self.aggs[index] = function.invert(current, lifted)
            elif hasattr(function, "unaffected_by_removal") and function.unaffected_by_removal(
                current, lifted
            ):
                continue  # removal provably cannot change the aggregate
            else:
                self.aggs[index] = self._fold_records(function)
        return removed

    def prepend_record(self, record: Record, functions: Sequence[AggregateFunction]) -> None:
        """Add a record that precedes every record in this slice.

        Used by the count-shift: the record removed from the previous
        slice has an event-time no larger than any record here, so the
        incremental update is ``lift(record) ⊕ agg`` (order preserved
        even for non-commutative functions).
        """
        if self.records is not None:
            self.records.insert(0, record)
        self.record_count += 1
        if self.last_ts is None:
            self.last_ts = record.ts
        self.first_ts = record.ts if self.first_ts is None else min(self.first_ts, record.ts)
        for index, function in enumerate(functions):
            lifted = function.lift(record.value)
            current = self.aggs[index]
            self.aggs[index] = lifted if current is None else function.combine(lifted, current)

    # ------------------------------------------------------------------
    # merge and split (Section 5.2)

    def merge_from(self, other: "Slice", functions: Sequence[AggregateFunction]) -> None:
        """Absorb the directly following slice ``other`` into this one.

        Implements the paper's three merge steps: extend the end, combine
        the aggregates (``a ← a ⊕ b``), and let the caller delete
        ``other`` from the store.
        """
        if other.start < self.start:
            raise ValueError("merge target must follow this slice")
        self.end = other.end
        for index, function in enumerate(functions):
            left, right = self.aggs[index], other.aggs[index]
            if left is None:
                self.aggs[index] = right
            elif right is None:
                self.aggs[index] = left
            else:
                self.aggs[index] = function.combine(left, right)
        if other.records is None:
            # Half a record list would feed a later recompute or split a
            # wrong fold; none makes them raise.
            self.records = None
        elif self.records is not None:
            self.records.extend(other.records)
        self.record_count += other.record_count
        if other.first_ts is not None and self.first_ts is None:
            self.first_ts = other.first_ts
        if other.last_ts is not None:
            self.last_ts = other.last_ts
        if other.count_end is not None or other.count_start is not None:
            self.count_end = other.count_end

    def split_at(self, ts: int, functions: Sequence[AggregateFunction]) -> "Slice":
        """Split this slice at timestamp ``ts``; return the new right part.

        ``self`` keeps ``[start, ts)``; the returned slice covers
        ``[ts, old_end)``.  Both aggregates are recomputed from records
        (the expensive operation the paper measures in Figure 15).
        """
        if self.records is None:
            raise ValueError("cannot split a slice that does not retain records")
        if not (self.start < ts and (self.end is None or ts < self.end)):
            raise ValueError(
                f"split point {ts} outside slice ({self.start}, {self.end})"
            )
        boundary = bisect.bisect_left(self.records, ts, key=_TS_KEY)
        right = Slice(ts, self.end, len(functions), store_records=True)
        right.end_kind = self.end_kind
        right.records = self.records[boundary:]
        self.records = self.records[:boundary]
        self.end = ts
        self.end_kind = Slice.END_TIME
        self._refresh_after_split(functions)
        right._refresh_after_split(functions)
        if self.count_start is not None:
            right.count_start = self.count_start + self.record_count
            right.count_end = self.count_end
            self.count_end = right.count_start
        return right

    def split_at_count(
        self, count: int, functions: Sequence[AggregateFunction]
    ) -> "Slice":
        """Split at a count position (``count`` records stay on the left)."""
        if self.records is None:
            raise ValueError("cannot split a slice that does not retain records")
        if not 0 < count < len(self.records):
            raise ValueError(
                f"count split {count} outside slice with {len(self.records)} records"
            )
        boundary_ts = self.records[count].ts
        right = Slice(boundary_ts, self.end, len(functions), store_records=True)
        right.end_kind = self.end_kind
        right.records = self.records[count:]
        self.records = self.records[:count]
        self.end = boundary_ts
        self.end_kind = Slice.END_COUNT
        self._refresh_after_split(functions)
        right._refresh_after_split(functions)
        if self.count_start is not None:
            right.count_start = self.count_start + count
            right.count_end = self.count_end
            self.count_end = right.count_start
        return right

    def split_empty_at(self, ts: int, functions: Sequence[AggregateFunction]) -> "Slice":
        """Split at a point with all records strictly on one side.

        This is the session-window split: because no record crosses the
        split point, aggregates move wholesale to one side and *no
        recomputation* is needed -- the reason sessions escape record
        retention in the Figure 4 decision tree.  Works with or without
        stored records.
        """
        if not (self.start < ts and (self.end is None or ts < self.end)):
            raise ValueError(f"split point {ts} outside slice ({self.start}, {self.end})")
        left_side = self.last_ts is not None and self.last_ts < ts
        right_side = self.first_ts is not None and self.first_ts >= ts
        if not (left_side or right_side or self.is_empty()):
            raise ValueError(
                f"records straddle {ts}: [{self.first_ts}, {self.last_ts}] -- use split_at"
            )
        right = Slice(ts, self.end, len(functions), store_records=self.records is not None)
        right.end_kind = self.end_kind
        self.end = ts
        self.end_kind = Slice.END_TIME
        if right_side:
            right.aggs = self.aggs
            right.records = self.records if self.records is not None else None
            right.record_count = self.record_count
            right.first_ts, right.last_ts = self.first_ts, self.last_ts
            self.aggs = [None] * len(functions)
            self.records = [] if self.records is not None else None
            self.record_count = 0
            self.first_ts = self.last_ts = None
        if self.count_start is not None:
            right.count_start = self.count_start + self.record_count
            right.count_end = self.count_end
            self.count_end = right.count_start
        return right

    def _refresh_after_split(self, functions: Sequence[AggregateFunction]) -> None:
        records = self.records or []
        self.record_count = len(records)
        self.first_ts = records[0].ts if records else None
        self.last_ts = records[-1].ts if records else None
        self.recompute(functions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = "open" if self.end is None else self.end
        counts = ""
        if self.count_start is not None:
            count_end = "open" if self.count_end is None else self.count_end
            counts = f", counts=[{self.count_start}, {count_end})"
        return f"Slice([{self.start}, {end}), n={self.record_count}{counts})"
