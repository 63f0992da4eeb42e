"""The Slice Manager -- Step 2 of the slicing pipeline (Section 5.3).

The slice manager triggers all merge and split operations on slices.  It
keeps the invariant that *slice edges match window edges*:

* a late record is *placed* in the slice covering its timestamp, a new
  slice created in a gap, or a session split off at a record-free point
  (no recomputation); the operator writes it, one ⊕ per commutative
  function and a recomputation otherwise;
* then the manager *settles* the chain: it merges slices when the record
  bridged two sessions, and on count chains shifts the last record of
  every affected slice one slice onward (Figure 6), using the
  aggregation's invert where available;
* late window edges (punctuations, context changes) split slices with a
  full recomputation from stored records (Figure 5 / Figure 15).

The operator, not the manager, asks the window manager for updates.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Sequence, Tuple

from ..aggregations.base import AggregateFunction
from .aggregate_store import AggregateStore, slice_start
from .slice_ import Slice
from .tracing import Tracer
from .types import Record

__all__ = ["SliceManager"]


class SliceManager:
    """Coordinates merge / split / update operations on the slice store."""

    __slots__ = (
        "_store",
        "store_records",
        "track_counts",
        "session_gap",
        "_floor_time_edge",
        "_ceil_time_edge",
        "_edge_in_region",
        "_is_count_edge",
        "tracer",
    )

    def __init__(
        self,
        store: AggregateStore,
        *,
        store_records: bool = False,
        track_counts: bool = False,
        session_gap: Optional[int] = None,
        floor_time_edge: Callable[[int], Optional[int]] = lambda ts: None,
        ceil_time_edge: Callable[[int], Optional[int]] = lambda ts: None,
        edge_in_region: Callable[[int, int], bool] = lambda lo, hi: False,
        is_count_edge: Callable[[int], bool] = lambda count: False,
    ) -> None:
        self._store = store
        self.store_records = store_records
        self.track_counts = track_counts
        #: Minimum gap over all registered session queries (None = no sessions).
        self.session_gap = session_gap
        self._floor_time_edge = floor_time_edge
        self._ceil_time_edge = ceil_time_edge
        self._edge_in_region = edge_in_region
        self._is_count_edge = is_count_edge
        #: Observability sink; ``None`` (the default) is the no-op fast
        #: path -- attached by ``WindowOperator.enable_tracing()``.
        self.tracer: Optional[Tracer] = None

    @property
    def functions(self) -> Sequence[AggregateFunction]:
        return self._store.functions

    # ------------------------------------------------------------------
    # in-order path

    def add_inorder(self, record: Record, head: Slice) -> None:
        """Append an in-order record to the open head slice: one ⊕ per fn.
        Unused by the operator, which writes the head itself."""
        head.add_run((record,), self.functions)
        self._store.slice_updated(len(self._store.slices) - 1)

    # ------------------------------------------------------------------
    # out-of-order path: place, (the operator writes,) settle

    def add_out_of_order(self, record: Record) -> Tuple[int, Optional[int]]:
        """Place a late record -- a gap slice, a session split, past the
        records it ties with on a count chain -- and return its slice's
        index and, on a count chain, its global record position.  The
        caller writes the record, calls ``slice_updated`` and :meth:`settle`.
        """
        index = self._store.find_index(record.ts)
        if index is None:
            index = self._create_gap_slice(record.ts)
        if self.track_counts:
            # Equal-timestamp ties order by arrival: the new record goes
            # after every existing record with the same timestamp, which
            # earlier count shifts may have moved into later slices
            # (possibly past empty slices).
            slices = self._store.slices
            scan = index + 1
            while scan < len(slices):
                following = slices[scan]
                if following.record_count == 0:
                    scan += 1
                    continue
                if following.first_ts is not None and following.first_ts <= record.ts:
                    index = scan
                    scan += 1
                    continue
                break
        if self.session_gap is not None:
            index = self._session_place(index, record)
        count_position: Optional[int] = None
        if self.track_counts:
            count_position = self._count_position(self._store.slices[index], record.ts)
        return index, count_position

    def settle(self, index: int) -> None:
        """Restore the slice invariants after a late record was written
        into slice ``index``: merge the sessions it bridged, then repair
        the count boundaries behind it."""
        if self.session_gap is not None:
            index = self._merge_bridged_sessions(index)
        if self.track_counts:
            self._count_cascade(index)

    def _count_position(self, slice_: Slice, ts: int) -> int:
        base = slice_.count_start if slice_.count_start is not None else 0
        if slice_.records is None:
            return base + slice_.record_count
        offset = bisect.bisect_right(slice_.records, ts, key=lambda r: r.ts)
        return base + offset

    def _create_gap_slice(self, ts: int) -> int:
        """Create a slice covering ``ts`` inside a record-free region."""
        before, after = self._store.neighbors(ts)
        slices = self._store.slices
        start_bounds: List[int] = []
        end_bounds: List[int] = []
        if before is not None and slices[before].end is not None:
            start_bounds.append(slices[before].end)
        floor = self._floor_time_edge(ts)
        if floor is not None:
            start_bounds.append(floor)
        start = max(start_bounds) if start_bounds else ts
        if start > ts:
            raise AssertionError(f"the gap slice [{start}, ...) for ts={ts} starts after it")
        if after is not None:
            end_bounds.append(slices[after].start)
        ceil = self._ceil_time_edge(ts)
        if ceil is not None:
            end_bounds.append(ceil)
        end = min(end_bounds) if end_bounds else None
        gap = Slice(
            start,
            end,
            len(self.functions),
            store_records=self.store_records,
            count_start=(
                slices[before].count_end
                if (self.track_counts and before is not None)
                else (0 if self.track_counts else None)
            ),
        )
        if self.track_counts:
            gap.count_end = gap.count_start if end is not None else None
            if end is not None and gap.count_end is not None and self._is_count_edge(gap.count_end):
                gap.end_kind = Slice.END_COUNT
        index = (before + 1) if before is not None else 0
        self._store.insert_slice(index, gap)
        if self.tracer is not None:
            self.tracer.count("slice_manager.gap_slices")
        return index

    # ------------------------------------------------------------------
    # session handling (merge-only context awareness, Section 5.1)

    def _session_place(self, index: int, record: Record) -> int:
        """Ensure session separation inside the target slice.

        If the late record opens a *new* session inside an existing
        slice (its distance to the slice's records exceeds the session
        gap), the slice is split at a record-free point -- a pure
        metadata operation that never recomputes aggregates.
        Returns the index of the slice that should receive the record.
        """
        gap = self.session_gap
        assert gap is not None
        slice_ = self._store.slices[index]
        if slice_.is_empty():
            return index
        assert slice_.first_ts is not None and slice_.last_ts is not None
        ts = record.ts
        if slice_.first_ts <= ts <= slice_.last_ts:
            return index  # inside the activity span: same session
        if ts > slice_.last_ts:
            if ts - slice_.last_ts < gap:
                return index  # extends the session forward
            split_point = slice_.last_ts + gap
            right = slice_.split_empty_at(split_point, self.functions)
            self._insert_after(index, right)
            return index + 1
        # ts < slice_.first_ts
        if slice_.first_ts - ts < gap:
            return index  # extends the session backward
        split_point = ts + gap
        right = slice_.split_empty_at(split_point, self.functions)
        self._insert_after(index, right)
        return index  # record goes to the (now empty) left part

    def _insert_after(self, index: int, right: Slice) -> None:
        left = self._store.slices[index]
        # The store variants track trees by index; re-sync both positions.
        self._store.insert_slice(index + 1, right)
        self._store.slice_updated(index)
        self._store.slice_updated(index + 1)
        if self.tracer is not None:
            # Every _insert_after follows a split (session separation,
            # late window edge, or count boundary).
            self.tracer.count("slice_manager.splits")
        del left  # aggregates already re-homed by split_empty_at

    def _merge_bridged_sessions(self, index: int) -> int:
        """Merge adjacent slices when a record closed a session gap.

        A merge only happens when no registered window has an edge in
        the region the merge would swallow (``edge_in_region``), which
        keeps the minimal-slice invariant without breaking context-free
        queries that share the slice chain.
        """
        gap = self.session_gap
        assert gap is not None
        index = self._maybe_merge(index - 1, index, gap)
        self._maybe_merge(index, index + 1, gap)
        return index

    def _maybe_merge(self, left_index: int, right_index: int, gap: int) -> int:
        slices = self._store.slices
        if left_index < 0 or right_index >= len(slices) or left_index >= right_index:
            return max(left_index, 0) if right_index >= len(slices) else right_index
        left, right = slices[left_index], slices[right_index]
        if left.is_empty() or right.is_empty():
            return right_index
        assert left.last_ts is not None and right.first_ts is not None
        if right.first_ts - left.last_ts >= gap:
            return right_index
        boundary = left.end
        if boundary is None:
            return right_index
        # The merge erases every boundary in [left.end, right.start]; it
        # must not swallow any other window's edge (e.g. a tumbling edge
        # inside a record-free gap between the two session fragments).
        if self._edge_in_region(boundary, right.start):
            return right_index
        if left.end_kind == Slice.END_COUNT:
            return right_index  # count edges must keep their boundary
        left.merge_from(right, self.functions)
        self._store.remove_slice(right_index)
        self._store.slice_updated(left_index)
        if self.tracer is not None:
            self.tracer.count("slice_manager.merges")
        return left_index

    # ------------------------------------------------------------------
    # splits for late window edges (FCF/FCA on out-of-order streams)

    def split_time(self, ts: int) -> bool:
        """Ensure a slice boundary exists at time ``ts``.

        Returns ``True`` when a split was performed.  Splitting requires
        stored records when records straddle the point (Figure 15's
        recomputation cost); record-free points use the cheap path.
        """
        index = self._store.find_index(ts)
        if index is None:
            return False  # gap: boundary implicitly exists
        slice_ = self._store.slices[index]
        if slice_.start == ts:
            return False  # boundary already present
        straddles = (
            slice_.first_ts is not None
            and slice_.last_ts is not None
            and slice_.first_ts < ts <= slice_.last_ts
        )
        if straddles:
            right = slice_.split_at(ts, self.functions)
            if self.tracer is not None:
                # The expensive Figure 15 path: both halves recompute
                # their aggregates from stored records.
                self.tracer.count("slice_manager.split_recomputes")
        else:
            right = slice_.split_empty_at(ts, self.functions)
        self._insert_after(index, right)
        return True

    def ensure_count_boundary(self, count: int) -> bool:
        """Ensure a slice boundary exists at count position ``count``.

        Used by multi-measure (FCA) windows whose starts land mid-slice;
        requires stored records (the decision tree guarantees them).
        Returns ``True`` when a split was performed.
        """
        slices = self._store.slices
        for index, slice_ in enumerate(slices):
            if slice_.count_start is None:
                continue
            if slice_.count_start == count:
                return False
            within_closed = slice_.count_end is not None and slice_.count_start < count < slice_.count_end
            within_open = slice_.count_end is None and count < slice_.count_start + slice_.record_count
            if within_closed or within_open:
                offset = count - slice_.count_start
                if offset <= 0 or offset >= slice_.record_count:
                    return False  # boundary in a record-free margin
                right = slice_.split_at_count(offset, self.functions)
                self._insert_after(index, right)
                return True
        return False

    # ------------------------------------------------------------------
    # count-measure shift cascade (Figure 6)

    def _count_cascade(self, index: int) -> None:
        """Repair count boundaries after an insertion at slice ``index``.

        Count-pinned boundaries keep their value by moving the last
        record of the left slice one slice onward; time-pinned
        boundaries keep their position and shift their cumulative count.
        """
        slices = self._store.slices
        j = index
        while j < len(slices):
            slice_ = slices[j]
            if j > index and slices[j - 1].end_kind != Slice.END_COUNT:
                if slice_.count_start is not None:
                    slice_.count_start += 1
            if slice_.count_end is None:
                break
            if slice_.end_kind == Slice.END_COUNT:
                if j + 1 >= len(slices):
                    break  # nothing to shift into; head cut will fix counts
                moved = slice_.remove_last_record(self.functions)
                slices[j + 1].prepend_record(moved, self.functions)
                self._store.slice_updated(j)
                self._store.slice_updated(j + 1)
                if self.tracer is not None:
                    self.tracer.count("slice_manager.count_shifts")
            else:
                slice_.count_end += 1
            j += 1

    # ------------------------------------------------------------------
    # merges requested by context-aware window types

    def merge_boundary(self, ts: int) -> bool:
        """Merge the two slices meeting at boundary ``ts`` (if allowed)."""
        slices = self._store.slices
        position = bisect.bisect_left(slices, ts, key=slice_start)
        if position <= 0 or position >= len(slices):
            return False
        left, right = slices[position - 1], slices[position]
        if left.end != ts or right.start != ts:
            return False
        if self._edge_in_region(ts, ts) or left.end_kind == Slice.END_COUNT:
            return False
        left.merge_from(right, self.functions)
        self._store.remove_slice(position)
        self._store.slice_updated(position - 1)
        if self.tracer is not None:
            self.tracer.count("slice_manager.merges")
        return True
