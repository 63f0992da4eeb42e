"""The Stream Slicer -- Step 1 of the slicing pipeline (Section 5.3).

The slicer initializes slices on the fly while in-order records arrive.
It caches the timestamp of the next upcoming window edge; the common
case is a single comparison per record ("the majority of tuples do not
end a slice").  When a record passes the cached edge, the open slice is
closed at the edge and a new slice begins.

For out-of-order streams, slices start at window *starts and ends* so
late records can be attributed exactly; for in-order streams, starts
suffice -- both fall out naturally here because ``next_edge`` callbacks
enumerate every registered window edge.

Count-measure edges are tracked separately: the record count advances by
exactly one per record, so count slices close precisely when the
cumulative count reaches the next count edge.

The slicer never sees out-of-order records or watermarks; the operator
routes those straight to the slice manager (Figure 7).
"""

from __future__ import annotations

from typing import Callable, Optional

from .aggregate_store import AggregateStore
from .slice_ import Slice
from .tracing import Tracer

__all__ = ["StreamSlicer"]


class StreamSlicer:
    """On-the-fly slice initialization for in-order records.

    Parameters
    ----------
    store:
        The shared aggregate store that receives new slices.
    next_time_edge:
        Callback returning the smallest registered window edge strictly
        greater than a timestamp (or ``None``).  Supplied by the
        operator, which knows all registered window types.
    floor_time_edge:
        Callback returning the largest window edge at or before a
        timestamp (used to align the first slice of a stream / gap).
    next_count_edge:
        Like ``next_time_edge`` but in the count measure (or ``None``
        when no count-based query is registered).
    store_records, track_counts:
        Workload-characteristic switches from the decision tree.
    edges_move:
        ``True`` when a registered window (e.g. a session) has tentative
        edges that move as records arrive; the cached edge is then
        refreshed after every record instead of being reused.
    """

    def __init__(
        self,
        store: AggregateStore,
        next_time_edge: Callable[[int], Optional[int]],
        floor_time_edge: Callable[[int], Optional[int]],
        next_count_edge: Optional[Callable[[int], Optional[int]]] = None,
        store_records: bool = False,
        track_counts: bool = False,
        edges_move: bool = False,
    ) -> None:
        self._store = store
        self._next_time_edge = next_time_edge
        self._floor_time_edge = floor_time_edge
        self._next_count_edge = next_count_edge
        self._store_records = store_records
        self._track_counts = track_counts
        self._edges_move = edges_move
        self._cached_time_edge: Optional[int] = None
        self._cached_count_edge: Optional[int] = None
        self._cache_valid = False
        #: Whether the last ensure_open_slice call closed/opened a slice
        #: (windows can only end at slice cuts, so emission checks key off it).
        self.cut_performed = False
        #: Ablation switch: disable the cached next-edge so every record
        #: recomputes the upcoming window edge (the paper's Step 1
        #: optimization turned off; see benchmarks/test_ablations.py).
        self.cache_edges = True
        #: Observability sink; ``None`` (the default) is the no-op fast
        #: path -- attached by ``WindowOperator.enable_tracing()``.
        self.tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------

    @property
    def store_records(self) -> bool:
        return self._store_records

    @store_records.setter
    def store_records(self, value: bool) -> None:
        self._store_records = value

    def invalidate_cache(self) -> None:
        """Force recomputation of the cached edges (workload changed)."""
        self._cache_valid = False

    def _num_functions(self) -> int:
        return len(self._store.functions)

    def _open_new_head(self, start_ts: int, count_start: Optional[int]) -> Slice:
        head = Slice(
            start_ts,
            None,
            self._num_functions(),
            store_records=self._store_records,
            count_start=count_start if self._track_counts else None,
        )
        self._store.append_slice(head)
        if self.tracer is not None:
            self.tracer.count("slicer.slices_created")
        return head

    def _close_head(self, end_ts: int, count_end: Optional[int], kind: str = Slice.END_TIME) -> None:
        head = self._store.head
        if head is None or head.end is not None:
            return
        head.end = end_ts
        head.end_kind = kind
        if self._track_counts:
            head.count_end = count_end

    def ensure_open_slice(self, ts: int, count_position: int) -> Slice:
        """Guarantee an open head slice covering ``ts``; cut passed edges.

        ``count_position`` is the number of records processed before the
        incoming one (its zero-based count).  Returns the slice that the
        incoming record belongs to.
        """
        self.cut_performed = False
        if not self.cache_edges:
            self._cache_valid = False
        head = self._store.head
        if head is None or head.end is not None:
            self.cut_performed = True
            floor = self._floor_time_edge(ts)
            start = floor if floor is not None else ts
            if head is not None and head.end is not None and start < head.end:
                start = head.end
            head = self._open_new_head(start, count_position)
            self._refresh_time_cache(start)
            self._refresh_count_cache(count_position)
            self._cache_valid = True

        if not self._cache_valid:
            # Edges up to the last processed record (or the slice start)
            # have already been cut; resume the search from there.
            base = head.start if head.last_ts is None else max(head.start, head.last_ts)
            self._refresh_time_cache(base)
            # Likewise in the count measure: the last record sits at
            # ``count_position - 1``, so an edge *at* the incoming
            # record's position is still uncut unless the head opened there.
            count_base = count_position - 1
            if head.count_start is not None and head.count_start > count_base:
                count_base = head.count_start
            self._refresh_count_cache(count_base)
            self._cache_valid = True

        # --- time-measure cuts ------------------------------------------
        if self._cached_time_edge is not None and ts >= self._cached_time_edge:
            self.cut_performed = True
            first_edge = self._cached_time_edge
            # Find the last edge <= ts so empty regions get no slices.
            last_edge = first_edge
            while True:
                nxt = self._next_time_edge(last_edge)
                if nxt is None or nxt > ts:
                    break
                last_edge = nxt
            self._close_head(first_edge, count_position)
            head = self._open_new_head(last_edge, count_position)
            self._refresh_time_cache(last_edge)

        # --- count-measure cuts -----------------------------------------
        if self._cached_count_edge is not None and count_position >= self._cached_count_edge:
            # Counts advance by one, so equality holds on the in-order path.
            self.cut_performed = True
            head = self._store.head
            if head is not None and head.end is None and head.record_count > 0:
                boundary_ts = ts
                self._close_head(boundary_ts, count_position, kind=Slice.END_COUNT)
                head = self._open_new_head(boundary_ts, count_position)
            elif head is not None:
                head.count_start = count_position if self._track_counts else None
            self._refresh_count_cache(count_position)

        head = self._store.head
        assert head is not None and head.end is None
        if self.cut_performed and self.tracer is not None:
            self.tracer.count("slicer.cuts")
        return head

    def after_record(self, ts: int) -> None:
        """Post-record hook: refresh moving (session) edges."""
        if self._edges_move:
            self._refresh_time_cache(ts)

    def _refresh_time_cache(self, base: int) -> None:
        self._cached_time_edge = self._next_time_edge(base)
        if self.tracer is not None:
            self.tracer.count("slicer.edge_lookups")

    def _refresh_count_cache(self, count_position: int) -> None:
        if self._next_count_edge is None:
            self._cached_count_edge = None
        else:
            self._cached_count_edge = self._next_count_edge(count_position)

    @property
    def cached_time_edge(self) -> Optional[int]:
        """The cached upcoming window edge (exposed for tests)."""
        return self._cached_time_edge

    @property
    def cached_count_edge(self) -> Optional[int]:
        return self._cached_count_edge
