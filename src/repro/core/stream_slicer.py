"""The Stream Slicer -- Step 1 of the slicing pipeline (Section 5.3).

The slicer initializes slices on the fly while in-order records arrive.
It caches the timestamp of the next upcoming window edge; the common
case is a single comparison per record ("the majority of tuples do not
end a slice").  When a record passes the cached edge, the open slice is
closed at the edge and a new slice begins.

That comparison is published as a guard, :attr:`StreamSlicer.open_until`
/ :attr:`StreamSlicer.open_until_count`: while a record sits below both,
the store's last slice is open and receives it, and the operator never
enters the slicer.  Only a record that opens or cuts a slice reaches
:meth:`StreamSlicer.ensure_open_slice`.

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

_NEVER = float("-inf")


def _guard_bound(edge: Optional[int]) -> float:
    """A guard bound from a cached edge: no upcoming edge never cuts."""
    return float("inf") if edge is None else edge


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

    __slots__ = (
        "_store",
        "_next_time_edge",
        "_floor_time_edge",
        "_next_count_edge",
        "_store_records",
        "_track_counts",
        "_edges_move",
        "_cache_edges",
        "_cached_time_edge",
        "_cached_count_edge",
        "_cache_valid",
        "cut_performed",
        "open_until",
        "open_until_count",
        "tracer",
    )

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
        #: Backs :attr:`cache_edges` (on unless the ablation turns it off).
        self._cache_edges = True
        self._cached_time_edge: Optional[int] = None
        self._cached_count_edge: Optional[int] = None
        self._cache_valid = False
        #: Whether the last ensure_open_slice call closed/opened a slice
        #: (windows can only end at slice cuts, so emission checks key off it).
        self.cut_performed = False
        #: The guard: a record with ``ts < open_until`` at a count position
        #: ``< open_until_count`` needs no cut and belongs to the store's
        #: last slice, which is open.  Armed by :meth:`ensure_open_slice`
        #: from the cached edges (+inf where no edge is upcoming); -inf
        #: whenever that promise cannot be made.  Anything but an in-order
        #: record reaching the chain must :meth:`disarm` it.
        self.open_until: float = _NEVER
        self.open_until_count: float = _NEVER
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

    @property
    def cache_edges(self) -> bool:
        """Ablation switch: ``False`` disables the cached next-edge, so
        every record recomputes the upcoming window edge (the paper's
        Step 1 optimization turned off; see benchmarks/test_ablations.py)."""
        return self._cache_edges

    @cache_edges.setter
    def cache_edges(self, value: bool) -> None:
        self._cache_edges = value
        self.invalidate_cache()

    def disarm(self) -> None:
        """Withdraw the guard: the next record enters :meth:`ensure_open_slice`."""
        self.open_until = self.open_until_count = _NEVER

    def invalidate_cache(self) -> None:
        """Force recomputation of the cached edges (workload changed)."""
        self._cache_valid = False
        self.disarm()

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
        slices = self._store.slices
        if not slices or slices[-1].end is not None:
            return
        head = slices[-1]
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
        slices = self._store.slices
        if ts < self.open_until and count_position < self.open_until_count:
            return slices[-1]
        if not self._cache_edges:
            self._cache_valid = False
        head = slices[-1] if slices else None
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
            # Find the last edge <= ts so empty regions get no slices; the
            # probe past it is the next edge, and the only lookup cached.
            last_edge = first_edge
            while True:
                nxt = self._next_time_edge(last_edge)
                if nxt is None or nxt > ts:
                    break
                last_edge = nxt
            self._close_head(first_edge, count_position)
            head = self._open_new_head(last_edge, count_position)
            self._cache_time_edge(nxt)

        # --- count-measure cuts -----------------------------------------
        if self._cached_count_edge is not None and count_position >= self._cached_count_edge:
            # Counts advance by one, so equality holds on the in-order path.
            self.cut_performed = True
            if head.record_count > 0:
                boundary_ts = ts
                self._close_head(boundary_ts, count_position, kind=Slice.END_COUNT)
                head = self._open_new_head(boundary_ts, count_position)
            else:
                head.count_start = count_position if self._track_counts else None
            self._refresh_count_cache(count_position)

        assert head.end is None
        if self.cut_performed and self.tracer is not None:
            self.tracer.count("slicer.cuts")
        if self._cache_edges and not self._edges_move:
            # Arm the guard: until one of these edges, the head stays open.
            self.open_until = _guard_bound(self._cached_time_edge)
            self.open_until_count = _guard_bound(self._cached_count_edge)
        return head

    def after_record(self, ts: int) -> None:
        """Post-record hook: refresh moving (session) edges."""
        if self._edges_move:
            self._refresh_time_cache(ts)
            self.disarm()

    def _refresh_time_cache(self, base: int) -> None:
        self._cache_time_edge(self._next_time_edge(base))

    def _cache_time_edge(self, edge: Optional[int]) -> None:
        """Cache ``edge``, the one next-edge lookup of an open, a cut or
        a refresh (``slicer.edge_lookups``)."""
        self._cached_time_edge = edge
        if self.tracer is not None:
            self.tracer.count("slicer.edge_lookups")

    def _refresh_count_cache(self, count_position: int) -> None:
        if self._next_count_edge is None:
            self._cached_count_edge = None
        else:
            self._cached_count_edge = self._next_count_edge(count_position)

    def check_invariants(self) -> None:
        """Assert what an armed guard promises (test and fuzz hook).

        A disarmed guard promises nothing.  An armed one stands for the
        comparison :meth:`ensure_open_slice` would make, so everything
        that comparison relies on must hold: an open last slice, a valid
        cache whose edges are the guard's, fixed edges, the cache on.
        """
        if self.open_until == _NEVER and self.open_until_count == _NEVER:
            return
        slices = self._store.slices
        problems = {
            "the store holds no slice": not slices,
            "the last slice is closed": bool(slices) and slices[-1].end is not None,
            "the edge cache is invalid": not self._cache_valid,
            "cache_edges is off": not self._cache_edges,
            "a window of the chain has moving edges": self._edges_move,
            f"open_until {self.open_until} is not the cached time edge "
            f"{self._cached_time_edge}": self.open_until != _guard_bound(self._cached_time_edge),
            f"open_until_count {self.open_until_count} is not the cached count edge "
            f"{self._cached_count_edge}": self.open_until_count
            != _guard_bound(self._cached_count_edge),
        }
        broken = [name for name, failed in problems.items() if failed]
        if broken:
            raise AssertionError("slicer guard is armed but " + "; ".join(broken))

    @property
    def cached_time_edge(self) -> Optional[int]:
        """The cached upcoming window edge (exposed for tests)."""
        return self._cached_time_edge

    @property
    def cached_count_edge(self) -> Optional[int]:
        return self._cached_count_edge
