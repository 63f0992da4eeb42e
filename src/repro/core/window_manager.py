"""The Window Manager -- Step 3 of the slicing pipeline (Section 5.3).

The window manager computes final window aggregates from slice
aggregates.  On in-order streams every record acts as a watermark with
the record's timestamp; on out-of-order streams, explicit watermarks
drive emission and late records (within the allowed lateness) produce
*update* results for windows that were already emitted.

Responsibilities:

* enumerate windows that ended in ``(prev_wm, curr_wm]`` for every
  registered query and emit their aggregates (one final ``lower`` each);
* derive session windows from slice activity metadata (``first_ts`` /
  ``last_ts``) and emit sessions whose gap timed out before the
  watermark;
* resolve count-measure windows against the cumulative record counts
  maintained on slices, splitting slices on demand for multi-measure
  (FCA) window starts;
* re-emit updated aggregates when the operator reports a late record
  or a late edge inside the already-emitted region;
* slide, rather than refold, the windows of a query whose partials can
  be subtracted exactly (the removal strategy of Section 5.4 / Figure 6
  on the emit path): the previous window's partial ⊖ the slices that
  left ⊕ the slices that entered.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..aggregations.base import AggregateFunction, AggregationClass
from ..windows.base import ContextClass
from ..windows.multimeasure import LastNEveryWindow
from ..windows.session import SessionWindow
from ..windows.sliding import SlidingWindow
from .aggregate_store import AggregateStore, SharedQueryPlan
from .measures import MeasureKind
from .slice_manager import SliceManager
from .slots import set_slot_state, slot_state
from .types import WindowResult

__all__ = ["WindowManager", "ManagedQuery"]

_NO_WALK = (0, None, None)


class ManagedQuery:
    """A query as seen by the window manager of one slicing chain."""

    __slots__ = ("query_id", "window", "function", "fn_index")

    def __init__(self, query_id: int, window, function: AggregateFunction, fn_index: int) -> None:
        self.query_id = query_id
        self.window = window
        self.function = function
        self.fn_index = fn_index


class WindowManager:
    """Final aggregation and emission for one slicing chain."""

    __slots__ = (
        "_store",
        "_manager",
        "_emit_empty",
        "_share_windows",
        "_queries",
        "_prev_wm",
        "_emitted",
        "_count_hwm",
        "_emitted_edges",
        "_carries",
        "_session_walk",
    )

    #: Minimum upper-bound on saved slice combines (total spanned slices
    #: minus the widest range) before a trigger batch goes through the
    #: :class:`SharedQueryPlan`; below it, direct per-window queries are
    #: cheaper than the plan's grouping.  Results are identical either
    #: way -- this is purely a cost crossover.
    share_min_savings = 8

    def __init__(
        self,
        store: AggregateStore,
        slice_manager: SliceManager,
        *,
        emit_empty: bool = False,
        share_windows: bool = True,
    ) -> None:
        self._store = store
        self._manager = slice_manager
        self._emit_empty = emit_empty
        #: Batch each watermark's time-window queries over a lazy store
        #: through a :class:`SharedQueryPlan` so overlapping windows
        #: reuse partials.  Off only for ablations.
        self._share_windows = share_windows
        self._queries: List[ManagedQuery] = []
        self._prev_wm: Optional[int] = None
        #: Emitted (start, end) pairs per query, pruned on eviction.  Kept
        #: for windows whose extent depends on the records (sessions,
        #: context-aware time windows); a context-free time window ends in
        #: ``(_prev_wm, wm]`` exactly once, so its set stays empty.
        self._emitted: Dict[int, Set[Tuple[int, int]]] = {}
        #: Emitted high-water mark in the count domain per count query.
        self._count_hwm: Dict[int, int] = {}
        #: Per multi-measure query: each emitted trigger edge and the
        #: record count before it that its window was resolved to.
        self._emitted_edges: Dict[int, Dict[int, int]] = {}
        #: Per query whose windows slide (see :meth:`_slide`): the carry,
        #: ``(start, end, lo, hi, partial, non-empty slices)`` of its last
        #: emitted window, or ``None`` while there is nothing to slide
        #: from.  A cache over the slices, not state: it is rebuilt by one
        #: fold and never enters a pickle.  Its partial is its own, a
        #: private copy that :meth:`_slide` edits in place.
        self._carries: Dict[int, Optional[tuple]] = {}
        #: How far :meth:`pin_horizon` has grouped the front of the chain
        #: into sessions: ``(slices walked, first_ts, last_ts)``, the
        #: last two of the session the walk stands in.  A cache like the
        #: carries, so that a session that stays open is not walked
        #: again behind every slice cut.
        self._session_walk: tuple = _NO_WALK

    def __getstate__(self) -> dict:
        return slot_state(self, leave_out=("_carries", "_session_walk"))

    def __setstate__(self, state: dict) -> None:
        set_slot_state(self, state)
        self._carries = {}
        self._session_walk = _NO_WALK
        for managed in self._queries:
            self._register_carry(managed)

    # ------------------------------------------------------------------
    # registration

    def add_query(self, managed: ManagedQuery) -> None:
        self._queries.append(managed)
        self._emitted.setdefault(managed.query_id, set())
        if isinstance(managed.window, LastNEveryWindow):
            self._emitted_edges.setdefault(managed.query_id, {})
        self._register_carry(managed)

    def _register_carry(self, managed: ManagedQuery) -> None:
        """Decide, once per query, whether its windows slide.

        Only windows that overlap their predecessor can slide: a time
        :class:`SlidingWindow` whose slide is shorter than its length.
        Tumbling, edge-list and punctuation windows never overlap, and a
        carry there would be seeded by every emit and dropped by the
        next.  Holistic partials only: they cost O(distinct values) to
        fold per slice and a multiset subtracts exactly.  Distributive
        and algebraic partials fold in O(1) per slice, and over floats
        ``(x ⊕ y) ⊖ y`` is not ``x`` bit for bit, so they stay a left
        fold.  Only the shared time-window path of :meth:`advance`
        consults the carry.
        """
        function = managed.function
        window = managed.window
        if (
            self._share_windows
            and isinstance(window, SlidingWindow)
            and window.measure_kind is MeasureKind.TIME
            and window.slide < window.length
            and function.kind is AggregationClass.HOLISTIC
            and function.commutative
            and function.invertible
            and function.exact_invert
        ):
            self._carries[managed.query_id] = None

    def remove_query(self, query_id: int) -> None:
        self._queries = [q for q in self._queries if q.query_id != query_id]
        self._emitted.pop(query_id, None)
        self._count_hwm.pop(query_id, None)
        self._emitted_edges.pop(query_id, None)
        self._carries.pop(query_id, None)

    @property
    def queries(self) -> Sequence[ManagedQuery]:
        return self._queries

    @property
    def watermark(self) -> Optional[int]:
        return self._prev_wm

    # ------------------------------------------------------------------
    # emission on watermark progress

    def advance(self, wm: int) -> List[WindowResult]:
        """Emit all windows that ended at or before ``wm``.

        Time-window queries are collected and answered together --
        over a lazy store through one :class:`SharedQueryPlan`, so
        overlapping windows (across all queries of this chain) reuse
        each other's slice-range partials; placeholder slots keep the
        emission order identical to per-window evaluation.
        """
        prev = self._prev_wm
        if prev is not None and wm <= prev:
            return []
        results: List[WindowResult] = []
        if prev is not None:
            lower_bound = prev
        else:
            # First advance: no window ending before the first slice can
            # contain records, so start enumerating there.
            earliest = self._store.slices[0].start if self._store.slices else wm
            lower_bound = min(earliest, wm) - 1
        share = self._share_windows
        # Decided once per advance: a watermark ahead of the newest record
        # (an idle source waking up, a flush) closes only empty windows past
        # that record's flush horizon.  They have no result and were never
        # emitted, so they are not walked: the jump costs what it closes.
        # Worth a ``flush_horizon`` per query only when the empty tail is the
        # longer part of the walk; else the walk is at most twice too long.
        newest = wm if self._emit_empty else self.newest_record_ts()
        clamp = newest is not None and wm - newest > newest - lower_bound
        pending: List[Tuple[int, ManagedQuery, int, int, int, int]] = []
        for managed in self._queries:
            window = managed.window
            if isinstance(window, SessionWindow):
                results.extend(self._trigger_sessions(managed, wm))
            elif isinstance(window, LastNEveryWindow):
                results.extend(self._trigger_multimeasure(managed, lower_bound, wm))
            elif window.measure_kind is MeasureKind.COUNT:
                results.extend(self._trigger_count(managed, wm))
            elif newest is None:
                continue  # no record retained: every time window is empty
            else:
                upto = min(wm, window.flush_horizon(newest)) if clamp else wm
                self._trigger_time(managed, lower_bound, upto, share, pending, results)
        if pending:
            # Sharing pays when the trigger batch re-covers slice ranges
            # (nested sliding windows, many queries) of a lazy store; for
            # one window, or a few short disjoint ranges, the plan's
            # grouping machinery costs more than the handful of combines
            # it saves.  The upper bound on saved combines is the total
            # spanned length minus the widest range (perfect nesting).
            # An eager store's kernels answer a range in O(1) or
            # O(log s): its windows resolve directly.
            shared = self._store.shared_suffix_folding and len(pending) >= 2
            if shared:
                spans = [hi - lo for _, _, _, _, lo, hi in pending]
                shared = sum(spans) - max(spans) >= self.share_min_savings
            if shared:
                plan = SharedQueryPlan(self._store)
                tokens = [
                    plan.request(lo, hi, managed.fn_index)
                    for _, managed, _, _, lo, hi in pending
                ]
                plan.execute()
                partials = [plan.result(token) for token in tokens]
            else:
                partials = [
                    self._store.query_slices(lo, hi, managed.fn_index)
                    for _, managed, _, _, lo, hi in pending
                ]
            carries = self._carries
            for (slot, managed, start, end, lo, hi), partial in zip(pending, partials):
                if carries and managed.query_id in carries:
                    carries[managed.query_id] = self._seed_carry(
                        managed, start, end, lo, hi, partial
                    )
                if partial is None and not self._emit_empty:
                    continue
                value = managed.function.lower_or_default(partial)
                if managed.window.context is not ContextClass.CONTEXT_FREE:
                    self._emitted[managed.query_id].add((start, end))
                results[slot] = WindowResult(managed.query_id, start, end, value)
            results = [r for r in results if r is not None]
        self._prev_wm = wm
        return results

    def newest_record_ts(self) -> Optional[int]:
        """Event time of the newest retained record (``None`` without one)."""
        for slice_ in reversed(self._store.slices):
            if slice_.last_ts is not None:
                return slice_.last_ts
        return None

    def _trigger_time(
        self,
        managed: ManagedQuery,
        prev: int,
        wm: int,
        share: bool,
        pending: List[Tuple[int, ManagedQuery, int, int, int, int]],
        results: List[WindowResult],
    ) -> None:
        window = managed.window
        emitted = (
            None if window.context is ContextClass.CONTEXT_FREE else self._emitted[managed.query_id]
        )
        slides = managed.query_id in self._carries
        for start, end in window.trigger_windows(prev, wm):
            if emitted is not None and (start, end) in emitted:
                continue
            if not share:
                result = self._time_window_result(managed, start, end, is_update=False)
                if result is not None:
                    if emitted is not None:
                        emitted.add((start, end))
                    results.append(result)
            elif slides and (partial := self._slide(managed, start, end)) is not None:
                if emitted is not None:
                    emitted.add((start, end))
                value = managed.function.lower(partial)
                results.append(WindowResult(managed.query_id, start, end, value))
            else:
                lo, hi = self._query_range(start, end)
                # Reserve the emission slot now; resolved after the
                # whole trigger batch is collected.
                pending.append((len(results), managed, start, end, lo, hi))
                results.append(None)  # type: ignore[arg-type]

    def _query_range(self, start: int, end: int) -> Tuple[int, int]:
        """Slice index range covering time window ``[start, end)``.

        The open head slice has no end yet, but the slicer guarantees it
        holds no record at/after the next uncut window edge, so it is
        included whenever its records provably precede the window end.
        """
        lo, hi = self._store.range_indices(start, end)
        if self._open_head_at(hi, start, end):
            hi += 1
        return lo, hi

    def _open_head_at(self, hi: int, start: int, end: int) -> bool:
        """Whether slice ``hi`` is the open head and belongs to ``[start, end)``."""
        slices = self._store.slices
        if hi >= len(slices):
            return False
        head = slices[hi]
        return (
            head.end is None
            and head.start >= start
            and (head.last_ts is None or head.last_ts < end)
        )

    # ------------------------------------------------------------------
    # sliding a window's result (Section 5.4 / Figure 6 on the emit path)

    def _slide(self, managed: ManagedQuery, start: int, end: int) -> Any:
        """The partial of window ``[start, end)`` from the query's carry.

        The previous window's partial ⊖ the slices that left ⊕ the
        slices that entered, both found by walking on from the carried
        ``lo`` / ``hi``: O(slices that changed) instead of O(slices in
        the window).  Returns ``None``, and carries nothing, when the
        window has to be folded instead -- no carry, no overlap with
        it, the open head in range (it can still grow), or no record
        left in range (the fold's ``None``); the fold then reseeds the
        carry (:meth:`_seed_carry`).

        A carry is valid while slices ``[lo, hi)`` are the closed slices
        it was computed from, at those indices.  Appends never disturb
        that; whatever else changes a slice reaches the window manager
        first, which drops the carries it may touch:
        :meth:`on_modification` for a change behind the watermark (one
        at or after it lands at an index >= every carried ``hi``).
        Eviction spares the carried slices (:meth:`pin_horizon`) and
        moves the carry down with them (:meth:`prune_emitted`).
        """
        store = self._store
        tracer = store.tracer
        carries = self._carries
        query_id = managed.query_id
        carry = carries[query_id]
        if carry is not None:
            carried_start, carried_end, carried_lo, carried_hi, partial, nonempty = carry
            if carried_start <= start < carried_end <= end:
                slices = store.slices
                size = len(slices)
                fn_index = managed.fn_index
                # The walks collect the non-empty partials on their way,
                # what two ``store._range_partials`` calls would return.
                left = []
                lo = carried_lo
                while lo < size and (slice_ := slices[lo]).start < start:
                    if (agg := slice_.aggs[fn_index]) is not None:
                        left.append(agg)
                    lo += 1
                entered = []
                hi = carried_hi
                while hi < size and (slice_ := slices[hi]).end is not None and slice_.end <= end:
                    if (agg := slice_.aggs[fn_index]) is not None:
                        entered.append(agg)
                    hi += 1
                if not self._open_head_at(hi, start, end):
                    if tracer is not None:
                        # As ``store._range_partials`` counts each read.
                        for first, stop in ((carried_lo, lo), (carried_hi, hi)):
                            if stop > first:
                                tracer.count("store.range_queries")
                                tracer.count("store.slices_combined", stop - first)
                    nonempty += len(entered) - len(left)
                    if nonempty:
                        partial = managed.function.slide_in_place(partial, left, entered)
                        carries[query_id] = (start, end, lo, hi, partial, nonempty)
                        if tracer is not None:
                            tracer.count("window.slides")
                        return partial
            carries[query_id] = None
        if tracer is not None:
            tracer.count("window.refolds")
        return None

    def _seed_carry(
        self, managed: ManagedQuery, start: int, end: int, lo: int, hi: int, partial: Any
    ) -> Optional[tuple]:
        """The carry for a window just folded over slices ``[lo, hi)``.

        The fold's partial may be a slice's own (a range with one
        non-empty slice), a kernel leaf or a plan result another query
        shares, and :meth:`_slide` edits the carried one in place: the
        carry keeps a private copy.
        """
        slices = self._store.slices
        if partial is None or slices[hi - 1].end is None:
            return None
        fn_index = managed.fn_index
        nonempty = sum(1 for slice_ in slices[lo:hi] if slice_.aggs[fn_index] is not None)
        return (start, end, lo, hi, managed.function.private_copy(partial), nonempty)

    def _time_window_result(
        self, managed: ManagedQuery, start: int, end: int, is_update: bool
    ) -> Optional[WindowResult]:
        lo, hi = self._query_range(start, end)
        partial = self._store.query_slices(lo, hi, managed.fn_index)
        if partial is None and not self._emit_empty:
            return None
        value = managed.function.lower_or_default(partial)
        return WindowResult(managed.query_id, start, end, value, is_update)

    # ------------------------------------------------------------------
    # sessions

    def current_sessions(self, gap: int) -> List[Tuple[int, int, int, int]]:
        """Group slices into sessions by activity gaps.

        Returns ``(first_ts, last_ts, lo_index, hi_index)`` per session,
        where ``[lo, hi)`` is the covered slice index range (non-empty
        slices only at the boundaries, empties inside are skipped).
        """
        sessions: List[Tuple[int, int, int, int]] = []
        current: Optional[List[int]] = None  # [first_ts, last_ts, lo, hi]
        for index, slice_ in enumerate(self._store.slices):
            if slice_.is_empty():
                continue
            assert slice_.first_ts is not None and slice_.last_ts is not None
            if current is not None and slice_.first_ts - current[1] < gap:
                current[1] = max(current[1], slice_.last_ts)
                current[3] = index + 1
            else:
                if current is not None:
                    sessions.append(tuple(current))  # type: ignore[arg-type]
                current = [slice_.first_ts, slice_.last_ts, index, index + 1]
        if current is not None:
            sessions.append(tuple(current))  # type: ignore[arg-type]
        return sessions

    def _trigger_sessions(self, managed: ManagedQuery, wm: int) -> List[WindowResult]:
        window: SessionWindow = managed.window
        results: List[WindowResult] = []
        emitted = self._emitted[managed.query_id]
        for first_ts, last_ts, lo, hi in self.current_sessions(window.gap):
            end = last_ts + window.gap
            if end > wm:
                continue  # session not yet timed out
            if (first_ts, end) in emitted:
                continue
            partial = self._store.query_slices(lo, hi, managed.fn_index)
            value = managed.function.lower_or_default(partial)
            emitted.add((first_ts, end))
            results.append(WindowResult(managed.query_id, first_ts, end, value))
        return results

    # ------------------------------------------------------------------
    # count-measure windows

    def _evicted_count(self) -> int:
        """Records of the slices evicted so far: the count position at
        which the first retained slice starts."""
        slices = self._store.slices
        return (slices[0].count_start or 0) if slices else 0

    def completed_count(self, wm: int) -> int:
        """Largest cumulative count whose records are all at/before ``wm``.

        Record timestamps never decrease along the chain, so the count is
        settled by the last slice holding a record at or before ``wm``,
        found from the back: O(1) on an in-order stream, where that is
        the head.
        """
        for slice_ in reversed(self._store.slices):
            if slice_.record_count == 0:
                continue
            assert slice_.last_ts is not None
            base = slice_.count_start or 0
            if slice_.last_ts <= wm:
                return base + slice_.record_count
            if slice_.records is not None:
                within = bisect.bisect_right(slice_.records, wm, key=lambda r: r.ts)
                if within:
                    return base + within
        return self._evicted_count()

    def _trigger_count(self, managed: ManagedQuery, wm: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        completed = self.completed_count(wm)
        previous = self._count_hwm.get(managed.query_id, 0)
        if completed <= previous:
            return results
        for start, end in managed.window.trigger_windows(previous, completed):
            value = self._count_window_value(managed, start, end)
            if value is None and not self._emit_empty:
                continue
            results.append(WindowResult(managed.query_id, start, end, value))
        self._count_hwm[managed.query_id] = completed
        return results

    def _count_window_value(self, managed: ManagedQuery, start: int, end: int):
        partial = self._query_count_exact(start, end, managed.fn_index)
        if partial is None:
            return managed.function.empty_result() if self._emit_empty else None
        return managed.function.lower(partial)

    def _query_count_exact(self, count_start: int, count_end: int, fn_index: int):
        """Combine the records with positions in ``[count_start, count_end)``.

        Full slices contribute their precomputed partial; a partially
        covered slice (possible only for the open head or mid-slice FCA
        starts) contributes a fold over its stored records.
        """
        function = self._store.functions[fn_index]
        pieces = []
        slices = self._store.slices
        # Slices are ordered by cumulative count; skip straight to the
        # first slice that can intersect the queried range.
        lo = bisect.bisect_right(
            slices, count_start, key=lambda s: (s.count_start or 0) + s.record_count
        )
        for slice_ in slices[lo:]:
            base = slice_.count_start
            if base is None:
                continue
            hi = base + slice_.record_count
            if hi <= count_start:
                continue
            if base >= count_end:
                break
            if base >= count_start and hi <= count_end and (
                slice_.count_end is not None or hi <= count_end
            ):
                piece = slice_.aggs[fn_index]
            else:
                if slice_.records is None:
                    raise AssertionError(f"a count window covers part of record-less {slice_!r}")
                lo_off = max(0, count_start - base)
                hi_off = min(slice_.record_count, count_end - base)
                piece = function.fold_values(
                    None, [record.value for record in slice_.records[lo_off:hi_off]]
                )
            if piece is not None:
                pieces.append(piece)
        return function.combine_all(pieces)

    # ------------------------------------------------------------------
    # multi-measure (FCA) windows

    def _cumulative_count_at(self, edge_ts: int) -> int:
        """Number of records with event-time strictly before ``edge_ts``."""
        total = self._evicted_count()
        for slice_ in self._store.slices:
            if slice_.end is not None and slice_.end <= edge_ts:
                total += slice_.record_count
            elif slice_.start < edge_ts:
                if slice_.records is not None:
                    total += bisect.bisect_left(slice_.records, edge_ts, key=lambda r: r.ts)
                else:
                    total += slice_.record_count
            else:
                break
        return total

    def _trigger_multimeasure(
        self, managed: ManagedQuery, prev: int, wm: int
    ) -> List[WindowResult]:
        window: LastNEveryWindow = managed.window
        results: List[WindowResult] = []
        emitted = self._emitted_edges[managed.query_id]
        for edge in window.time_edges_between(prev, wm):
            if edge in emitted:
                continue
            end = self._cumulative_count_at(edge)
            if end <= 0:
                continue  # no record before the edge: no window
            start = max(0, end - window.count)
            # Exercise the split path for interior window starts.
            self._manager.ensure_count_boundary(start)
            value = self._count_window_value(managed, start, end)
            emitted[edge] = end
            if value is None and not self._emit_empty:
                continue
            results.append(WindowResult(managed.query_id, start, end, value))
        return results

    # ------------------------------------------------------------------
    # late updates (allowed lateness)

    def on_modification(self, ts: int, count_position: Optional[int] = None) -> List[WindowResult]:
        """Re-emit windows already triggered that a change at ``ts`` touches:
        a late record (at global record position ``count_position`` on a
        count chain) or a late edge."""
        self._session_walk = _NO_WALK  # a slice was changed, split or merged away
        wm = self._prev_wm
        if wm is None or ts >= wm:
            # Every emitted window ends at or before the watermark and all
            # its records precede it; a modification at/after the watermark
            # cannot touch any of them (this also covers count positions:
            # emitted count windows contain only records with ts <= wm).
            return []
        # Behind the watermark a slice changed, appeared or was split:
        # carried partials and indices may be stale.
        if self._carries:
            self._carries = dict.fromkeys(self._carries)
        results: List[WindowResult] = []
        for managed in self._queries:
            window = managed.window
            if isinstance(window, SessionWindow):
                results.extend(self._update_sessions(managed, ts, wm))
            elif isinstance(window, LastNEveryWindow):
                results.extend(self._update_multimeasure(managed, ts))
            elif window.measure_kind is MeasureKind.COUNT:
                if count_position is not None:
                    results.extend(self._update_count(managed, count_position))
            else:
                results.extend(self._update_time(managed, ts, wm))
        return results

    def _update_time(self, managed: ManagedQuery, ts: int, wm: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        window = managed.window
        if window.context is ContextClass.CONTEXT_FREE:
            # Every window that ends at or before the watermark has been
            # triggered (or was empty until now): always an update.
            for start, end in window.assign_windows(ts):
                if end <= wm:
                    result = self._time_window_result(managed, start, end, is_update=True)
                    if result is not None:
                        results.append(result)
            return results
        emitted = self._emitted[managed.query_id]
        # A late edge (e.g. punctuation) changes the windows on *both*
        # sides of the modification point: re-derive them.
        pairs = set(window.assign_windows(ts))
        pairs.update(window.assign_windows(ts - 1))
        for start, end in sorted(pairs):
            if end > wm:
                continue  # not emitted yet; the regular trigger will cover it
            # Context-aware windows never overlap each other: emitted
            # windows overlapping the re-derived one were replaced by
            # the new edge and must be retracted.
            overlapped = [
                pair
                for pair in emitted
                if pair != (start, end) and not (pair[1] <= start or pair[0] >= end)
            ]
            for pair in overlapped:
                emitted.discard(pair)
            was_known = (start, end) in emitted or bool(overlapped)
            result = self._time_window_result(managed, start, end, is_update=was_known)
            if result is not None:
                emitted.add((start, end))
                results.append(result)
        return results

    def _update_sessions(self, managed: ManagedQuery, ts: int, wm: int) -> List[WindowResult]:
        window: SessionWindow = managed.window
        results: List[WindowResult] = []
        emitted = self._emitted[managed.query_id]
        for first_ts, last_ts, lo, hi in self.current_sessions(window.gap):
            end = last_ts + window.gap
            if not (first_ts - window.gap <= ts < end):
                continue
            if end > wm:
                # Session now reopened/extended past the watermark: retract
                # bookkeeping so the regular trigger re-emits it later.
                stale = [pair for pair in emitted if pair[0] <= ts < pair[1]]
                for pair in stale:
                    emitted.discard(pair)
                continue
            overlapped = [pair for pair in emitted if not (pair[1] <= first_ts or pair[0] >= end)]
            partial = self._store.query_slices(lo, hi, managed.fn_index)
            value = managed.function.lower_or_default(partial)
            is_update = bool(overlapped)
            for pair in overlapped:
                emitted.discard(pair)
            emitted.add((first_ts, end))
            results.append(
                WindowResult(managed.query_id, first_ts, end, value, is_update=is_update)
            )
        return results

    def _update_count(self, managed: ManagedQuery, position: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        hwm = self._count_hwm.get(managed.query_id, 0)
        if position >= hwm:
            return results
        for start, end in managed.window.trigger_windows(position, hwm):
            if end <= position:
                continue
            value = self._count_window_value(managed, start, end)
            if value is None:
                continue
            results.append(WindowResult(managed.query_id, start, end, value, is_update=True))
        # The insertion shifted counts: windows previously beyond the high
        # water mark may now be complete; re-derive on the next watermark.
        return results

    def _update_multimeasure(self, managed: ManagedQuery, ts: int) -> List[WindowResult]:
        window: LastNEveryWindow = managed.window
        results: List[WindowResult] = []
        emitted = self._emitted_edges[managed.query_id]
        for edge in sorted(emitted):
            if edge <= ts:
                continue
            end = self._cumulative_count_at(edge)
            if emitted[edge] == end:
                continue
            emitted[edge] = end
            start = max(0, end - window.count)
            self._manager.ensure_count_boundary(start)
            value = self._count_window_value(managed, start, end)
            if value is None:
                continue
            results.append(WindowResult(managed.query_id, start, end, value, is_update=True))
        return results

    # ------------------------------------------------------------------
    # housekeeping

    def pin_horizon(self, horizon: int, session_gap: Optional[int]) -> int:
        """``horizon`` (see :meth:`~repro.core.aggregate_store.AggregateStore.
        evict_before`), lowered to what eviction must spare although no
        window reaches back to it.

        * A carry keeps the slices from its window's start on: the next
          slide has to ⊖ them, and a window's reach runs ahead of the
          last emitted one by up to a slide when the length is not a
          multiple of it.
        * A session is evicted whole or not at all.  Its tail slice can
          outlive its front ones (another query's edges cut it, or it is
          the open head); what is left would come back as a session of
          its own.  So a session, grouped by ``session_gap`` (the
          chain's largest), that has a record on either side of the
          horizon -- the carries' included -- pins it at its ``first_ts``:
          every slice of it ends after that, every slice before it at or
          before.

        The slices that end at or before the horizon are grouped once:
        they are closed, the walk (``_session_walk``) resumes where it
        stopped, and :meth:`prune_emitted` moves it down with them.
        """
        for carry in self._carries.values():
            if carry is not None and carry[0] < horizon:
                horizon = carry[0]
        if session_gap is None:
            return horizon
        slices = self._store.slices
        walked, first_ts, last_ts = self._session_walk
        if walked and slices[walked - 1].end > horizon:
            walked, first_ts, last_ts = _NO_WALK  # the horizon fell back: a new carry
        size = len(slices)
        while walked < size:
            slice_ = slices[walked]
            if slice_.end is None or slice_.end > horizon:
                break
            if not slice_.is_empty():
                if last_ts is None or slice_.first_ts - last_ts >= session_gap:
                    first_ts = slice_.first_ts
                last_ts = slice_.last_ts
            walked += 1
        self._session_walk = (walked, first_ts, last_ts)
        if last_ts is not None:
            # The session the walk stands in stays if its next record does.
            for index in range(walked, size):
                slice_ = slices[index]
                if slice_.start - last_ts >= session_gap:
                    break
                if not slice_.is_empty():
                    if slice_.first_ts - last_ts < session_gap:
                        horizon = min(horizon, first_ts)
                    break
        return horizon

    def prune_emitted(self, horizon: int, evicted: int) -> None:
        """Forget what the ``evicted`` slices just dropped from the front
        of the store, all ending at or before ``horizon``, stood for.

        Emitted windows and trigger edges (with their counts) at or
        before the horizon go, unless their first slice is still there;
        no session still in the store starts before the horizon
        (:meth:`pin_horizon`).  A carry moves down by the evicted count,
        or is dropped with its first slice; so does the session walk.
        """
        walked, first_ts, last_ts = self._session_walk
        self._session_walk = (walked - evicted, first_ts, last_ts) if evicted < walked else _NO_WALK
        slices = self._store.slices
        # A session that timed out in the open head is still there, and
        # would be emitted again: what starts in a retained slice stays.
        front = slices[0].start if slices else float("inf")
        for query_id, pairs in self._emitted.items():
            if pairs:
                self._emitted[query_id] = {
                    pair for pair in pairs if pair[1] > horizon or pair[0] >= front
                }
        for query_id, edges in self._emitted_edges.items():
            if edges:
                self._emitted_edges[query_id] = {
                    edge: count for edge, count in edges.items() if edge > horizon
                }
        for query_id, carry in self._carries.items():
            if carry is None:
                continue
            start, end, lo, hi, partial, nonempty = carry
            if evicted > lo:
                self._carries[query_id] = None
            else:
                self._carries[query_id] = (start, end, lo - evicted, hi - evicted, partial, nonempty)

    def check_invariants(self) -> None:
        """Assert what :meth:`_slide` and :meth:`pin_horizon` rely on
        (test and fuzz hook).

        Every carry covers exactly the slices of its window, all of them
        closed, and its partial equals the fold over them and is none of
        theirs (a slide edits it in place); the session
        walk stands where grouping the slices it covers anew would.
        Raises ``AssertionError`` naming the first violation.
        """
        slices = self._store.slices
        walked, first_ts, last_ts = self._session_walk
        if walked:
            if walked > len(slices) or slices[walked - 1].end is None:
                raise AssertionError(f"session walk covers {walked} closed slices of {len(slices)}")
            gap = max(q.window.gap for q in self._queries if isinstance(q.window, SessionWindow))
            regrouped: tuple = (None, None)
            for slice_ in slices[:walked]:
                if not slice_.is_empty():
                    opens = regrouped[1] is None or slice_.first_ts - regrouped[1] >= gap
                    regrouped = (slice_.first_ts if opens else regrouped[0], slice_.last_ts)
            if (first_ts, last_ts) != regrouped:
                raise AssertionError(
                    f"session walk over {walked} slices stands in {(first_ts, last_ts)}, "
                    f"the slices group to {regrouped}"
                )
        queries = {managed.query_id: managed for managed in self._queries}
        for query_id, carry in self._carries.items():
            if carry is None:
                continue
            start, end, lo, hi, partial, nonempty = carry
            where = f"carry of query {query_id} for window [{start}, {end})"
            if not 0 <= lo < hi <= len(slices):
                raise AssertionError(f"{where} covers slices [{lo}, {hi}) of {len(slices)}")
            if slices[hi - 1].end is None:
                raise AssertionError(f"{where} ends in the open head")
            if (lo, hi) != self._query_range(start, end):
                raise AssertionError(
                    f"{where} covers slices [{lo}, {hi}), the window "
                    f"{self._query_range(start, end)}"
                )
            managed = queries[query_id]
            parts = [
                agg for slice_ in slices[lo:hi] if (agg := slice_.aggs[managed.fn_index]) is not None
            ]
            if len(parts) != nonempty:
                raise AssertionError(f"{where} counts {nonempty} non-empty slices of {len(parts)}")
            if any(part is partial for part in parts):
                raise AssertionError(f"{where} holds a slice's own partial, which a slide would edit")
            folded = managed.function.combine_all(parts)
            if partial != folded:
                raise AssertionError(f"{where} holds {partial!r}, the slices fold to {folded!r}")
