"""Shared window-trigger engine for record-buffer baselines.

The Tuple Buffer (Section 3.1) and the Aggregate Tree (Section 3.2)
both keep the *individual records* of the allowed lateness in
event-time order and differ only in how a range of records is folded
into an aggregate.  This module factors the common part out: the
:class:`BufferTriggerEngine` enumerates ended windows on watermark
progress, computes their aggregates through the operator's record view,
and emits update results for late arrivals -- the same output semantics
as the slicing operator.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.characteristics import Query
from ..core.measures import MeasureKind
from ..core.types import WindowResult
from ..windows.base import ContextClass
from ..windows.multimeasure import LastNEveryWindow
from ..windows.session import SessionWindow

__all__ = ["BufferTriggerEngine"]


class BufferTriggerEngine:
    """Watermark-driven window emission over a sorted record buffer.

    ``view`` is the operator that owns the records: ``view.timestamps()``
    returns the event-times of every retained record, ascending, and
    ``view.fold_range(lo, hi, query)`` the partial aggregate of records
    ``[lo, hi)`` for ``query`` (``None`` when there is none).
    """

    def __init__(self, view: Any, emit_empty: bool = False) -> None:
        self._view = view
        self._emit_empty = emit_empty
        self._queries: List[Query] = []
        self._prev_wm: Optional[int] = None
        self._emitted: Dict[int, Set[Tuple[int, int]]] = {}
        self._count_hwm: Dict[int, int] = {}
        self._emitted_edges: Dict[int, Dict[int, int]] = {}
        #: Count offset of evicted records (count positions are global).
        self.evicted_count = 0

    # ------------------------------------------------------------------

    def set_queries(self, queries: Sequence[Query]) -> None:
        """Register the query set whose windows this engine triggers."""
        self._queries = list(queries)
        for query in queries:
            self._emitted.setdefault(query.query_id, set())
            if isinstance(query.window, LastNEveryWindow):
                self._emitted_edges.setdefault(query.query_id, {})

    @property
    def watermark(self) -> Optional[int]:
        return self._prev_wm

    # ------------------------------------------------------------------
    # emission

    def advance(self, wm: int) -> List[WindowResult]:
        """Emit every window that ended at or before watermark ``wm``."""
        prev = self._prev_wm
        if prev is not None and wm <= prev:
            return []
        timestamps = self._view.timestamps()
        if prev is not None:
            lower = prev
        else:
            lower = (timestamps[0] if timestamps else wm) - 1
            lower = min(lower, wm - 1)
        results: List[WindowResult] = []
        for query in self._queries:
            window = query.window
            if isinstance(window, SessionWindow):
                results.extend(self._trigger_sessions(query, wm))
            elif isinstance(window, LastNEveryWindow):
                results.extend(self._trigger_multimeasure(query, lower, wm))
            elif window.measure_kind is MeasureKind.COUNT:
                results.extend(self._trigger_count(query, wm))
            else:
                results.extend(self._trigger_time(query, lower, wm))
        self._prev_wm = wm
        return results

    def _emit_range(
        self, query: Query, start: int, end: int, lo: int, hi: int, is_update: bool
    ) -> Optional[WindowResult]:
        if hi <= lo and not self._emit_empty:
            return None
        partial = self._view.fold_range(lo, hi, query)
        if partial is None and not self._emit_empty:
            return None
        value = query.aggregation.lower_or_default(partial)
        return WindowResult(query.query_id, start, end, value, is_update)

    def _trigger_time(self, query: Query, prev: int, wm: int) -> List[WindowResult]:
        timestamps = self._view.timestamps()
        results: List[WindowResult] = []
        emitted = self._emitted[query.query_id]
        for start, end in query.window.trigger_windows(prev, wm):
            if (start, end) in emitted:
                continue
            lo = bisect.bisect_left(timestamps, start)
            hi = bisect.bisect_left(timestamps, end)
            result = self._emit_range(query, start, end, lo, hi, is_update=False)
            if result is not None:
                emitted.add((start, end))
                results.append(result)
        return results

    def _sessions(self, gap: int) -> List[Tuple[int, int, int, int]]:
        """(first_ts, last_ts, lo, hi) activity groups over the buffer."""
        timestamps = self._view.timestamps()
        sessions: List[Tuple[int, int, int, int]] = []
        lo = 0
        for index in range(1, len(timestamps) + 1):
            at_end = index == len(timestamps)
            if at_end or timestamps[index] - timestamps[index - 1] >= gap:
                sessions.append((timestamps[lo], timestamps[index - 1], lo, index))
                lo = index
        return sessions

    def _trigger_sessions(self, query: Query, wm: int) -> List[WindowResult]:
        window: SessionWindow = query.window
        results: List[WindowResult] = []
        emitted = self._emitted[query.query_id]
        for first_ts, last_ts, lo, hi in self._sessions(window.gap):
            end = last_ts + window.gap
            if end > wm or (first_ts, end) in emitted:
                continue
            result = self._emit_range(query, first_ts, end, lo, hi, is_update=False)
            if result is not None:
                emitted.add((first_ts, end))
                results.append(result)
        return results

    def _completed_count(self, wm: int) -> int:
        timestamps = self._view.timestamps()
        return self.evicted_count + bisect.bisect_right(timestamps, wm)

    def _trigger_count(self, query: Query, wm: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        completed = self._completed_count(wm)
        previous = self._count_hwm.get(query.query_id, 0)
        if completed <= previous:
            return results
        for start, end in query.window.trigger_windows(previous, completed):
            result = self._emit_count_window(query, start, end, is_update=False)
            if result is not None:
                results.append(result)
        self._count_hwm[query.query_id] = completed
        return results

    def _emit_count_window(
        self, query: Query, start: int, end: int, is_update: bool
    ) -> Optional[WindowResult]:
        lo = start - self.evicted_count
        hi = end - self.evicted_count
        size = len(self._view.timestamps())
        lo = max(lo, 0)
        hi = min(hi, size)
        if hi <= lo:
            return None
        result = self._emit_range(query, start, end, lo, hi, is_update)
        return result

    def _trigger_multimeasure(self, query: Query, prev: int, wm: int) -> List[WindowResult]:
        window: LastNEveryWindow = query.window
        timestamps = self._view.timestamps()
        results: List[WindowResult] = []
        emitted = self._emitted_edges[query.query_id]
        for edge in window.time_edges_between(prev, wm):
            if edge in emitted:
                continue
            cumulative = self.evicted_count + bisect.bisect_left(timestamps, edge)
            emitted[edge] = cumulative
            start = max(0, cumulative - window.count)
            result = self._emit_count_window(query, start, cumulative, is_update=False)
            if result is not None:
                results.append(result)
        return results

    # ------------------------------------------------------------------
    # late updates

    def on_late_record(self, ts: int) -> List[WindowResult]:
        """Re-emit already-triggered windows affected by a late record."""
        wm = self._prev_wm
        if wm is None:
            return []
        timestamps = self._view.timestamps()
        position = self.evicted_count + bisect.bisect_right(timestamps, ts) - 1
        results: List[WindowResult] = []
        for query in self._queries:
            window = query.window
            if isinstance(window, SessionWindow):
                results.extend(self._update_sessions(query, ts, wm))
            elif isinstance(window, LastNEveryWindow):
                results.extend(self._update_multimeasure(query, ts))
            elif window.measure_kind is MeasureKind.COUNT:
                results.extend(self._update_count(query, position))
            elif window.context is ContextClass.CONTEXT_FREE:
                results.extend(self._update_time_cf(query, ts, wm))
            else:
                results.extend(self._update_time_emitted(query, ts, wm))
        return results

    def _update_time_cf(self, query: Query, ts: int, wm: int) -> List[WindowResult]:
        timestamps = self._view.timestamps()
        results: List[WindowResult] = []
        emitted = self._emitted[query.query_id]
        for start, end in query.window.assign_windows(ts):
            if end > wm:
                continue
            lo = bisect.bisect_left(timestamps, start)
            hi = bisect.bisect_left(timestamps, end)
            result = self._emit_range(query, start, end, lo, hi, is_update=True)
            if result is not None:
                emitted.add((start, end))
                results.append(result)
        return results

    def _update_time_emitted(self, query: Query, ts: int, wm: int) -> List[WindowResult]:
        timestamps = self._view.timestamps()
        results: List[WindowResult] = []
        emitted = self._emitted[query.query_id]
        for start, end in list(emitted):
            if not start <= ts < end:
                continue
            lo = bisect.bisect_left(timestamps, start)
            hi = bisect.bisect_left(timestamps, end)
            result = self._emit_range(query, start, end, lo, hi, is_update=True)
            if result is not None:
                results.append(result)
        return results

    def _update_sessions(self, query: Query, ts: int, wm: int) -> List[WindowResult]:
        window: SessionWindow = query.window
        results: List[WindowResult] = []
        emitted = self._emitted[query.query_id]
        for first_ts, last_ts, lo, hi in self._sessions(window.gap):
            end = last_ts + window.gap
            if not (first_ts - window.gap <= ts < end):
                continue
            if end > wm:
                for pair in [p for p in emitted if p[0] <= ts < p[1]]:
                    emitted.discard(pair)
                continue
            overlapped = [p for p in emitted if not (p[1] <= first_ts or p[0] >= end)]
            for pair in overlapped:
                emitted.discard(pair)
            result = self._emit_range(
                query, first_ts, end, lo, hi, is_update=bool(overlapped)
            )
            if result is not None:
                emitted.add((first_ts, end))
                results.append(result)
        return results

    def _update_count(self, query: Query, position: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        hwm = self._count_hwm.get(query.query_id, 0)
        if position >= hwm:
            return results
        for start, end in query.window.trigger_windows(position, hwm):
            if end <= position:
                continue
            result = self._emit_count_window(query, start, end, is_update=True)
            if result is not None:
                results.append(result)
        return results

    def _update_multimeasure(self, query: Query, ts: int) -> List[WindowResult]:
        window: LastNEveryWindow = query.window
        timestamps = self._view.timestamps()
        results: List[WindowResult] = []
        emitted = self._emitted_edges[query.query_id]
        for edge, old_count in sorted(emitted.items()):
            if edge <= ts:
                continue
            cumulative = self.evicted_count + bisect.bisect_left(timestamps, edge)
            if cumulative == old_count:
                continue
            emitted[edge] = cumulative
            start = max(0, cumulative - window.count)
            result = self._emit_count_window(query, start, cumulative, is_update=True)
            if result is not None:
                results.append(result)
        return results

    # ------------------------------------------------------------------

    def evictable(self, settled_ts: int) -> int:
        """How many front records no window that can still change reaches.

        ``settled_ts`` is the watermark minus the allowed lateness.  Each
        window says how far back it reaches from there
        (:meth:`~repro.windows.base.WindowType.retention_start`): a
        timestamp on the time measure, a record position on the count
        measure -- records can be arbitrarily dense in time, so a count
        window's length is never read as a duration.  The cut never
        falls inside a session: the records left of one, emitted or
        still open, would be read as a session of their own.  Sessions
        by the largest gap contain those of every smaller one.
        """
        timestamps = self._view.timestamps()
        size = len(timestamps)
        cut = size
        reach = settled_ts  # the earliest timestamp a time window needs
        gap = 0
        for query in self._queries:
            window = query.window
            if window.measure_kind is MeasureKind.COUNT:
                completed = self._completed_count(settled_ts)
                cut = min(cut, window.retention_start(completed) - self.evicted_count)
                continue
            reach = min(reach, window.retention_start(settled_ts))
            if isinstance(window, SessionWindow):
                gap = max(gap, window.gap)
        cut = max(min(cut, bisect.bisect_left(timestamps, reach)), 0)
        while 0 < cut < size and timestamps[cut] - timestamps[cut - 1] < gap:
            cut -= 1
        return cut

    def note_eviction(self, count: int) -> None:
        """Record that ``count`` front records left the buffer."""
        self.evicted_count += count

    def prune_emitted(self, horizon: int) -> None:
        """Drop emission bookkeeping for windows before the horizon."""
        for query_id, pairs in self._emitted.items():
            self._emitted[query_id] = {p for p in pairs if p[1] > horizon}
        for query_id, edges in self._emitted_edges.items():
            self._emitted_edges[query_id] = {
                edge: count for edge, count in edges.items() if edge > horizon
            }
