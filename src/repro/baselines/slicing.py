"""In-order slicing baselines: Pairs and Cutty (Section 3.4, Table 1
rows 5-6).

Both cut the stream at the union of all window edges as records arrive
and keep one partial aggregate per slice and distinct function; they
differ in how a window's slices are combined.  :class:`PairsOperator`
(Krishnamurthy et al., SIGMOD 2006) folds a list of slice partials when
a window ends (lazy); :class:`CuttyOperator` (Carbone et al., CIKM 2016)
keeps a FlatFAT over them and answers with a range query (eager).

Limitations (faithful to the originals): in-order streams only -- Cutty
"does not support out-of-order processing" (Section 7) -- and partial
aggregates only, hence no holistic aggregations.  Pairs serves periodic
context-free windows; Cutty adds user-defined deterministic windows and
punctuations (context-free and forward-context-free windows).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional

from ..aggregations.base import AggregateFunction, AggregationClass
from ..core.characteristics import Query
from ..core.flatfat import FlatFAT
from ..core.operator_base import StreamOrderViolation, WindowOperator
from ..core.types import Punctuation, Record, Watermark, WindowResult
from ..windows.base import ContextClass
from ..windows.punctuation import PunctuationWindow
from ..windows.sliding import SlidingWindow
from ..windows.tumbling import TumblingWindow

__all__ = ["PairsOperator", "CuttyOperator"]


class _InOrderSlicingOperator(WindowOperator):
    """Slicing at the union of window edges on an in-order stream.

    Subclasses choose how the closed slice partials of one function are
    kept (:meth:`_new_column`), combined over a slice range
    (:meth:`_fold`) and dropped from the front (:meth:`_drop_front`).
    """

    def __init__(self, *, emit_empty: bool = False) -> None:
        super().__init__()
        self.emit_empty = emit_empty
        #: Distinct aggregate functions, deduplicated by signature.  An
        #: index never changes: removing a query leaves its function (and
        #: its column) in place, so every slice keeps one layout.
        self._functions: List[AggregateFunction] = []
        self._index_by_signature: Dict[tuple, int] = {}
        self._fn_of_query: List[int] = []
        #: Bounds of the closed slices, and per function their partials.
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._closed: List[Any] = []
        #: The open slice: its start and one partial per function.
        self._open_start: Optional[int] = None
        self._open: List[Any] = []
        self._next_edge: Optional[int] = None
        self._max_ts: Optional[int] = None
        self._prev_emit: Optional[int] = None

    def add_query(self, window, aggregation) -> Query:
        if aggregation.kind is AggregationClass.HOLISTIC:
            raise ValueError(f"{type(self).__name__} stores partial aggregates only (no holistic)")
        return super().add_query(window, aggregation)

    def _on_queries_changed(self) -> None:
        self._fn_of_query = []
        for query in self.queries:
            key = query.aggregation.signature()
            if key not in self._index_by_signature:
                self._index_by_signature[key] = len(self._functions)
                self._functions.append(query.aggregation)
                self._closed.append(self._new_column(query.aggregation, len(self._starts)))
                self._open.append(None)
            self._fn_of_query.append(self._index_by_signature[key])

    # ------------------------------------------------------------------
    # how a subclass keeps the closed partials of one function

    def _new_column(self, function: AggregateFunction, size: int) -> Any:
        """An empty partial for each of ``size`` closed slices."""
        raise NotImplementedError

    def _fold(self, fn_index: int, lo: int, hi: int) -> Any:
        """Partial of closed slices ``[lo, hi)`` (``None``: no records)."""
        raise NotImplementedError

    def _drop_front(self, count: int) -> None:
        """Forget the first ``count`` closed slices of every column."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _next_edge_after(self, ts: int) -> Optional[int]:
        edges = [query.window.get_next_edge(ts) for query in self.queries]
        return min((edge for edge in edges if edge is not None), default=None)

    def _floor_edge(self, ts: int) -> int:
        edges = [query.window.get_floor_edge(ts) for query in self.queries]
        return max((edge for edge in edges if edge is not None), default=ts)

    def process_record(self, record: Record) -> List[WindowResult]:
        ts = record.ts
        if self._max_ts is not None and ts < self._max_ts:
            raise StreamOrderViolation(
                f"late record ts={ts}: {type(self).__name__} is an in-order technique"
            )
        if self._open_start is None:
            self._open_start = self._floor_edge(ts)
            self._next_edge = self._next_edge_after(self._open_start)
        cut = False
        while self._next_edge is not None and ts >= self._next_edge:
            cut = True
            self._close_slice(self._next_edge)
            self._next_edge = self._next_edge_after(self._next_edge)
        open_ = self._open
        value = record.value
        for index, function in enumerate(self._functions):
            open_[index] = function.accumulate(open_[index], value)
        self._max_ts = ts
        return self._advance(ts) if cut else []

    def _close_slice(self, edge: int) -> None:
        self._starts.append(self._open_start)
        self._ends.append(edge)
        for column, partial in zip(self._closed, self._open):
            column.append(partial)
        self._open = [None] * len(self._functions)
        self._open_start = edge

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        return self._advance(watermark.ts)

    def _advance(self, settled: int) -> List[WindowResult]:
        """Emit the windows ended by ``settled``, then drop the closed
        slices that no window still open there reaches back to."""
        results = self._emit(settled)
        horizon = min(
            (query.window.retention_start(settled) for query in self.queries), default=settled
        )
        count = bisect.bisect_right(self._ends, horizon)
        if count:
            del self._starts[:count]
            del self._ends[:count]
            self._drop_front(count)
        return results

    def _emit(self, wm: int) -> List[WindowResult]:
        if self._prev_emit is None:
            lower = (self._starts[0] if self._starts else wm) - 1
        else:
            lower = self._prev_emit
        if wm <= lower:
            return []
        results: List[WindowResult] = []
        for query, fn_index in zip(self.queries, self._fn_of_query):
            for start, end in query.window.trigger_windows(lower, wm):
                partial = self._window_partial(fn_index, start, end)
                if partial is None and not self.emit_empty:
                    continue
                value = query.aggregation.lower_or_default(partial)
                results.append(WindowResult(query.query_id, start, end, value))
        self._prev_emit = wm
        return results

    def _window_partial(self, fn_index: int, start: int, end: int) -> Any:
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._ends, end, lo)
        partial = self._fold(fn_index, lo, hi) if hi > lo else None
        # The open slice belongs to the window when all its records do.
        piece = self._open[fn_index]
        if piece is not None and self._open_start >= start and self._max_ts < end:
            function = self._functions[fn_index]
            partial = piece if partial is None else function.combine(partial, piece)
        return partial

    # ------------------------------------------------------------------

    def state_objects(self) -> list:
        return [self._starts, self._ends, self._closed]

    def slice_count(self) -> int:
        """Closed slices held, plus the open one."""
        return len(self._starts) + (self._open_start is not None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(slices={self.slice_count()}, queries={len(self.queries)})"


class PairsOperator(_InOrderSlicingOperator):
    """Pairs: periodic context-free windows, a list of slice partials per
    function folded when a window ends (lazy)."""

    def add_query(self, window, aggregation) -> Query:
        if not isinstance(window, (TumblingWindow, SlidingWindow)):
            raise ValueError(
                "Pairs supports periodic tumbling/sliding windows only; "
                f"got {type(window).__name__}"
            )
        if window.context is not ContextClass.CONTEXT_FREE:
            raise ValueError("Pairs supports context-free windows only")
        return super().add_query(window, aggregation)

    def _new_column(self, function: AggregateFunction, size: int) -> List[Any]:
        return [None] * size

    def _fold(self, fn_index: int, lo: int, hi: int) -> Any:
        combine = self._functions[fn_index].combine
        partial = None
        for piece in self._closed[fn_index][lo:hi]:
            if piece is not None:
                partial = piece if partial is None else combine(partial, piece)
        return partial

    def _drop_front(self, count: int) -> None:
        for column in self._closed:
            del column[:count]


class CuttyOperator(_InOrderSlicingOperator):
    """Cutty: user-defined deterministic windows and punctuations, a
    FlatFAT over the slice partials of each function (eager)."""

    def add_query(self, window, aggregation) -> Query:
        if window.context is ContextClass.FORWARD_CONTEXT_AWARE:
            raise ValueError("Cutty supports deterministic (CF/FCF) windows only")
        return super().add_query(window, aggregation)

    def _new_column(self, function: AggregateFunction, size: int) -> FlatFAT:
        return FlatFAT(function.combine, [None] * size)

    def _fold(self, fn_index: int, lo: int, hi: int) -> Any:
        return self._closed[fn_index].query(lo, hi)

    def _drop_front(self, count: int) -> None:
        for tree in self._closed:
            tree.remove_front(count)

    def process_punctuation(self, punctuation: Punctuation) -> List[WindowResult]:
        if self._max_ts is not None and punctuation.ts <= self._max_ts:
            raise StreamOrderViolation(
                "late punctuation (must strictly lead the records at its "
                "timestamp): Cutty is an in-order technique"
            )
        for query in self.queries:
            if isinstance(query.window, PunctuationWindow):
                query.window.on_punctuation(punctuation)
        if self._max_ts is None:
            return []
        self._next_edge = self._next_edge_after(self._max_ts)
        return self._advance(self._max_ts)
