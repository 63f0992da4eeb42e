"""Multi-measure windows -- forward context aware (Section 4.4).

The paper's FCA example: *"output the last n tuples (count measure)
every e seconds (time measure)"*.  The window *end* is a context-free
time edge, but the window *start* is ``n`` tuples back -- a count
position that is only known once all records up to the edge have been
processed (and that moves when out-of-order records arrive).  Such
windows force the slicer to keep raw records even on in-order streams
(Figure 4) because slice splits at record-count positions require
recomputing aggregates from the stored records.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..core.measures import MeasureKind
from ..core.types import Record
from .base import ContextAwareWindow, WindowEdges

__all__ = ["LastNEveryWindow"]


class LastNEveryWindow(ContextAwareWindow):
    """Every ``every`` time units, aggregate the last ``count`` records.

    Triggering happens on the context-free time edges ``k * every``.
    The emitted window covers the count interval
    ``[count_at_edge - count, count_at_edge)``; the window manager
    resolves the count positions against the slice store (splitting a
    slice when the start falls mid-slice).
    """

    #: Window ends live on the time measure; contents on the count measure.
    measure_kind = MeasureKind.COUNT

    def __init__(self, count: int, every: int, offset: int = 0) -> None:
        if count <= 0:
            raise ValueError(f"record count must be positive, got {count}")
        if every <= 0:
            raise ValueError(f"trigger period must be positive, got {every}")
        self.count = count
        self.every = every
        self.offset = offset
        #: time-edge -> cumulative record count at that edge, filled in as
        #: forward context becomes available.
        self._counts_at_edge: Dict[int, int] = {}

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Next trigger timestamp (time measure) after ``ts``."""
        relative = ts - self.offset
        return self.offset + (relative // self.every + 1) * self.every

    def time_edges_between(self, prev_wm: int, curr_wm: int) -> Iterator[int]:
        """Trigger timestamps in ``(prev_wm, curr_wm]``."""
        edge = self.get_next_edge(prev_wm)
        while edge is not None and edge <= curr_wm:
            if edge > self.offset:
                yield edge
            edge += self.every

    def record_edge_count(self, edge_ts: int, cumulative_count: int) -> None:
        """Store the forward context: record count at a time edge.

        Out-of-order records before ``edge_ts`` later *increase* this
        count; the window manager refreshes it before triggering.
        """
        self._counts_at_edge[edge_ts] = cumulative_count

    def count_at_edge(self, edge_ts: int) -> Optional[int]:
        """Cumulative record count at ``edge_ts`` (None if not yet known)."""
        return self._counts_at_edge.get(edge_ts)

    def forget_edges(self, horizon: int) -> None:
        """Drop the counts of trigger edges at or before ``horizon``:
        their windows are final and their slices evicted."""
        self._counts_at_edge = {
            edge: count for edge, count in self._counts_at_edge.items() if edge > horizon
        }

    def window_for_edge(self, edge_ts: int) -> Optional[Tuple[int, int]]:
        """The count interval emitted at ``edge_ts``: ``[c - n, c)``."""
        cumulative = self._counts_at_edge.get(edge_ts)
        if cumulative is None:
            return None
        return (max(0, cumulative - self.count), cumulative)

    def retention_start(self, settled: int) -> int:
        """``count`` records back; ``settled`` is a record count here,
        although this window's edges are timestamps."""
        return settled - self.count

    def flush_horizon(self, last_ts: int) -> int:
        """The next trigger: contents are counted, but windows end on
        time edges."""
        return self.get_next_edge(last_ts)

    def is_edge(self, ts: int) -> bool:
        """Whether ``ts`` is a trigger (time) edge."""
        return (ts - self.offset) % self.every == 0

    def get_floor_edge(self, ts: int) -> Optional[int]:
        """Largest trigger edge at or before ``ts``."""
        relative = ts - self.offset
        return self.offset + (relative // self.every) * self.every

    def notify_context(self, edges: WindowEdges, record: Record) -> None:
        """A record after an un-resolved time edge pins that edge's count.

        The slice manager supplies the cumulative-count bookkeeping; the
        window only needs to declare which *count* edges now exist so
        slices can be split there.  Edge declaration happens through
        :meth:`record_edge_count` from the operator, so nothing is
        reported here.
        """

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Count intervals for all resolved time edges in the range."""
        for edge in self.time_edges_between(prev_wm, curr_wm):
            window = self.window_for_edge(edge)
            if window is not None:
                yield window

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        raise NotImplementedError(
            "multi-measure windows have no a-priori containing set (FCA)"
        )

    def reset(self) -> None:
        """Forget all accumulated forward context."""
        self._counts_at_edge.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LastNEveryWindow(count={self.count}, every={self.every})"
