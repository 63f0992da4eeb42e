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

from typing import Iterator, Optional, Tuple

from ..core.measures import MeasureKind
from .base import ContextAwareWindow

__all__ = ["LastNEveryWindow"]


class LastNEveryWindow(ContextAwareWindow):
    """Every ``every`` time units, aggregate the last ``count`` records.

    Triggering happens on the context-free time edges ``k * every``.
    The window emitted at an edge covers the count interval
    ``[c - count, c)`` (clipped at 0), where ``c`` is the number of
    records before the edge; the window manager resolves ``c`` against
    the slice store, keeps it per emitted edge, and splits a slice when
    the start falls mid-slice.
    """

    #: Window ends live on the time measure; contents on the count measure.
    measure_kind = MeasureKind.COUNT

    __slots__ = ("count", "every", "offset")

    def __init__(self, count: int, every: int, offset: int = 0) -> None:
        if count <= 0:
            raise ValueError(f"record count must be positive, got {count}")
        if every <= 0:
            raise ValueError(f"trigger period must be positive, got {every}")
        self.count = count
        self.every = every
        self.offset = offset

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

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        raise NotImplementedError(
            "multi-measure windows have no a-priori containing set (FCA)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LastNEveryWindow(count={self.count}, every={self.every})"
