"""Tumbling (fixed) windows -- context free (Figure 1)."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..core.measures import MeasureKind
from .base import ContextFreeWindow

__all__ = ["TumblingWindow"]


class TumblingWindow(ContextFreeWindow):
    """Gap-free windows of equal ``length`` starting at ``offset``.

    Windows are ``[offset + k*length, offset + (k+1)*length)`` for every
    integer ``k >= 0``.  Works on any measure; pass
    ``measure_kind=MeasureKind.COUNT`` for a count-based tumbling window
    (equivalently use :class:`repro.windows.count.CountTumblingWindow`).
    """

    __slots__ = ("length", "offset", "measure_kind")

    def __init__(
        self,
        length: int,
        offset: int = 0,
        measure_kind: MeasureKind = MeasureKind.TIME,
    ) -> None:
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        self.length = length
        self.offset = offset
        self.measure_kind = measure_kind

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Smallest window edge strictly greater than ``ts``."""
        relative = ts - self.offset
        return self.offset + (relative // self.length + 1) * self.length

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Windows ending in ``(prev_wm, curr_wm]``."""
        # The first window end > prev_wm:
        relative = prev_wm - self.offset
        end = self.offset + (relative // self.length + 1) * self.length
        while end <= curr_wm:
            start = end - self.length
            if end > self.offset:  # never emit windows before the origin
                yield (start, end)
            end += self.length

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        """The single tumbling window containing ``ts``."""
        relative = ts - self.offset
        start = self.offset + (relative // self.length) * self.length
        yield (start, start + self.length)

    def is_edge(self, ts: int) -> bool:
        """Whether ``ts`` falls on a window boundary."""
        return (ts - self.offset) % self.length == 0

    def get_floor_edge(self, ts: int) -> Optional[int]:
        """Largest window edge at or before ``ts``."""
        relative = ts - self.offset
        return self.offset + (relative // self.length) * self.length

    def edge_grid(self) -> Optional[Tuple[int, int]]:
        """Every edge is a window start: one grid of the window length."""
        return (self.length, self.offset % self.length)

    def retention_start(self, settled: int) -> int:
        """One window length back: every window that is not final at
        ``settled`` starts after it."""
        return settled - self.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TumblingWindow(length={self.length}, offset={self.offset}, "
            f"measure={self.measure_kind.value})"
        )
