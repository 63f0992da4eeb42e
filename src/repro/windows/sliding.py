"""Sliding windows -- context free (Figure 1)."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..core.measures import MeasureKind
from .base import ContextFreeWindow

__all__ = ["SlidingWindow"]


class SlidingWindow(ContextFreeWindow):
    """Windows of ``length`` starting every ``slide`` measure units.

    Windows are ``[offset + k*slide, offset + k*slide + length)`` for all
    integers ``k >= 0``.  Consecutive windows overlap when
    ``slide < length``; a record then belongs to up to
    ``ceil(length / slide)`` windows, which is exactly the redundancy
    that slicing removes.
    """

    __slots__ = ("length", "slide", "offset", "measure_kind")

    def __init__(
        self,
        length: int,
        slide: int,
        offset: int = 0,
        measure_kind: MeasureKind = MeasureKind.TIME,
    ) -> None:
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        if slide <= 0:
            raise ValueError(f"slide step must be positive, got {slide}")
        self.length = length
        self.slide = slide
        self.offset = offset
        self.measure_kind = measure_kind

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Smallest window start-or-end strictly greater than ``ts``.

        Starts fall on ``offset + k*slide``; ends on
        ``offset + k*slide + length``.  When ``length`` is a multiple of
        ``slide`` the two families coincide.
        """
        relative = ts - self.offset
        next_start = self.offset + (relative // self.slide + 1) * self.slide
        relative_end = ts - self.offset - self.length
        next_end = (
            self.offset + self.length + (relative_end // self.slide + 1) * self.slide
        )
        # Ends before the first window's end are not edges.
        if next_end < self.offset + self.length:
            next_end = self.offset + self.length
        return min(next_start, next_end)

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Windows ending in ``(prev_wm, curr_wm]`` (start >= offset)."""
        first_end = self.offset + self.length
        # Smallest window end > prev_wm:
        if prev_wm < first_end:
            end = first_end
        else:
            relative = prev_wm - first_end
            end = first_end + (relative // self.slide + 1) * self.slide
        while end <= curr_wm:
            yield (end - self.length, end)
            end += self.slide

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        """All windows containing ``ts`` (used by the buckets baseline)."""
        relative = ts - self.offset
        last_start = self.offset + (relative // self.slide) * self.slide
        start = last_start
        while start > ts - self.length and start >= self.offset:
            yield (start, start + self.length)
            start -= self.slide

    def is_edge(self, ts: int) -> bool:
        """Whether ``ts`` is a window start or end."""
        relative = ts - self.offset
        if relative % self.slide == 0:
            return True
        return ts >= self.offset + self.length and (relative - self.length) % self.slide == 0

    def get_floor_edge(self, ts: int) -> Optional[int]:
        """Largest window start-or-end at or before ``ts``."""
        relative = ts - self.offset
        floor_start = self.offset + (relative // self.slide) * self.slide
        if ts < self.offset + self.length:
            return floor_start
        relative_end = ts - self.offset - self.length
        floor_end = self.offset + self.length + (relative_end // self.slide) * self.slide
        return max(floor_start, floor_end)

    def retention_start(self, settled: int) -> int:
        """One window length back: every window that is not final at
        ``settled`` starts after it."""
        return settled - self.length

    def flush_horizon(self, last_ts: int) -> int:
        """One window length on: the last window that starts at or
        before ``last_ts`` has ended by then."""
        if self.measure_kind is not MeasureKind.TIME:
            return last_ts
        return last_ts + self.length

    def concurrent_windows(self) -> int:
        """Number of windows open at any instant (steady state)."""
        return -(-self.length // self.slide)  # ceil division

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SlidingWindow(length={self.length}, slide={self.slide}, "
            f"offset={self.offset}, measure={self.measure_kind.value})"
        )
