"""Explicit-edge windows: deterministic user-defined window sequences.

Cutty's headline feature -- user-defined windows -- frequently boils
down to "windows between a known, aperiodic sequence of boundaries":
calendar months, trading sessions, billing periods, shift schedules.
:class:`ExplicitEdgesWindow` captures that family as a reusable
context-free window type: give it the boundary timestamps and it slots
into general slicing, Pairs, and Cutty alike.

The boundaries are fixed when the window is made: an operator registers
its own copy of every window it is given, so a later change to the
object would not reach it.  For an unbounded stream, give the
boundaries as far ahead as the stream runs.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.measures import MeasureKind
from .base import ContextFreeWindow

__all__ = ["ExplicitEdgesWindow"]


class ExplicitEdgesWindow(ContextFreeWindow):
    """Consecutive windows between an explicit sorted boundary sequence.

    Windows are ``[edges[i], edges[i+1])``.  Timestamps outside the
    boundary range belong to no window.
    """

    __slots__ = ("_edges", "measure_kind")

    def __init__(
        self,
        edges: Sequence[int],
        measure_kind: MeasureKind = MeasureKind.TIME,
    ) -> None:
        boundary_list = list(edges)
        if len(boundary_list) < 2:
            raise ValueError("need at least two edges to form a window")
        if any(b <= a for a, b in zip(boundary_list, boundary_list[1:])):
            raise ValueError("edges must be strictly increasing")
        self._edges: List[int] = boundary_list
        self.measure_kind = measure_kind

    @property
    def edges(self) -> List[int]:
        """The boundary timestamps (sorted copy)."""
        return list(self._edges)

    # ------------------------------------------------------------------

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Smallest boundary strictly greater than ``ts``."""
        position = bisect.bisect_right(self._edges, ts)
        if position < len(self._edges):
            return self._edges[position]
        return None

    def get_floor_edge(self, ts: int) -> Optional[int]:
        """Largest boundary at or before ``ts``."""
        position = bisect.bisect_right(self._edges, ts)
        return self._edges[position - 1] if position > 0 else None

    def is_edge(self, ts: int) -> bool:
        """Whether ``ts`` is one of the boundaries."""
        position = bisect.bisect_left(self._edges, ts)
        return position < len(self._edges) and self._edges[position] == ts

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Windows ending in ``(prev_wm, curr_wm]``."""
        position = max(1, bisect.bisect_right(self._edges, prev_wm))
        while position < len(self._edges) and self._edges[position] <= curr_wm:
            yield (self._edges[position - 1], self._edges[position])
            position += 1

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        """The single window containing ``ts`` (none outside the range)."""
        position = bisect.bisect_right(self._edges, ts)
        if 0 < position < len(self._edges):
            yield (self._edges[position - 1], self._edges[position])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExplicitEdgesWindow({len(self._edges)} edges, "
            f"[{self._edges[0]}..{self._edges[-1]}])"
        )
