"""Punctuation-based windows -- forward context free (Section 4.4).

Window punctuations embedded in the stream mark window boundaries.
Once every record (and punctuation) up to a timestamp *t* has been
processed, all window edges before *t* are known -- the defining
property of FCF window types.

The model implemented here is the common "punctuations delimit
data-driven tumbling windows" semantics: every punctuation at timestamp
``p`` ends the window that opened at the previous punctuation (or at
``origin`` for the first one) and opens the next window.

The punctuations seen so far are the one piece of stream state a window
keeps.  Each operator registers its own copy of the window, so a
window object handed to several operators (a keyed factory's, say)
learns nothing from one on behalf of another.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from ..core.measures import MeasureKind
from ..core.types import Punctuation
from .base import ForwardContextFreeWindow

__all__ = ["PunctuationWindow"]


class PunctuationWindow(ForwardContextFreeWindow):
    """Windows delimited by :class:`~repro.core.types.Punctuation` marks."""

    measure_kind = MeasureKind.TIME

    __slots__ = ("origin", "_edges")

    def __init__(self, origin: int = 0) -> None:
        self.origin = origin
        #: Sorted punctuation timestamps (window boundaries) seen so far.
        self._edges: List[int] = []

    def on_punctuation(self, punctuation: Punctuation) -> bool:
        """Register a punctuation; whether its edge is new."""
        ts = punctuation.ts
        position = bisect.bisect_left(self._edges, ts)
        if position < len(self._edges) and self._edges[position] == ts:
            return False  # duplicate punctuation: edge already known
        self._edges.insert(position, ts)
        return True

    def get_next_edge(self, ts: int) -> Optional[int]:
        """The next already-known punctuation edge after ``ts``, if any."""
        position = bisect.bisect_right(self._edges, ts)
        if position < len(self._edges):
            return self._edges[position]
        return None

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Punctuation-delimited windows ending in ``(prev_wm, curr_wm]``."""
        previous = self.origin
        for edge in self._edges:
            if prev_wm < edge <= curr_wm and previous < edge:
                yield (previous, edge)
            previous = max(previous, edge)

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        """The punctuation window containing ``ts`` (if closed already)."""
        position = bisect.bisect_right(self._edges, ts)
        start = self._edges[position - 1] if position > 0 else self.origin
        if position < len(self._edges):
            yield (start, self._edges[position])

    def is_edge(self, ts: int) -> bool:
        """Whether a punctuation was registered at ``ts``."""
        position = bisect.bisect_left(self._edges, ts)
        return position < len(self._edges) and self._edges[position] == ts

    def get_floor_edge(self, ts: int) -> Optional[int]:
        """Largest punctuation edge at or before ``ts``."""
        position = bisect.bisect_right(self._edges, ts)
        return self._edges[position - 1] if position > 0 else None

    def retention_start(self, settled: int) -> int:
        """The punctuation (or the origin) that opened the window open at
        ``settled``."""
        floor = self.get_floor_edge(settled)
        return min(self.origin, settled) if floor is None else floor

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PunctuationWindow(origin={self.origin}, edges={len(self._edges)})"
