"""Count-based tumbling and sliding windows (Section 4.3).

These are ordinary context-free windows, but defined on the tuple-count
measure.  Their edges are fixed *counts*; what makes them expensive on
out-of-order streams is that a late record shifts the count of every
record behind it, so window contents change retroactively (handled by
the slice manager's shift logic, Figure 6).
"""

from __future__ import annotations

from ..core.measures import MeasureKind
from .sliding import SlidingWindow
from .tumbling import TumblingWindow

__all__ = ["CountTumblingWindow", "CountSlidingWindow"]


class CountTumblingWindow(TumblingWindow):
    """Tumbling window over tuple counts: every ``length`` records."""

    __slots__ = ()

    def __init__(self, length: int, offset: int = 0) -> None:
        super().__init__(length, offset, measure_kind=MeasureKind.COUNT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CountTumblingWindow(length={self.length}, offset={self.offset})"


class CountSlidingWindow(SlidingWindow):
    """Sliding window over tuple counts: ``length`` records every ``slide``."""

    __slots__ = ()

    def __init__(self, length: int, slide: int, offset: int = 0) -> None:
        super().__init__(length, slide, offset, measure_kind=MeasureKind.COUNT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CountSlidingWindow(length={self.length}, slide={self.slide}, "
            f"offset={self.offset})"
        )
