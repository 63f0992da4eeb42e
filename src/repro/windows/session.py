"""Session windows -- context aware, but merge-only (Figure 1, Section 5.1).

A session covers a period of activity followed by a period of at least
``gap`` inactivity.  Sessions are context aware (a record can extend,
bridge, or open sessions retroactively) but they are the exception in
the Figure 4 decision tree: out-of-order records only ever *merge*
session slices or open new ones in gaps -- they never force a split --
so slicing sessions does not require storing raw records.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..core.measures import MeasureKind
from ..core.types import Record
from .base import ContextAwareWindow, WindowEdges

__all__ = ["SessionWindow"]


class SessionWindow(ContextAwareWindow):
    """Event-time session windows with inactivity ``gap``.

    A session window's extent is ``[first_ts, last_ts + gap)`` where
    ``first_ts``/``last_ts`` are the first and last record of the
    activity period.  The actual session extents are derived from the
    slice store by the window manager (session slices carry the activity
    interval); this class holds the parameters and the in-order slicing
    hook.
    """

    is_session = True
    measure_kind = MeasureKind.TIME

    def __init__(self, gap: int) -> None:
        if gap <= 0:
            raise ValueError(f"session gap must be positive, got {gap}")
        self.gap = gap
        self._last_inorder_ts: Optional[int] = None

    def observe(self, ts: int) -> None:
        """Track the newest in-order record (drives the tentative edge)."""
        if self._last_inorder_ts is None or ts > self._last_inorder_ts:
            self._last_inorder_ts = ts

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Tentative session end: ``last_record_ts + gap``.

        The edge is tentative -- a record arriving before it moves the
        edge further out.  With no open session there is no edge.
        """
        if self._last_inorder_ts is None:
            return None
        edge = self._last_inorder_ts + self.gap
        return edge if edge > ts else None

    def notify_context(self, edges: WindowEdges, record: Record) -> None:
        """Report the moved session end when a record extends the session."""
        previous = self._last_inorder_ts
        self.observe(record.ts)
        if previous is not None and record.ts > previous:
            edges.remove_edge(previous + self.gap)
        edges.add_edge(record.ts + self.gap)

    def retention_start(self, settled: int) -> int:
        """One gap back: a record at ``settled`` can still join a session
        whose last record is less than ``gap`` before it.  (Eviction
        additionally stops at the first session that cannot go whole:
        :meth:`~repro.core.window_manager.WindowManager.pin_horizon`.)"""
        return settled - self.gap

    def flush_horizon(self, last_ts: int) -> int:
        """One gap on: the session of the last record times out then."""
        return last_ts + self.gap

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Sessions are derived from slice state; nothing is known a priori."""
        return iter(())

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        raise NotImplementedError(
            "session windows are data-driven; bucket baselines use merging assigners"
        )

    def reset(self) -> None:
        """Forget the in-order context (used when operators restart)."""
        self._last_inorder_ts = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SessionWindow(gap={self.gap})"
