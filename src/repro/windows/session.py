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
from .base import ContextAwareWindow

__all__ = ["SessionWindow"]


class SessionWindow(ContextAwareWindow):
    """Event-time session windows with inactivity ``gap``.

    A session window's extent is ``[first_ts, last_ts + gap)`` where
    ``first_ts``/``last_ts`` are the first and last record of the
    activity period.  Everything but the gap comes from the slices, which
    carry the activity interval: the window manager groups them into
    sessions, and the operator cuts at the tentative end of the newest
    one, the newest retained record plus the gap
    (:meth:`~repro.core.operator_._Chain.next_time_edge`).
    """

    is_session = True
    measure_kind = MeasureKind.TIME

    __slots__ = ("gap",)

    def __init__(self, gap: int) -> None:
        if gap <= 0:
            raise ValueError(f"session gap must be positive, got {gap}")
        self.gap = gap

    def get_next_edge(self, ts: int) -> Optional[int]:
        """``None``: a session has no edge known in advance."""
        return None

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SessionWindow(gap={self.gap})"
