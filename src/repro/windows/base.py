"""Window type interfaces (Sections 4.4 and 5.4.2 of the paper).

Window types are classified by the *context* needed to know where
windows start and end:

* **Context free (CF)** -- all edges are known a priori from the window
  parameters (tumbling, sliding).
* **Forward context free (FCF)** -- edges up to time *t* are known once
  all records up to *t* are processed (punctuation-based windows).
* **Forward context aware (FCA)** -- records *after* *t* may reveal
  edges *before* *t* (multi-measure windows).

Session windows are context aware but special: out-of-order records can
only *merge* sessions (or open new ones in gaps), never force a slice
split, so they avoid record retention (Figure 4).

The interface mirrors the paper's Section 5.4.2: a window declares its
edges and the operator's slices carry the rest.  The operator asks a
window for ``get_next_edge`` / ``get_floor_edge`` (on-the-fly slicing
and gap slices), ``is_edge`` (which slice boundaries a merge must
keep), ``trigger_windows`` (watermark-driven emission),
``assign_windows`` (late updates and the bucket baselines), and
``retention_start`` / ``flush_horizon`` (eviction and end of stream).

A window object is a specification: its parameters and pure functions
of them.  What the stream reveals is kept by the operator component that
already records it -- a session's moving end is read off the slices'
``last_ts``, the record count at a last-n trigger edge lives in the
window manager.  The one exception is a punctuation window's edge list.
An operator therefore registers a copy of every window it is given
(:meth:`~repro.core.operator_base.WindowOperator.add_query`), so one
window object may serve any number of operators.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Tuple

from ..core.measures import MeasureKind

__all__ = [
    "ContextClass",
    "WindowType",
    "ContextFreeWindow",
    "ForwardContextFreeWindow",
    "ContextAwareWindow",
]


class ContextClass(enum.Enum):
    """Li et al.'s window context classification (Section 4.4)."""

    CONTEXT_FREE = "CF"
    FORWARD_CONTEXT_FREE = "FCF"
    FORWARD_CONTEXT_AWARE = "FCA"


class WindowType:
    """Common base of all window specifications.

    Attributes
    ----------
    context:
        CF / FCF / FCA classification driving the decision tree.
    measure_kind:
        The measure dimension this window is defined on (time or count).
    is_session:
        ``True`` only for session windows (the merge-only exception in
        the Figure 4 decision tree).
    """

    context: ContextClass = ContextClass.CONTEXT_FREE
    measure_kind: MeasureKind = MeasureKind.TIME
    is_session: bool = False

    __slots__ = ()

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Return the next window edge strictly greater than ``ts``.

        Used by the stream slicer to cache the upcoming slice boundary.
        ``None`` means this window implies no upcoming edge (a session
        window never does: its tentative end comes from the slices).
        """
        raise NotImplementedError

    def trigger_windows(self, prev_wm: int, curr_wm: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, end)`` of windows ending in ``(prev_wm, curr_wm]``.

        Called by the window manager whenever the watermark advances.
        Intervals are half-open ``[start, end)`` in this window's measure.
        """
        raise NotImplementedError

    def assign_windows(self, ts: int) -> Iterator[Tuple[int, int]]:
        """Yield all windows that contain the timestamp ``ts``.

        Required by the bucket-per-window baseline (WID); context free
        windows can compute the containing set directly.
        """
        raise NotImplementedError

    def is_edge(self, ts: int) -> bool:
        """Whether ``ts`` is a window edge of this window type.

        Used by the slice manager to decide if a slice boundary may be
        dropped when merging (session bridging must not remove
        boundaries other queries rely on).
        """
        return False

    def get_floor_edge(self, ts: int) -> Optional[int]:
        """The largest known window edge at or before ``ts`` (or None).

        Used to align gap slices with window edges.
        """
        return None

    def retention_start(self, settled: int) -> int:
        """How far back a window that can still change reaches.

        ``settled`` is a position in this window's measure before which
        the stream is final (the watermark minus the allowed lateness,
        or the record count completed by then).  Windows ending at or
        before it are final too; the return value is the smallest start
        of any other window, so state before it may be evicted.  The
        default suits windows delimited by consecutive edges: back to
        the start of the window open at ``settled``.  Overlapping
        windows and windows that reach a fixed extent back override it.
        """
        floor = self.get_floor_edge(settled)
        return settled if floor is None else floor

    def flush_horizon(self, last_ts: int) -> int:
        """The event time by which every window holding a record at or
        before ``last_ts`` has ended.

        :meth:`~repro.core.operator_base.WindowOperator.flush` advances
        event time this far past the stream's last record, and a watermark
        ahead of the newest record is walked no further.  The default
        suits windows delimited by consecutive edges: the next edge
        closes the window open at ``last_ts`` (no upcoming edge, no
        window to close).  Windows on another measure end with their
        last record and need no extra time.  Overlapping windows and
        windows whose end depends on their records override it.
        """
        if self.measure_kind is not MeasureKind.TIME:
            return last_ts
        edge = self.get_next_edge(last_ts)
        return last_ts if edge is None else edge

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class ContextFreeWindow(WindowType):
    """Base class for windows whose edges are known a priori."""

    context = ContextClass.CONTEXT_FREE

    __slots__ = ()


class ForwardContextFreeWindow(WindowType):
    """Base class for FCF windows (edges revealed by the stream up to them)."""

    context = ContextClass.FORWARD_CONTEXT_FREE

    __slots__ = ()


class ContextAwareWindow(WindowType):
    """Base class for FCA windows (future records reveal past edges)."""

    context = ContextClass.FORWARD_CONTEXT_AWARE

    __slots__ = ()
