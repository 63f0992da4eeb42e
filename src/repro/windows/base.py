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

The interface mirrors the paper's Section 5.4.2: context free windows
implement ``get_next_edge`` (for on-the-fly slicing) and
``trigger_windows`` (for watermark-driven emission).  Context aware
windows additionally receive ``notify_context`` callbacks through which
they add or remove window edges.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from ..core.measures import MeasureKind
from ..core.types import Record

__all__ = [
    "ContextClass",
    "WindowType",
    "ContextFreeWindow",
    "ForwardContextFreeWindow",
    "ContextAwareWindow",
    "WindowEdges",
]


class ContextClass(enum.Enum):
    """Li et al.'s window context classification (Section 4.4)."""

    CONTEXT_FREE = "CF"
    FORWARD_CONTEXT_FREE = "FCF"
    FORWARD_CONTEXT_AWARE = "FCA"


class WindowEdges:
    """Callback object handed to context-aware windows.

    A context-aware window reports discovered or retracted window edges
    through this object; the slice manager then splits / merges slices
    to keep slice edges aligned with window edges (Section 5.3, Step 2).
    """

    def __init__(self) -> None:
        self.added: List[int] = []
        self.removed: List[int] = []

    def add_edge(self, ts: int) -> None:
        """Report a new window start/end timestamp."""
        self.added.append(ts)

    def remove_edge(self, ts: int) -> None:
        """Retract a previously reported window edge."""
        self.removed.append(ts)

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


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

    def get_next_edge(self, ts: int) -> Optional[int]:
        """Return the next window edge strictly greater than ``ts``.

        Used by the stream slicer to cache the upcoming slice boundary.
        ``None`` means this window currently implies no upcoming edge
        (e.g. a session window with no open session).
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


class ForwardContextFreeWindow(WindowType):
    """Base class for FCF windows (edges revealed by the records up to them).

    Subclasses consume stream context through :meth:`notify_context`.
    """

    context = ContextClass.FORWARD_CONTEXT_FREE

    def notify_context(self, edges: WindowEdges, record: Record) -> None:
        """Inspect ``record`` and report any edges it reveals."""
        raise NotImplementedError


class ContextAwareWindow(WindowType):
    """Base class for FCA windows (future records reveal past edges)."""

    context = ContextClass.FORWARD_CONTEXT_AWARE

    def notify_context(self, edges: WindowEdges, record: Record) -> None:
        """Inspect ``record`` and report any edges it adds or removes."""
        raise NotImplementedError
