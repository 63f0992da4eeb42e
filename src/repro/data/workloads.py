"""The paper's query workloads (Section 6.1, "Queries").

Helpers that build the exact query mixes used throughout the
evaluation:

* ``dashboard_queries`` -- N concurrent tumbling windows with lengths
  equally distributed between 1 and 20 seconds (the zoom levels of the
  live-visualization dashboard the workloads are modelled on);
* ``constrained_workload`` -- the Section 6.2.2 setup: the dashboard
  queries plus one session window (gap 1 s), replayed with 20 %
  out-of-order records delayed uniformly in [0 s, 2 s];
* ``m4_dashboard`` -- the Section 6.4 application workload: M4
  aggregation, 80 concurrent windows per operator instance.

Timestamps follow the data generators: integer milliseconds, so
"1 second" is 1000 timestamp units.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..aggregations import M4, AggregateFunction, Sum
from ..core.types import Record, StreamElement
from ..runtime.disorder import inject_disorder, with_watermarks
from ..windows.session import SessionWindow
from ..windows.tumbling import TumblingWindow

__all__ = [
    "SECOND_MS",
    "dashboard_windows",
    "dashboard_queries",
    "constrained_stream",
    "m4_dashboard_queries",
]

SECOND_MS = 1000

#: The paper's out-of-order knobs: 20 % late, delays U[0 s, 2 s].
DEFAULT_OOO_FRACTION = 0.2
DEFAULT_OOO_MAX_DELAY_MS = 2 * SECOND_MS


def dashboard_windows(concurrent_windows: int) -> List[TumblingWindow]:
    """N tumbling windows with lengths spread over 1-20 s (Section 6.2.1).

    ``concurrent_windows`` tumbling queries imply the same number of
    concurrent windows at any instant (one open window per query).
    Lengths cycle through the whole seconds 1-20 s with no offset, so
    every edge falls on a whole second: the windows from the 21st on
    repeat the edges of the first 20, and slices never get thinner
    than 1 s.
    """
    if concurrent_windows <= 0:
        raise ValueError("need at least one window")
    windows: List[TumblingWindow] = []
    for index in range(concurrent_windows):
        length_s = 1 + (index % 20)
        windows.append(TumblingWindow(length_s * SECOND_MS))
    return windows


def dashboard_queries(
    concurrent_windows: int, aggregation_factory=Sum
) -> List[Tuple[TumblingWindow, AggregateFunction]]:
    """(window, aggregation) pairs for the dashboard workload."""
    return [(window, aggregation_factory()) for window in dashboard_windows(concurrent_windows)]


def constrained_stream(
    records: Sequence[Record],
    *,
    fraction: float = DEFAULT_OOO_FRACTION,
    max_delay: int = DEFAULT_OOO_MAX_DELAY_MS,
    min_delay: int = 0,
    watermark_interval: int = SECOND_MS,
    seed: int = 7,
) -> List[StreamElement]:
    """Section 6.2.2 stream: injected disorder + trailing watermarks."""
    disordered = inject_disorder(
        records, fraction, max_delay, min_delay=min_delay, seed=seed
    )
    return list(
        with_watermarks(disordered, interval=watermark_interval, max_delay=max_delay)
    )


def m4_dashboard_queries(
    concurrent_windows: int = 80,
) -> List[Tuple[TumblingWindow, AggregateFunction]]:
    """Section 6.4: M4 visualization aggregation over dashboard windows."""
    return [(window, M4()) for window in dashboard_windows(concurrent_windows)]


def session_query(gap_seconds: float = 1.0) -> Tuple[SessionWindow, AggregateFunction]:
    """The Section 6.2.2 session window (gap 1 s) with a sum."""
    return (SessionWindow(int(gap_seconds * SECOND_MS)), Sum())
