"""A window is a specification, not stream state.

A window object holds its parameters and pure functions of them; what
the stream reveals lives in the operator component that records it (a
session's moving end in the slices, a last-n window's counts in the
window manager).  The one exception, a punctuation window's edge list,
lives in a copy each operator registers for itself, so one window object
may serve any number of operators (a row of ``tests/regressions.py`` hands
one to every key of a keyed operator).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shuffled_with_disorder
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Median, Sum
from repro.core.stream_slicer import StreamSlicer
from repro.core.types import Punctuation
from repro.windows import (
    CountSlidingWindow,
    CountTumblingWindow,
    ExplicitEdgesWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)
from test_differential_fuzz import LATENESS, _child_seed, _draw_stream, _draw_watermarked_arrival

# ----------------------------------------------------------------------
# sessions: the moving end is read off the slices


class _ObservedSession:
    """A session's tentative edge as the window once tracked it itself:
    the newest record the operator showed it (beside every
    ``after_record``), plus the gap."""

    def __init__(self, gap: int) -> None:
        self.gap = gap
        self.newest = None

    def observe(self, ts: int) -> None:
        if self.newest is None or ts > self.newest:
            self.newest = ts

    def next_edge(self, ts: int):
        if self.newest is None:
            return None
        edge = self.newest + self.gap
        return edge if edge > ts else None


@st.composite
def _session_arrivals(draw):
    """Records with silences around the gap, in order or disordered, with
    a watermark behind the newest record every few records."""
    gap = draw(st.integers(1, 8))
    steps = draw(st.lists(st.integers(0, 3 * gap), min_size=1, max_size=60))
    ts = 0
    records = []
    for step in steps:
        ts += step
        records.append(Record(ts, 1.0))
    ordered = draw(st.booleans())
    if not ordered:
        records = shuffled_with_disorder(
            records, draw(st.floats(0.1, 0.6)), 3 * gap, seed=draw(st.integers(0, 99))
        )
    every = draw(st.integers(1, 8))
    behind = draw(st.integers(0, 2 * gap))
    arrival = []
    newest = None
    for index, record in enumerate(records):
        arrival.append(record)
        newest = record.ts if newest is None else max(newest, record.ts)
        if index % every == every - 1:
            arrival.append(Watermark(newest - behind))
    lateness = draw(st.sampled_from([0, gap, 4 * gap]))
    return gap, ordered, lateness, arrival


@given(case=_session_arrivals())
@settings(max_examples=80, deadline=None)
def test_a_session_chain_cuts_where_the_observed_session_edge_was(case):
    """Every edge a session chain asks for -- the slicer's cut, its cache
    behind each record, a late record's gap slice -- equals the edge of
    the newest record the operator fed the window, kept on a side copy.
    ``check_invariants()`` holds after every element."""
    gap, ordered, lateness, arrival = case
    operator = GeneralSlicingOperator(stream_in_order=ordered, allowed_lateness=lateness)
    operator.add_query(SessionWindow(gap), Sum())
    (chain,) = operator._chain_list
    side = _ObservedSession(gap)
    slicer = chain.slicer
    refreshed = []
    next_time_edge = chain.next_time_edge

    class ObservedSlicer(StreamSlicer):
        __slots__ = ()

        def after_record(self, ts):
            side.observe(ts)
            super().after_record(ts)
            refreshed.append(ts)

    def checked_edge(ts):
        edge = next_time_edge(ts)
        assert edge == side.next_edge(ts), (ts, edge, side.newest)
        return edge

    slicer.__class__ = ObservedSlicer
    slicer._next_time_edge = chain.manager._ceil_time_edge = checked_edge
    for element in arrival:
        operator.process(element)
        if isinstance(element, Record) and refreshed:
            assert slicer.cached_time_edge == side.next_edge(refreshed[-1])
        operator.check_invariants()
    operator.flush()
    operator.check_invariants()


# ----------------------------------------------------------------------
# a window inside an operator is still its specification

#: Built-in windows by the operator they share: one chain per measure,
#: and a last-n window on a count chain of its own.
_TIME_WINDOWS = [
    lambda: TumblingWindow(20),
    lambda: SlidingWindow(30, 10),
    lambda: SessionWindow(15),
    lambda: ExplicitEdgesWindow([0, 35, 90, 400, 5_000]),
]
_COUNT_WINDOWS = [lambda: CountTumblingWindow(7), lambda: CountSlidingWindow(9, 3)]
_LAST_N_WINDOWS = [lambda: LastNEveryWindow(5, 25)]


@pytest.mark.parametrize("case", range(6))
def test_windows_inside_an_operator_pickle_like_fresh_ones(case):
    """After a differential-fuzz stream -- in order, or disordered under
    frequent watermarks, with punctuations -- every built-in window an
    operator holds, except the punctuation window, pickles to the bytes
    of a fresh window with the same parameters: the stream taught it
    nothing."""
    rng = random.Random(_child_seed("window-specification", case))
    lateness = [0, rng.randint(5, 60), LATENESS][case % 3]
    in_order = lateness == 0 and case % 2 == 0
    arrival = []
    newest = None
    for element in _draw_watermarked_arrival(rng, _draw_stream(rng), lateness):
        if isinstance(element, Record):
            if (newest is None or element.ts > newest) and rng.random() < 0.05:
                arrival.append(Punctuation(element.ts))
            newest = element.ts if newest is None else max(newest, element.ts)
        arrival.append(element)
    punctuated = any(isinstance(element, Punctuation) for element in arrival)
    for makers in (_TIME_WINDOWS, _COUNT_WINDOWS, _LAST_N_WINDOWS):
        # A late record behind an emitted last-n window can crash the
        # count shift (ROADMAP 12(e), pinned in test_operator_ooo.py):
        # that operator drops what arrives behind the watermark.
        allowed = 0 if makers is _LAST_N_WINDOWS else lateness
        operator = GeneralSlicingOperator(stream_in_order=in_order, allowed_lateness=allowed)
        for make_window in makers:
            operator.add_query(make_window(), Median() if case % 2 else Sum())
        operator.add_query(PunctuationWindow(), Sum())
        operator.run(arrival)
        operator.flush()
        operator.check_invariants()
        *held, punctuation = [query.window for query in operator.queries]
        assert (punctuation.get_floor_edge(newest) is not None) is punctuated  # it learns
        for window, make_window in zip(held, makers):
            assert pickle.dumps(window) == pickle.dumps(make_window()), window
