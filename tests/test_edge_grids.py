"""Edge grids: a chain's edge walks visit one window per grid.

A window whose edges are exactly one arithmetic progression reports it
(:meth:`~repro.windows.base.WindowType.edge_grid`), and the chain keeps,
for its edge walks, only the windows whose grid no other kept window's
grid contains.  A contained window adds no edge, so every edge answer
-- the next edge, the floor edge, whether a region holds an edge, the
next count edge and whether a count is one -- must be what a walk over
every window of the chain answers.  The window sets are random: tumbling
and sliding windows (lengths that are and are not a multiple of the
slide), offsets of either sign, duplicates, and a session, a punctuation
and count windows beside them.

Seeds: ``REPRO_FUZZ_SEED`` is the base, ``REPRO_FUZZ_SCALE`` multiplies
the cases.
"""

from __future__ import annotations

import os
import random

import pytest

from conftest import run_operator
from repro import GeneralSlicingOperator
from repro.aggregations import Sum
from repro.core.measures import MeasureKind
from repro.core.types import Punctuation, Record
from repro.windows import (
    CountSlidingWindow,
    CountTumblingWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

pytestmark = pytest.mark.fuzz

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20190326"))
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))
CASES = 60 * FUZZ_SCALE
PROBES = 80

#: Periods share factors, so grids often contain one another.
_STEPS = (5, 10, 15, 20, 30, 60)


def _grid_window(rng, make_tumbling, make_sliding):
    offset = rng.randint(-70, 70)
    step = rng.choice(_STEPS)
    if rng.random() < 0.4:
        return make_tumbling(step * rng.randint(1, 4), offset)
    length = step * rng.randint(1, 5)
    if rng.random() < 0.3:
        length += rng.randint(1, step - 1)  # the ends leave the slide's grid
    return make_sliding(length, step, offset)


def _windows(rng):
    """A random window set of both measures, with duplicates."""
    windows = []
    for _ in range(rng.randint(1, 8)):
        if windows and rng.random() < 0.2:
            windows.append(rng.choice(windows))  # the very same window again
        elif rng.random() < 0.7:
            windows.append(_grid_window(rng, TumblingWindow, SlidingWindow))
        else:
            windows.append(_grid_window(rng, CountTumblingWindow, CountSlidingWindow))
    if rng.random() < 0.5:
        windows.append(SessionWindow(rng.randint(5, 40)))
    if rng.random() < 0.5:
        punctuation = PunctuationWindow()
        for ts in rng.sample(range(-100, 400), 6):
            punctuation.on_punctuation(Punctuation(ts))
        windows.append(punctuation)
    rng.shuffle(windows)
    return windows


def _fixed(chain):
    return [window for window in chain._windows if not isinstance(window, SessionWindow)]


def _next_time_edge(chain, ts):
    """The smallest edge after ``ts`` of any window, a session's
    tentative ones (newest record plus its gap) included."""
    edges = [window.get_next_edge(ts) for window in _fixed(chain)]
    newest = chain.window_manager.newest_record_ts()
    if newest is not None:
        edges += [newest + window.gap for window in chain.session_windows]
    return min((edge for edge in edges if edge is not None and edge > ts), default=None)


def _floor_time_edge(chain, ts):
    edges = [window.get_floor_edge(ts) for window in _fixed(chain)]
    return max((edge for edge in edges if edge is not None), default=None)


def _edge_in_region(chain, lo, hi):
    return any(
        (floor := window.get_floor_edge(hi)) is not None and floor >= lo
        for window in _fixed(chain)
    )


def _contains(outer, inner):
    """Whether every edge of grid ``inner`` is an edge of grid ``outer``."""
    (period, phase), (inner_period, inner_phase) = outer, inner
    return inner_period % period == 0 and (inner_phase - phase) % period == 0


@pytest.mark.parametrize("case", range(CASES))
def test_the_kept_windows_answer_every_edge_walk_like_all_windows(case):
    rng = random.Random(random.Random(f"{BASE_SEED}:edge-grids:{case}").randrange(2**63))
    windows = _windows(rng)
    operator = GeneralSlicingOperator(stream_in_order=True)
    for window in windows:
        operator.add_query(window, Sum())
    # A few records, so that a session has a tentative edge.
    run_operator(operator, [Record(ts, 1.0) for ts in sorted(rng.sample(range(0, 60), 5))])

    time_chain = operator._chains.get(MeasureKind.TIME)
    if time_chain is not None:
        kept = time_chain._fixed_edge_windows[0]
        assert all(window in _fixed(time_chain) for window in kept)
        grids = [window.edge_grid() for window in kept if window.edge_grid() is not None]
        for i, outer in enumerate(grids):
            for j, inner in enumerate(grids):
                assert i == j or not _contains(outer, inner), (outer, inner)
        for _ in range(PROBES):
            ts = rng.randint(-200, 500)
            assert time_chain.next_time_edge(ts) == _next_time_edge(time_chain, ts), ts
            assert time_chain.floor_time_edge(ts) == _floor_time_edge(time_chain, ts), ts
            lo = ts - rng.randint(0, 40)
            assert time_chain.edge_in_region(lo, ts) == _edge_in_region(time_chain, lo, ts)

    count_chain = operator._chains.get(MeasureKind.COUNT)
    if count_chain is not None:
        counted = count_chain._windows
        kept = count_chain._fixed_edge_windows[1]
        grids = [window.edge_grid() for window in kept if window.edge_grid() is not None]
        for i, outer in enumerate(grids):
            for j, inner in enumerate(grids):
                assert i == j or not _contains(outer, inner), (outer, inner)
        for _ in range(PROBES):
            count = rng.randint(-50, 300)
            expected = min(window.get_next_edge(count) for window in counted)
            assert count_chain.next_count_edge(count) == expected, count
            assert count_chain.is_count_edge(count) == any(
                window.is_edge(count) for window in counted
            ), count


@pytest.mark.parametrize(
    "window, grid",
    [
        (TumblingWindow(30), (30, 0)),
        (TumblingWindow(30, offset=-70), (30, 20)),
        (SlidingWindow(60, 20, offset=45), (20, 5)),
        (SlidingWindow(50, 20), None),
        (CountTumblingWindow(4, offset=6), (4, 2)),
        (SessionWindow(10), None),
        (PunctuationWindow(), None),
    ],
)
def test_edge_grid(window, grid):
    assert window.edge_grid() == grid
