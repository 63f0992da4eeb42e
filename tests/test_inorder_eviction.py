"""An in-order operator's state is bounded by its longest window.

On an in-order stream every record that cuts a slice doubles as a
watermark: it emits what has ended and evicts what no window can reach
any more.  One case per window family, lazy and eager, over a stream
many windows long:

* ``total_slices()`` never exceeds a bound computed by hand from the
  windows alone (sampled behind every record);
* the retained state at the end of the stream is what it was half way;
* every result is the reference's;
* a snapshot taken mid-stream restores to an operator that continues
  result for result and ends in the same frame, byte for byte.

The last test is the case that stays unbounded by design: a session
that never closes pins every slice it spans.
"""

from __future__ import annotations

import pytest

from conftest import disordered_with_watermarks, run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Max, Median, Sum
from repro.core.slice_ import Slice
from repro.core.window_manager import WindowManager
from repro.reference import reference_results
from repro.runtime import deep_sizeof, restore, snapshot
from repro.windows import (
    CountTumblingWindow,
    ExplicitEdgesWindow,
    LastNEveryWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

RECORDS = 4_000


def _ticks():
    """One record per tick.  The values repeat every 5 ticks, so slices
    of 5, 10 or 25 ticks all hold the same multiset."""
    return [Record(tick, float(tick % 5)) for tick in range(RECORDS)]


def _bursts():
    """40 records, one per tick, then 10 silent ticks: a session of 40
    ticks every 50."""
    return [Record(i + i // 40 * 10, float(i % 5)) for i in range(RECORDS)]


#: family -> (queries, stream, most slices ever held), the bound derived
#: above each.  A cut at ``ts`` leaves the slices that end after what the
#: windows can still reach back to from ``ts``, and the head it opened.
FAMILIES = {
    # [ts - 10, ts) and the head.
    "tumbling": (lambda: [(TumblingWindow(10), Sum())], _ticks, 2),
    # Four 10-wide slices of [ts - 40, ts) and the head.
    "sliding": (
        lambda: [(SlidingWindow(40, 10), Sum()), (SlidingWindow(40, 10), Max())],
        _ticks,
        5,
    ),
    # Starts on 10 k, ends on 5 + 10 k: 5-wide slices.  The carry of the
    # window that ended at ts - 5 pins eviction at its start, ts - 30:
    # six slices, and the head.
    "sliding median, carried": (lambda: [(SlidingWindow(25, 10), Median())], _ticks, 7),
    # A session goes whole, behind the record that ends its silence.
    # Until then the tumbling window beside it has cut it into up to four
    # slices (a burst of 40 ticks fills four 10-tick windows), the last
    # of them the head; that record leaves only the head it opened.
    "closing sessions": (
        lambda: [(SessionWindow(5), Sum()), (TumblingWindow(10), Sum())],
        _bursts,
        4,
    ),
    # Counted in records: [n - 10, n), the slice before it (the count
    # horizon stops one slice short, see ``_Chain.eviction_horizon``)
    # and the head.
    "count tumbling": (lambda: [(CountTumblingWindow(10), Sum())], _ticks, 3),
    # The last 15 records start mid-slice and split it: the half in
    # front of them (the count horizon stops one slice short), their own
    # half, the 10-tick slice behind it, and the head.
    "last n every": (lambda: [(LastNEveryWindow(15, 10), Sum())], _ticks, 4),
    # Consecutive windows: behind a cut only the head is left.
    "explicit edges": (
        lambda: [(ExplicitEdgesWindow(list(range(0, 2 * RECORDS, 25))), Sum())],
        _ticks,
        1,
    ),
}


def _operator(queries, eager):
    operator = GeneralSlicingOperator(stream_in_order=True, eager=eager)
    for window, aggregation in queries:
        operator.add_query(window, aggregation)
    return operator


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("family", FAMILIES)
def test_state_is_bounded_by_the_windows_not_the_stream(family, eager):
    queries, make_stream, bound = FAMILIES[family]
    stream = make_stream()
    operator = _operator(queries(), eager)
    collected = {}
    most = 0
    sizes = []  # behind every emitting record
    for record in stream:
        emitted = operator.process(record)
        most = max(most, operator.total_slices())
        if emitted:
            for result in emitted:
                collected[(result.query_id, result.start, result.end)] = result.value
            sizes.append(deep_sizeof(operator.state_objects()))
    operator.check_invariants()
    assert most == bound
    for result in operator.flush():
        collected[(result.query_id, result.start, result.end)] = result.value
    assert collected == reference_results(queries(), stream, horizon=stream[-1].ts + 1_000)
    assert len(collected) > 100

    half = len(sizes) // 2
    if eager:
        # Kernels reclaim evicted leaves in cycles (a flip, a compaction,
        # a relayout), so the size swings within one; its peak does not
        # move.  1 %: the kernels' bookkeeping lists hold small integers,
        # which the interpreter shares and ``deep_sizeof`` counts once.
        assert max(sizes[half:]) == pytest.approx(max(sizes[:half]), rel=0.01)
    else:
        assert sizes[-1] == sizes[half - 1]
        assert max(sizes[half:]) == max(sizes[:half])


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("family", FAMILIES)
def test_snapshot_mid_stream_restores_and_continues_byte_identically(family, eager):
    queries, make_stream, _ = FAMILIES[family]
    stream = make_stream()
    original = _operator(queries(), eager)
    run_operator(original, stream[: RECORDS // 2 + 3])  # mid-slice, evictions behind it
    clone = restore(snapshot(original))
    clone.check_invariants()
    tail = stream[RECORDS // 2 + 3 :]
    assert run_operator(clone, tail) == run_operator(original, tail)
    assert snapshot(clone) == snapshot(original)
    assert clone.flush() == original.flush()


def test_a_session_that_never_closes_pins_its_slices_and_is_grouped_only_once(monkeypatch):
    """What stays pinned: one record per tick never leaves a gap of 5, so
    the one session spans the stream and none of its slices may go -- the
    live slices grow with the stream, as they did before in-order
    eviction.  Finding that out must not cost a walk over them behind
    every cut: the slices that have fallen behind the horizon are grouped
    into their session once."""
    looked = []
    pin_horizon, is_empty = WindowManager.pin_horizon, Slice.is_empty

    def counting_pin(self, horizon, session_gap):
        looked.append(0)
        try:
            return pin_horizon(self, horizon, session_gap)
        finally:
            looked.append(None)

    def counting_is_empty(self):
        if looked and looked[-1] is not None:
            looked[-1] += 1
        return is_empty(self)

    monkeypatch.setattr(WindowManager, "pin_horizon", counting_pin)
    monkeypatch.setattr(Slice, "is_empty", counting_is_empty)
    queries = lambda: [(SlidingWindow(100, 10), Sum()), (SessionWindow(5), Sum())]  # noqa: E731
    stream = [Record(tick, 1.0) for tick in range(1_000)]
    operator = _operator(queries(), eager=False)
    results = run_operator(operator, stream)
    assert operator.total_slices() == 100  # [0, 10) .. [990, ...): all of them
    # The horizon, ts - 100, reaches the first slice's end at ts 110: the
    # 89 cuts from there to 990 each find one more slice behind it, group
    # it, and look at the next one, which continues the session.
    per_call = [count for count in looked if count is not None]
    assert per_call == [2] * 89
    (chain,) = operator._chain_list
    assert chain.window_manager._session_walk == (89, 0, 889)
    results += operator.flush()
    emitted = {(r.query_id, r.start, r.end): r.value for r in results}
    assert emitted == reference_results(queries(), stream, horizon=2_000)
    assert emitted[(1, 0, 1_004)] == 1_000.0


@pytest.mark.parametrize("ordered", [True, False], ids=["in-order", "disorder"])
def test_a_last_n_every_window_forgets_the_edges_behind_the_horizon(ordered):
    """The count a trigger edge was resolved to is window-manager state
    outside ``state_objects()`` and inside the frame: it goes with its
    emitted edge, behind every eviction, instead of one entry per edge
    for ever (499 beside three live slices after these 5 000 records)."""
    window = LastNEveryWindow(5, 10)
    base = [Record(tick, float(tick % 7)) for tick in range(5_000)]
    # Under disorder, late records hit emitted edges.
    stream = base if ordered else disordered_with_watermarks(base, every=25, seed=3)
    operator = GeneralSlicingOperator(stream_in_order=ordered, allowed_lateness=0 if ordered else 20)
    operator.add_query(window, Sum())
    (chain,) = operator._chain_list
    collected = {}
    most = 0
    for element in stream + [Watermark(5_000)]:
        for result in operator.process(element):
            collected[(result.query_id, result.start, result.end)] = result.value
        most = max(most, len(chain.window_manager._emitted_edges[0]))
    # Lateness 20 over edges 10 apart keeps a handful of slices and edges.
    assert most <= (3 if ordered else 10)
    assert operator.total_slices() <= (4 if ordered else 8)
    expected = reference_results([(window, Sum())], stream, horizon=5_000)
    assert len(expected) == 500
    # Under disorder ``collected`` also holds the count intervals a late
    # record has since shifted by one.
    assert expected.items() <= collected.items()
    assert ordered is (len(collected) == 500)
