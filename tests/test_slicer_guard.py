"""The slicer's guard: Step 1's one comparison, held by the operator.

While an in-order record sits below ``slicer.open_until`` /
``open_until_count`` the operator adds it to the open last slice without
entering the slicer.  These tests pin the two halves of that contract:

* the fast path skips nothing observable -- tracer counters are the
  hand-derived ones and ``ensure_open_slice`` runs once per slice;
* every event other than an in-order record withdraws the guard, so the
  next in-order record goes through ``ensure_open_slice`` again, and the
  final results still equal :mod:`repro.reference`.

(The checkpoint events live in ``tests/test_checkpoint.py``.)
"""

from __future__ import annotations

import pytest

from conftest import final_values, run_operator
from repro import GeneralSlicingOperator, Punctuation, Record, Watermark
from repro.aggregations import Sum
from repro.core.measures import MeasureKind
from repro.core.stream_slicer import StreamSlicer
from repro.reference import reference_results
from repro.windows import (
    CountTumblingWindow,
    PunctuationWindow,
    SessionWindow,
    TumblingWindow,
)

NEVER = float("-inf")
HORIZON = 1_000


@pytest.fixture
def slicer_calls(monkeypatch):
    """Timestamps handed to ``StreamSlicer.ensure_open_slice``, in call order."""
    calls = []
    original = StreamSlicer.ensure_open_slice

    def spy(self, ts, count_position):
        calls.append(ts)
        return original(self, ts, count_position)

    monkeypatch.setattr(StreamSlicer, "ensure_open_slice", spy)
    return calls


def _slicer(operator, kind=MeasureKind.TIME):
    return operator._chains[kind].slicer


def _armed(slicer):
    return slicer.open_until != NEVER or slicer.open_until_count != NEVER


def _operator(queries, **kwargs):
    operator = GeneralSlicingOperator(**kwargs)
    for window, aggregation in queries:
        operator.add_query(window, aggregation)
    return operator


def _check_against_reference(operator, queries, stream, collected):
    """Finish the stream with a watermark; every window the operator
    emitted over the whole stream must be the reference's."""
    collected.update(final_values(operator, [Watermark(HORIZON)]))
    assert collected == reference_results(queries(), stream, horizon=HORIZON)
    operator.check_invariants()


# ----------------------------------------------------------------------
# the fast path swallows no counter


@pytest.mark.parametrize("length, slices", [(100, 1), (10, 10)])
def test_hand_counted_tracer_and_one_slicer_call_per_slice(length, slices, slicer_calls):
    """200 records at 2000 Hz span ts 0..99, two per millisecond."""
    operator = _operator([(TumblingWindow(length), Sum())], stream_in_order=True)
    tracer = operator.enable_tracing()
    results = run_operator(operator, [Record(i // 2, 1.0) for i in range(200)])

    assert tracer.value("operator.records") == 200
    # One slice per window reached; opening the first counts as a cut,
    # and each open or cut looks the next edge up exactly once.
    assert tracer.value("slicer.slices_created") == slices
    assert tracer.value("slicer.cuts") == slices
    assert tracer.value("slicer.edge_lookups") == slices
    assert len(results) == slices - 1  # the last window is still open
    # The slicer ran for the records that opened a slice and for no other:
    # the eviction behind each cut leaves the guard armed.
    assert slicer_calls == [k * length for k in range(slices)]
    # The record that cuts at ts evicts what ends at or before ts - length.
    # Of ten 10-wide slices the cut at 90 leaves [80, 90) and the open head
    # [90, ...), and every cut from 20 on dropped one slice: 8 in all.  A
    # single 100-wide slice is the open head and stays.
    live = min(slices, 2)
    assert len(operator.state_objects()[0].slices) == live
    assert tracer.value("store.slices_evicted") == slices - live


def test_guard_bounds_follow_the_cached_edges():
    operator = _operator(
        [(TumblingWindow(10), Sum()), (CountTumblingWindow(4), Sum())], stream_in_order=True
    )
    time_slicer, count_slicer = _slicer(operator), _slicer(operator, MeasureKind.COUNT)
    assert not _armed(time_slicer) and not _armed(count_slicer)
    run_operator(operator, [Record(ts, 1.0) for ts in range(6)])
    assert (time_slicer.open_until, time_slicer.open_until_count) == (10, float("inf"))
    assert (count_slicer.open_until, count_slicer.open_until_count) == (float("inf"), 8)
    operator.check_invariants()


def test_moving_edges_never_arm_the_guard(slicer_calls):
    operator = _operator([(SessionWindow(5), Sum())], stream_in_order=True)
    run_operator(operator, [Record(ts, 1.0) for ts in range(4)])
    assert not _armed(_slicer(operator))
    assert slicer_calls == [0, 1, 2, 3]


def test_check_invariants_names_what_an_armed_guard_lacks():
    operator = _operator([(TumblingWindow(10), Sum())], stream_in_order=True)
    run_operator(operator, [Record(ts, 1.0) for ts in range(3)])
    slicer = _slicer(operator)
    slicer._cache_valid = False
    with pytest.raises(AssertionError, match="armed but the edge cache is invalid"):
        operator.check_invariants()
    slicer._cache_valid = True
    slicer.open_until = 11
    with pytest.raises(AssertionError, match="open_until 11 is not the cached time edge 10"):
        operator.check_invariants()
    slicer.open_until = 10
    operator.state_objects()[0].slices[-1].end = 10
    with pytest.raises(AssertionError, match="the last slice is closed"):
        operator.check_invariants()


# ----------------------------------------------------------------------
# one test per disarm event: in-order record, event, in-order record


def test_watermark_eviction_disarms(slicer_calls):
    """The watermark evicts every closed slice (the open head is never
    evicted, so this is as empty as eviction leaves a store)."""
    queries = lambda: [(TumblingWindow(10), Sum())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=False, allowed_lateness=0)
    stream = [Record(ts, 1.0) for ts in range(0, 36, 3)]
    collected = final_values(operator, stream)
    slicer = _slicer(operator)
    assert _armed(slicer)
    store = operator.state_objects()[0]
    assert len(store.slices) == 4

    collected.update(final_values(operator, [Watermark(60)]))
    assert len(store.slices) == 1 and store.slices[0].end is None
    assert not _armed(slicer)

    del slicer_calls[:]
    tail = [Record(61, 1.0), Record(62, 1.0)]
    collected.update(final_values(operator, tail))
    assert slicer_calls == [61]  # slow path once, then armed again
    _check_against_reference(operator, queries, stream + tail, collected)


def test_eviction_behind_an_in_order_record_leaves_the_guard_armed(slicer_calls):
    """The counterpart: it drops closed slices in front of the open head
    the record went into, nothing an armed guard promises anything about,
    and no watermark moved.  Cuts at ts 12, 21 and 30; the last two evict
    [0, 10) and [10, 20)."""
    queries = lambda: [(TumblingWindow(10), Sum())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True)
    tracer = operator.enable_tracing()
    stream = [Record(ts, 1.0) for ts in range(0, 36, 3)]
    collected = final_values(operator, stream[:-1])  # up to the cut at 30
    slicer = _slicer(operator)
    store = operator.state_objects()[0]
    assert tracer.value("store.slices_evicted") == 2
    assert [(s.start, s.end) for s in store.slices] == [(20, 30), (30, None)]
    assert _armed(slicer) and slicer.open_until == 40
    operator.check_invariants()

    collected.update(final_values(operator, stream[-1:]))
    assert slicer_calls == [0, 12, 21, 30]  # ts 33 went straight into the head
    _check_against_reference(operator, queries, stream, collected)


def test_late_record_on_a_count_chain_disarms(slicer_calls):
    """The count cascade moves a record across every count boundary up
    to the open head."""
    queries = lambda: [(CountTumblingWindow(4), Sum())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=False, allowed_lateness=HORIZON)
    stream = [Record(ts, float(ts)) for ts in range(0, 20, 2)]
    collected = final_values(operator, stream)
    slicer = _slicer(operator, MeasureKind.COUNT)
    store = operator.state_objects()[0]
    assert _armed(slicer) and slicer.open_until_count == 12
    assert [s.record_count for s in store.slices] == [4, 4, 2]

    late = Record(3, 100.0)
    collected.update(final_values(operator, [late]))
    assert [s.record_count for s in store.slices] == [4, 4, 3]  # shifted into the head
    assert not _armed(slicer)

    del slicer_calls[:]
    tail = [Record(20, 20.0), Record(22, 22.0)]
    collected.update(final_values(operator, tail))
    assert slicer_calls == [20, 22]  # position 11 re-arms, position 12 cuts
    _check_against_reference(operator, queries, stream + [late] + tail, collected)


def test_late_record_on_a_time_chain_keeps_the_guard(slicer_calls):
    """A late add can neither close nor replace the open head of a
    fixed-edge time chain, nor move an edge: the guard stays."""
    queries = lambda: [(TumblingWindow(10), Sum())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=False, allowed_lateness=HORIZON)
    stream = [Record(ts, 1.0) for ts in range(0, 25, 2)]
    collected = final_values(operator, stream)
    slicer = _slicer(operator)
    assert slicer.open_until == 30

    late = [Record(3, 5.0), Record(21, 7.0)]  # an older slice, then the head
    collected.update(final_values(operator, late))
    assert slicer.open_until == 30
    operator.check_invariants()

    del slicer_calls[:]
    tail = [Record(26, 1.0), Record(31, 1.0)]
    collected.update(final_values(operator, tail))
    assert slicer_calls == [31]
    _check_against_reference(operator, queries, stream + late + tail, collected)


def test_session_merge_swallowing_the_head(slicer_calls):
    queries = lambda: [(SessionWindow(5), Sum())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=False, allowed_lateness=HORIZON)
    stream = [Record(0, 1.0), Record(1, 1.0), Record(2, 1.0), Record(10, 1.0)]
    collected = final_values(operator, stream)
    store = operator.state_objects()[0]
    assert len(store.slices) == 2

    late = Record(6, 1.0)  # within the gap of both sessions: they merge
    collected.update(final_values(operator, [late]))
    assert len(store.slices) == 1 and store.slices[0].end is None
    assert not _armed(_slicer(operator))

    del slicer_calls[:]
    tail = [Record(12, 1.0), Record(30, 1.0)]
    collected.update(final_values(operator, tail))
    assert slicer_calls == [12, 30]
    _check_against_reference(operator, queries, stream + [late] + tail, collected)
    assert collected[(0, 0, 17)] == 6.0


def test_late_punctuation_splitting_the_head_disarms_every_chain(slicer_calls):
    queries = lambda: [  # noqa: E731
        (PunctuationWindow(), Sum()),
        (CountTumblingWindow(4), Sum()),
    ]
    operator = _operator(queries(), stream_in_order=False, allowed_lateness=HORIZON)
    stream = [Record(ts, 1.0) for ts in range(6)]
    collected = final_values(operator, stream)
    count_slicer = _slicer(operator, MeasureKind.COUNT)
    assert _armed(count_slicer) and not _armed(_slicer(operator))
    time_store = operator._chains[MeasureKind.TIME].store
    assert len(time_store.slices) == 1

    marks = [Punctuation(3)]  # behind the newest record: splits the head
    collected.update(final_values(operator, marks))
    assert [(s.start, s.end) for s in time_store.slices] == [(0, 3), (3, None)]
    assert not _armed(count_slicer)

    del slicer_calls[:]
    tail = [Record(6, 1.0), Punctuation(8), Record(9, 1.0)]
    collected.update(final_values(operator, tail))
    assert slicer_calls[:2] == [6, 6]  # both chains enter the slicer
    _check_against_reference(operator, queries, stream + marks + tail, collected)
    assert collected[(0, 0, 3)] == 3.0 and collected[(0, 3, 8)] == 4.0


def test_add_query_mid_slice_rebuilds_the_chain_disarmed(slicer_calls):
    operator = _operator([(TumblingWindow(10), Sum())], stream_in_order=True)
    run_operator(operator, [Record(ts, 1.0) for ts in range(3)])
    assert _armed(_slicer(operator))

    operator.add_query(TumblingWindow(4), Sum())
    assert not _armed(_slicer(operator))  # a new chain, a new slicer

    del slicer_calls[:]
    tail = [Record(ts, 1.0) for ts in range(3, 25)]
    collected = final_values(operator, tail)
    assert slicer_calls[0] == 3 and 4 not in slicer_calls[:1]
    # The rebuilt chain starts from the records it saw.
    queries = lambda: [(TumblingWindow(10), Sum()), (TumblingWindow(4), Sum())]  # noqa: E731
    _check_against_reference(operator, queries, tail, collected)


def test_remove_query_mid_slice_rebuilds_the_chain_disarmed(slicer_calls):
    operator = _operator(
        [(TumblingWindow(10), Sum()), (TumblingWindow(4), Sum())], stream_in_order=True
    )
    run_operator(operator, [Record(ts, 1.0) for ts in range(3)])
    assert _armed(_slicer(operator))

    operator.remove_query(1)
    assert not _armed(_slicer(operator))

    del slicer_calls[:]
    tail = [Record(ts, 1.0) for ts in range(3, 25)]
    collected = final_values(operator, tail)
    assert slicer_calls == [3, 10, 20]  # one per slice of the remaining query
    queries = lambda: [(TumblingWindow(10), Sum())]  # noqa: E731
    _check_against_reference(operator, queries, tail, collected)


def test_add_query_on_another_measure_leaves_the_untouched_chain_armed():
    operator = _operator([(TumblingWindow(10), Sum())], stream_in_order=True)
    run_operator(operator, [Record(ts, 1.0) for ts in range(3)])
    slicer = _slicer(operator)
    operator.add_query(CountTumblingWindow(4), Sum())
    assert _slicer(operator) is slicer and slicer.open_until == 10
    operator.check_invariants()


def test_turning_the_edge_cache_off_mid_stream_recomputes_per_record(slicer_calls):
    queries = lambda: [(TumblingWindow(10), Sum())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True)
    tracer = operator.enable_tracing()
    stream = [Record(ts, 1.0) for ts in range(4)]
    collected = final_values(operator, stream)
    slicer = _slicer(operator)
    assert slicer_calls == [0] and tracer.value("slicer.edge_lookups") == 1

    slicer.cache_edges = False
    assert not _armed(slicer)

    tail = [Record(ts, 1.0) for ts in range(4, 25)]
    collected.update(final_values(operator, tail))
    assert slicer_calls == [0] + list(range(4, 25))  # every record from the switch on
    assert not _armed(slicer)
    # One lookup per record, one more for each of the two cuts.
    assert tracer.value("slicer.edge_lookups") == 1 + len(tail) + 2

    # Re-armed before the closing watermark: a record behind it is late,
    # which an in-order operator refuses.
    slicer.cache_edges = True
    rearmed = [Record(25, 1.0)]
    collected.update(final_values(operator, rearmed))
    assert slicer.open_until == 30
    _check_against_reference(operator, queries, stream + tail + rearmed, collected)
