"""The window manager's carry: a window's result slid, not refolded.

For a query whose partials subtract exactly (holistic, commutative,
invertible: ``Median`` / ``Percentile``) the window manager keeps the
previous emit's ``(start, end, lo, hi, partial)`` and answers the next
window by ⊖ the slices that left ⊕ the slices that entered.  These tests
pin the two halves of that contract, one test per event:

* in the steady state every window after the first is slid, and reads
  only the slices that changed (hand-counted tracer bound);
* every event that can change a carried slice or its index -- a late
  record, a gap slice, a late split, an eviction, an open head in range,
  a rebuilt chain, a restore -- makes the next window fold and reseed,
  and the final results still equal :mod:`repro.reference` and the
  ``share_windows=False`` run, which never carries anything.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

from conftest import final_values, run_operator
from repro import GeneralSlicingOperator, Punctuation, Record, Watermark
from repro.aggregations import Median, Percentile, PlainMedian, Sum
from repro.core.measures import MeasureKind
from repro.core.slots import slot_names
from repro.core.window_manager import WindowManager
from repro.reference import reference_results
from repro.runtime import deep_sizeof, restore, snapshot
from repro.windows import CountTumblingWindow, PunctuationWindow, SlidingWindow, TumblingWindow

HORIZON = 1_000
LATENESS = 10 * HORIZON
#: Seed and case multiplier of the seeded cases, shared with
#: ``tests/test_differential_fuzz.py`` (CI pins the seed, ``fuzz-long`` scales).
BASE_SEED = os.environ.get("REPRO_FUZZ_SEED", "20190326")
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


@pytest.fixture
def slides(monkeypatch):
    """``(query_id, start, end, slid)`` per eligible window, in emit order:
    ``slid`` is whether the carry answered it (else it was folded)."""
    calls = []
    original = WindowManager._slide

    def spy(self, managed, start, end):
        partial = original(self, managed, start, end)
        calls.append((managed.query_id, start, end, partial is not None))
        return partial

    monkeypatch.setattr(WindowManager, "_slide", spy)
    return calls


def _folded(calls):
    """The windows that had to fold, as ``(query_id, start, end)``."""
    return [call[:3] for call in calls if not call[3]]


def _value(ts):
    return float(ts * 7 % 11)


def _records(timestamps):
    return [Record(ts, _value(ts)) for ts in timestamps]


def _operator(queries, **kwargs):
    operator = GeneralSlicingOperator(**kwargs)
    for window, aggregation in queries:
        operator.add_query(window, aggregation)
    return operator


def _window_manager(operator, kind=MeasureKind.TIME):
    return operator._chains[kind].window_manager


def _slices(operator, kind=MeasureKind.TIME):
    return operator._chains[kind].store.slices


def _carry(operator, query_id=0):
    return _window_manager(operator)._carries[query_id]


def _finish(operator, queries, elements, collected, **kwargs):
    """End the stream with a watermark.  Every window emitted over the
    whole stream must be the reference's, and the run without shared
    windows -- which never slides -- must have emitted the same."""
    collected.update(final_values(operator, [Watermark(HORIZON)]))
    assert collected == reference_results(queries(), elements, horizon=HORIZON)
    unshared = _operator(queries(), share_windows=False, **kwargs)
    assert collected == final_values(unshared, list(elements) + [Watermark(HORIZON)])
    operator.check_invariants()


# ----------------------------------------------------------------------
# the steady state


def test_steady_slide_folds_once_and_then_slides(slides):
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True)
    tracer = operator.enable_tracing()
    stream = _records(range(200))
    collected = final_values(operator, stream)

    assert _folded(slides) == [(0, 0, 40)]  # the first window seeds the carry
    assert len(slides) == 16 and slides[-1] == (0, 150, 190, True)  # [160, 200) is still open
    assert tracer.value("window.slides") == 15 and tracer.value("window.refolds") == 1
    # One seed fold over 4 slices, then one slice out and one in per window.
    assert tracer.value("store.slices_combined") == 4 + 2 * 15
    assert tracer.value("share.requests") == 0
    # The cut at 190 evicted what ends at or before 190 - 40: the carry's
    # four slices are the first four left, ahead of the open head.
    start, end, lo, hi, partial, nonempty = _carry(operator)
    assert (start, end, lo, hi, nonempty) == (150, 190, 0, 4, 4)
    assert operator.total_slices() == 5
    assert partial.total == 40
    _finish(operator, queries, stream, collected, stream_in_order=True)


def test_length_not_a_multiple_of_the_slide_moves_lo_and_hi_by_different_slices(slides):
    """Starts fall on multiples of 10, ends on 5 + multiples of 10 from
    25 on: the chain is cut at 0, 10, 20, 25, 30, 35, ...  A window gains
    two 5-wide slices and loses one 10-wide slice at first, two 5-wide
    ones from [30, 55) on.

    A cut between two window ends (ts 90) could evict up to 90 - 25 = 65,
    but [70, 95) will have to ⊖ [60, 65) and [65, 70): the carry of
    [60, 85) pins the horizon at 60, or every window from [30, 55) on
    would fold."""
    queries = lambda: [(SlidingWindow(25, 10), Median())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True)
    tracer = operator.enable_tracing()
    stream = _records(range(100))
    collected = final_values(operator, stream)

    assert _folded(slides) == [(0, 0, 25)]
    assert [call[1:3] for call in slides][-1] == (70, 95) and len(slides) == 8
    store = operator.state_objects()[0]
    # The cut at 95 emitted [70, 95) and evicted what ends at or before 70.
    assert [s.start for s in store.slices] == [70, 75, 80, 85, 90, 95]
    start, end, lo, hi, _, nonempty = _carry(operator)
    assert (start, end, lo, hi, nonempty) == (70, 95, 0, 5, 5)
    # 3 slices for the seed; 1 out + 2 in for [10, 35) and [20, 45),
    # 2 out + 2 in for the other five slid windows.
    assert tracer.value("store.slices_combined") == 3 + 2 * 3 + 5 * 4
    _finish(operator, queries, stream, collected, stream_in_order=True)


def test_five_nested_queries_read_two_slices_per_window_after_their_seeds(slides):
    """The hand-counted bound: ``store.slices_combined`` <= 2 x slices x
    queries + the seed folds, and nothing goes through the shared plan."""
    lengths = (20, 40, 60, 80, 100)
    queries = lambda: [(SlidingWindow(length, 10), Median()) for length in lengths]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True)
    tracer = operator.enable_tracing()
    stream = _records(range(300))
    collected = final_values(operator, stream)

    assert _folded(slides) == [(i, 0, length) for i, length in enumerate(lengths)]
    seeds = sum(length // 10 for length in lengths)
    slices = tracer.value("slicer.slices_created")
    assert slices == 30
    # Behind the cut at 290 the longest window keeps [190, 290) and the head.
    assert operator.total_slices() == 11
    windows = sum((300 - length) // 10 for length in lengths)  # ends 10 .. 290 per query
    assert tracer.value("window.slides") == windows - len(lengths)
    assert tracer.value("store.slices_combined") == seeds + 2 * (windows - len(lengths))
    assert tracer.value("store.slices_combined") <= 2 * slices * len(lengths) + seeds
    # Each seed was the only pending window of its watermark: no plan.
    assert tracer.value("share.requests") == 0
    _finish(operator, queries, stream, collected, stream_in_order=True)


def test_only_exactly_invertible_holistic_functions_on_shared_windows_slide(slides):
    operator = _operator(
        [
            (SlidingWindow(40, 10), Sum()),  # distributive: O(1) to fold, float ⊖ inexact
            (SlidingWindow(40, 10), Percentile(0.9)),
            (SlidingWindow(40, 10), PlainMedian()),
            (CountTumblingWindow(7), Median()),  # count windows never overlap by slices
        ],
        stream_in_order=True,
    )
    assert _window_manager(operator)._carries == {1: None, 2: None}
    assert _window_manager(operator, MeasureKind.COUNT)._carries == {}
    run_operator(operator, _records(range(100)))
    assert {call[0] for call in slides} == {1, 2}
    operator.check_invariants()

    del slides[:]
    unshared = _operator([(SlidingWindow(40, 10), Median())], stream_in_order=True, share_windows=False)
    assert _window_manager(unshared)._carries == {}
    run_operator(unshared, _records(range(100)))
    assert slides == []


def test_windows_that_never_overlap_keep_folding_through_the_shared_plan(slides):
    """Tumbling windows never overlap, so no query carries: each window
    takes the path it took before the carry -- including the plan that
    shares the suffixes of the nested windows closing together."""
    queries = lambda: [  # noqa: E731
        (TumblingWindow(10), Sum()),  # cuts the 10-wide slices the others share
        (TumblingWindow(40), Median()),
        (TumblingWindow(80), Median()),
        (TumblingWindow(160), Median()),
    ]
    operator = _operator(queries(), stream_in_order=True)
    tracer = operator.enable_tracing()
    stream = _records(range(330))
    collected = final_values(operator, stream)

    assert slides == []
    assert tracer.value("window.slides") == 0 and tracer.value("window.refolds") == 0
    assert tracer.value("share.hits") > 0
    assert 1 not in _window_manager(operator)._carries
    _finish(operator, queries, stream, collected, stream_in_order=True)


# ----------------------------------------------------------------------
# silence


def test_silence_shorter_than_the_window_keeps_the_carry_longer_drops_it(slides):
    """After ts 99 nothing arrives until ts 160, which closes the windows
    ending 100 .. 160 at once.  The 100-wide window, seeded long before,
    never runs empty and slides across the silence.  The 30-wide one
    runs empty at [100, 130): nothing is emitted for it until [140, 170),
    whose fold reseeds it."""
    queries = lambda: [  # noqa: E731
        (SlidingWindow(30, 10), Median()),
        (SlidingWindow(80, 10), Median()),
    ]
    operator = _operator(queries(), stream_in_order=True)
    stream = _records(list(range(100)) + list(range(160, 200)))
    collected = final_values(operator, stream)

    assert _folded(slides) == [
        (0, 0, 30),
        (1, 0, 80),
        (0, 100, 130),  # comes out with no record left: folded (to nothing), carry dropped
        (0, 110, 140),
        (0, 120, 150),
        (0, 130, 160),
        (0, 140, 170),  # the first window with a record again reseeds
    ]
    assert (0, 90, 120, True) in slides and (0, 150, 180, True) in slides
    assert all(end not in (140, 150, 160) for query, _, end in collected if query == 0)
    _finish(operator, queries, stream, collected, stream_in_order=True)


def test_emit_empty_reports_the_empty_windows_of_the_silence(slides):
    queries = lambda: [(SlidingWindow(30, 10), Median())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True, emit_empty=True)
    stream = _records(list(range(100)) + list(range(160, 200)))
    collected = final_values(operator, stream)

    assert [collected[(0, end - 30, end)] for end in (130, 140, 150, 160)] == [None] * 4
    assert collected[(0, 140, 170)] is not None
    assert (0, 150, 180, True) in slides
    unshared = _operator(queries(), stream_in_order=True, emit_empty=True, share_windows=False)
    assert collected == final_values(unshared, stream)
    operator.check_invariants()


# ----------------------------------------------------------------------
# one test per event: emits, event, emits again


def _ooo_run(queries, head, **kwargs):
    """An out-of-order operator that has emitted every window of ``head``
    ending at or before the watermark that follows it."""
    kwargs.setdefault("allowed_lateness", LATENESS)
    operator = _operator(queries(), stream_in_order=False, **kwargs)
    collected = final_values(operator, head)
    return operator, collected


def test_late_record_inside_a_carried_range_drops_the_carry(slides):
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    head = _records(range(0, 160)) + [Watermark(100)]
    operator, collected = _ooo_run(queries, head)
    assert _carry(operator)[:2] == (60, 100)

    late = [Record(75, 100.0)]  # behind the watermark, inside [60, 100)
    collected.update(final_values(operator, late))
    assert _carry(operator) is None
    assert collected[(0, 60, 100)] == reference_results(queries(), head + late, horizon=100)[(0, 60, 100)]

    del slides[:]
    tail = [Watermark(110), Watermark(130)]
    collected.update(final_values(operator, tail))
    assert slides == [(0, 70, 110, False), (0, 80, 120, True), (0, 90, 130, True)]
    _finish(operator, queries, head + late + tail, collected, allowed_lateness=LATENESS)


def test_after_a_miss_a_query_folds_for_the_rest_of_that_watermark(slides):
    """A folded window goes through the shared plan with whatever else
    the watermark closes and seeds the carry once that is resolved, so
    the query's later windows of the same watermark fold as well; the
    last of them is the one carried on."""
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    head = _records(range(0, 160)) + [Watermark(100)]
    operator, collected = _ooo_run(queries, head)
    late = [Record(75, 100.0)]
    collected.update(final_values(operator, late))

    del slides[:]
    collected.update(final_values(operator, [Watermark(130)]))
    assert slides == [(0, 70, 110, False), (0, 80, 120, False), (0, 90, 130, False)]
    assert _carry(operator)[:2] == (90, 130)
    collected.update(final_values(operator, [Watermark(140)]))
    assert slides[-1] == (0, 100, 140, True)
    elements = head + late + [Watermark(130), Watermark(140)]
    _finish(operator, queries, elements, collected, allowed_lateness=LATENESS)


def test_late_record_at_or_after_the_watermark_keeps_the_carry(slides):
    """Out of order but not late: it lands in a slice at an index past
    every carried range."""
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    head = _records(range(0, 160)) + [Watermark(100)]
    operator, collected = _ooo_run(queries, head)
    before = _carry(operator)

    unordered = [Record(100, 100.0), Record(105, 50.0)]
    collected.update(final_values(operator, unordered))
    assert _carry(operator) is before
    operator.check_invariants()

    del slides[:]
    tail = [Watermark(120)]
    collected.update(final_values(operator, tail))
    assert slides == [(0, 70, 110, True), (0, 80, 120, True)]
    _finish(operator, queries, head + unordered + tail, collected, allowed_lateness=LATENESS)


def test_gap_slice_behind_the_watermark_drops_the_carry_after_it_keeps_it(slides):
    """Records at 0 .. 49 and 80 .. 149: no slice covers [50, 80)."""
    queries = lambda: [(SlidingWindow(60, 10), Median())]  # noqa: E731
    head = _records(list(range(50)) + list(range(80, 150))) + [Watermark(100)]
    operator, collected = _ooo_run(queries, head)
    store = operator.state_objects()[0]
    assert _carry(operator)[:4] == (40, 100, 4, 7)  # slices 40, 80, 90

    behind = [Record(65, 3.0)]  # a new slice [60, 70) inside the carried range
    collected.update(final_values(operator, behind))
    assert [s.start for s in store.slices[4:8]] == [40, 60, 80, 90]
    assert _carry(operator) is None

    del slides[:]
    collected.update(final_values(operator, [Watermark(110)]))
    assert slides == [(0, 50, 110, False)]
    reseeded = _carry(operator)
    assert reseeded[:4] == (50, 110, 5, 9)

    # The stream went on to 149 with nothing at 150 .. 179; a record at
    # 165 is out of order but ahead of the watermark: its gap slice goes
    # in past every carried index.
    ahead = _records(range(180, 200)) + [Record(165, 4.0)]
    collected.update(final_values(operator, ahead))
    assert 160 in [s.start for s in store.slices]
    assert _carry(operator) is reseeded
    operator.check_invariants()

    del slides[:]
    collected.update(final_values(operator, [Watermark(130)]))
    assert slides == [(0, 60, 120, True), (0, 70, 130, True)]
    elements = head + behind + [Watermark(110)] + ahead + [Watermark(130)]
    _finish(operator, queries, elements, collected, allowed_lateness=LATENESS)


def test_late_punctuation_split_in_a_shared_chain_drops_the_carry(slides):
    queries = lambda: [  # noqa: E731
        (SlidingWindow(40, 10), Median()),
        (PunctuationWindow(), Sum()),
    ]
    head = _records(range(0, 160)) + [Watermark(100)]
    operator, collected = _ooo_run(queries, head)
    store = operator.state_objects()[0]
    assert _carry(operator)[:4] == (60, 100, 6, 10)

    marks = [Punctuation(75)]  # behind the newest record and the watermark
    collected.update(final_values(operator, marks))
    assert [(s.start, s.end) for s in store.slices[7:9]] == [(70, 75), (75, 80)]
    assert _carry(operator) is None

    del slides[:]
    tail = [Watermark(110), Punctuation(165), Watermark(130)]
    collected.update(final_values(operator, tail))
    assert slides == [(0, 70, 110, False), (0, 80, 120, True), (0, 90, 130, True)]
    _finish(operator, queries, head + marks + tail, collected, allowed_lateness=LATENESS)


def test_eviction_moves_a_kept_carry_to_its_new_indices_and_drops_a_cut_one(slides):
    """5-wide slices under a 40-wide window sliding by 10, no lateness: a
    watermark evicts what ends at or before ``watermark - 40``, but never
    past the start of a carried window."""
    queries = lambda: [  # noqa: E731
        (SlidingWindow(40, 10), Median()),
        (TumblingWindow(5), Sum()),
    ]
    head = _records(range(0, 200)) + [Watermark(100)]
    operator, collected = _ooo_run(queries, head, allowed_lateness=0)
    store = operator.state_objects()[0]
    # Twelve slices are gone and the carry has moved down by twelve.
    assert store.slices[0].start == 60
    assert _carry(operator)[:4] == (60, 100, 0, 8)
    operator.check_invariants()

    del slides[:]
    collected.update(final_values(operator, [Watermark(120)]))
    assert slides == [(0, 70, 110, True), (0, 80, 120, True)]
    assert _carry(operator)[:4] == (80, 120, 0, 8)

    # A watermark between two slides emits [90, 130) and could evict up to
    # 95.  [90, 95) is the first slice the next window has to subtract:
    # the carry pins the horizon at 90 and moves down by the two slices
    # that do go.
    del slides[:]
    collected.update(final_values(operator, [Watermark(135)]))
    assert slides == [(0, 90, 130, True)]
    assert store.slices[0].start == 90 and _carry(operator)[:4] == (90, 130, 0, 8)
    operator.check_invariants()

    # An eviction that does take a carried slice -- the operator never
    # asks for one -- drops the carry: the evicted count exceeds its lo.
    assert store.evict_before(95) == 1
    _window_manager(operator).prune_emitted(95, 1)
    assert store.slices[0].start == 95 and _carry(operator) is None
    operator.check_invariants()

    del slides[:]
    collected.update(final_values(operator, [Watermark(140), Watermark(150)]))
    assert slides == [(0, 100, 140, False), (0, 110, 150, True)]
    elements = head + [Watermark(120), Watermark(135), Watermark(140), Watermark(150)]
    _finish(operator, queries, elements, collected, allowed_lateness=0)


def test_eviction_that_spares_the_carried_slices_keeps_the_carry(slides):
    """The same watermarks over 10-wide slices: [90, 100) ends after the
    horizon 95, so the carry for [90, 130) keeps every slice it covers."""
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    head = _records(range(0, 200)) + [Watermark(120), Watermark(135)]
    operator, collected = _ooo_run(queries, head, allowed_lateness=0)
    store = operator.state_objects()[0]
    assert store.slices[0].start == 90
    assert _carry(operator)[:4] == (90, 130, 0, 4)

    del slides[:]
    collected.update(final_values(operator, [Watermark(150)]))
    assert slides == [(0, 100, 140, True), (0, 110, 150, True)]
    _finish(operator, queries, head + [Watermark(150)], collected, allowed_lateness=0)


def test_a_window_that_reaches_the_open_head_is_folded_and_carries_nothing(slides):
    """The watermark overtakes the stream: the last windows include the
    open head, which can still grow."""
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    head = _records(range(0, 95)) + [Watermark(80), Watermark(90), Watermark(100)]
    operator, collected = _ooo_run(queries, head)
    store = operator.state_objects()[0]
    assert store.slices[-1].start == 90 and store.slices[-1].end is None
    assert slides[-2:] == [(0, 50, 90, True), (0, 60, 100, False)]
    assert _carry(operator) is None
    operator.check_invariants()

    # Behind the watermark, behind no record: the head does grow.
    grown = [Record(97, 100.0)]
    collected.update(final_values(operator, grown))
    assert store.slices[-1].record_count == 6
    assert collected[(0, 60, 100)] == reference_results(queries(), head + grown, horizon=100)[(0, 60, 100)]

    del slides[:]
    tail = _records(range(100, 140)) + [Watermark(110), Watermark(130)]
    collected.update(final_values(operator, tail))
    assert slides == [(0, 70, 110, False), (0, 80, 120, True), (0, 90, 130, True)]
    _finish(operator, queries, head + grown + tail, collected, allowed_lateness=LATENESS)


def test_add_and_remove_query_rebuild_the_chain_without_carries(slides):
    operator = _operator([(SlidingWindow(40, 10), Median())], stream_in_order=True)
    run_operator(operator, _records(range(100)))
    assert _carry(operator) is not None

    operator.add_query(SlidingWindow(20, 10), Median())
    assert _window_manager(operator)._carries == {0: None, 1: None}
    del slides[:]
    tail = _records(range(100, 200))
    collected = final_values(operator, tail)
    # The rebuilt chain starts from the records it saw: per query an
    # empty window, then the first one with a record, which seeds.
    assert _folded(slides) == [(0, 60, 100), (1, 80, 100), (0, 70, 110), (1, 90, 110)]
    assert (0, 80, 120, True) in slides and (1, 100, 120, True) in slides
    queries = lambda: [(SlidingWindow(40, 10), Median()), (SlidingWindow(20, 10), Median())]  # noqa: E731
    expected = reference_results(queries(), tail, horizon=200)
    assert collected == {key: value for key, value in expected.items() if key[2] <= 199}

    operator.remove_query(0)
    assert _window_manager(operator)._carries == {1: None}
    del slides[:]
    run_operator(operator, _records(range(200, 260)))
    assert _folded(slides) == [(1, 180, 200), (1, 190, 210)]
    assert slides[-1] == (1, 230, 250, True)
    operator.check_invariants()


def test_add_query_on_another_measure_leaves_the_carry():
    operator = _operator([(SlidingWindow(40, 10), Median())], stream_in_order=True)
    run_operator(operator, _records(range(100)))
    before = _carry(operator)
    operator.add_query(CountTumblingWindow(4), Sum())
    assert _carry(operator) is before
    operator.check_invariants()


def test_remove_query_on_the_window_manager_forgets_its_carry():
    operator = _operator(
        [(SlidingWindow(40, 10), Median()), (SlidingWindow(20, 10), Median())], stream_in_order=True
    )
    run_operator(operator, _records(range(100)))
    manager = _window_manager(operator)
    manager.remove_query(0)
    assert list(manager._carries) == [1]
    manager.check_invariants()


def test_flush_slides_past_the_data_until_the_open_head_is_reached(slides):
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    operator = _operator(queries(), stream_in_order=True)
    stream = _records(range(95))
    collected = final_values(operator, stream)
    assert slides[-1] == (0, 50, 90, True)

    del slides[:]
    flushed = operator.flush()
    assert [(r.start, r.end) for r in flushed] == [(60, 100), (70, 110), (80, 120), (90, 130)]
    # Every one of them holds the open head [90, ...): folded, not carried.
    assert [call[3] for call in slides] == [False] * 4
    assert _carry(operator) is None
    collected.update({(r.query_id, r.start, r.end): r.value for r in flushed})
    assert collected == reference_results(queries(), stream, horizon=HORIZON)
    unshared = _operator(queries(), stream_in_order=True, share_windows=False)
    run_operator(unshared, stream)
    assert [(r.start, r.end, r.value) for r in unshared.flush()] == [
        (r.start, r.end, r.value) for r in flushed
    ]
    operator.check_invariants()


# ----------------------------------------------------------------------
# the carry is a cache: it never enters a snapshot


def test_snapshot_leaves_the_carry_out_and_a_restored_operator_reseeds(slides):
    queries = lambda: [(SlidingWindow(40, 10), Median())]  # noqa: E731
    original = _operator(queries(), stream_in_order=True)
    head = _records(range(100))
    collected = final_values(original, head)
    carry = _carry(original)
    assert carry is not None

    blob = snapshot(original)
    assert _carry(original) is carry  # taking the snapshot does not cost the carry
    stripped = _window_manager(original)
    stripped._carries = {}
    assert snapshot(original) == blob  # byte for byte what an operator without one writes
    stripped._carries = {0: carry}

    clone = restore(blob)
    assert _window_manager(clone)._carries == {0: None}
    # Nor does the restore leave a trace in later frames: the window
    # manager holds no attribute dict, only its class's slots, whose names
    # are interned, so the next snapshot memoizes ``_store`` across
    # objects as it always did.
    manager = _window_manager(clone)
    assert not hasattr(manager, "__dict__")
    assert all(name is sys.intern(name) for name in slot_names(type(manager)))
    clone.check_invariants()
    del slides[:]
    tail = _records(range(100, 160))
    resumed = final_values(clone, tail)
    assert resumed == final_values(original, tail)
    # The clone's first window folds; the rest of its windows, and all
    # of the original's, slide.
    assert _folded(slides) == [(0, 60, 100)] and len(slides) == 2 * 6
    collected.update(resumed)
    _finish(clone, queries, head + tail, collected, stream_in_order=True)


def test_the_carry_is_small_and_outside_the_measured_state():
    operator = _operator(
        [(SlidingWindow(length, 10), Median()) for length in (20, 40, 60, 80, 100)],
        stream_in_order=True,
    )
    before = deep_sizeof(operator.state_objects())
    run_operator(operator, _records(range(300)))
    carries = _window_manager(operator)._carries
    assert all(carry is not None for carry in carries.values())
    # Five partials of at most 11 distinct values each.
    assert deep_sizeof(carries) < 5 * 2_000
    stripped = deep_sizeof(operator.state_objects())
    _window_manager(operator)._carries = dict.fromkeys(carries)
    assert deep_sizeof(operator.state_objects()) == stripped > before


# ----------------------------------------------------------------------
# the invariant, in code


def test_check_invariants_names_what_a_carry_must_satisfy():
    """The 60-wide tumbling window keeps [30, 40) and [40, 50) in front of
    the carried slices: seven slices with the open head."""
    operator = _operator(
        [(SlidingWindow(40, 10), Median()), (TumblingWindow(60), Sum())], stream_in_order=True
    )
    run_operator(operator, _records(range(100)))
    manager = _window_manager(operator)
    start, end, lo, hi, partial, nonempty = manager._carries[0]
    assert (start, end, lo, hi) == (50, 90, 2, 6)
    operator.check_invariants()

    manager._carries[0] = (start, end, lo, hi, partial.merge(partial), nonempty)
    with pytest.raises(AssertionError, match=r"window \[50, 90\) holds .* the slices fold to"):
        operator.check_invariants()
    manager._carries[0] = (start, end, lo, hi, partial, nonempty + 1)
    with pytest.raises(AssertionError, match="counts 5 non-empty slices of 4"):
        operator.check_invariants()
    manager._carries[0] = (start, end, lo, hi, _slices(operator)[lo + 1].aggs[0], nonempty)
    with pytest.raises(AssertionError, match="holds a slice's own partial"):
        operator.check_invariants()
    manager._carries[0] = (start, end, lo + 1, hi + 1, partial, nonempty)
    with pytest.raises(AssertionError, match="ends in the open head"):
        operator.check_invariants()
    manager._carries[0] = (start, end, lo - 1, hi - 1, partial, nonempty)
    with pytest.raises(AssertionError, match=r"covers slices \[1, 5\), the window \(2, 6\)"):
        operator.check_invariants()
    manager._carries[0] = (start, end, lo, hi + 5, partial, nonempty)
    with pytest.raises(AssertionError, match=r"covers slices \[2, 11\) of 7"):
        operator.check_invariants()
    manager._carries[0] = (start, end, lo, hi, partial, nonempty)
    operator.check_invariants()


@pytest.mark.parametrize("seed", range(6 * FUZZ_SCALE))
def test_random_disorder_with_lateness_keeps_every_carry_valid(seed):
    """A live operator checks its carries after every element (the
    pickled copy the differential fuzz inspects holds none)."""
    rng = random.Random(f"{BASE_SEED}:carry:{seed}")
    slide = rng.randint(2, 6)
    lengths = [slide * factor for factor in rng.sample(range(2, 12), 3)]
    queries = lambda: [(SlidingWindow(length, slide), Median()) for length in lengths]  # noqa: E731
    lateness = rng.choice([0, slide, 40])
    operator = _operator(queries(), stream_in_order=False, allowed_lateness=lateness)
    tracer = operator.enable_tracing()
    ts = 0
    elements = []
    for _ in range(400):
        ts += rng.choice([0, 1, 1, 2, 3 * slide])
        delayed = max(0, ts - rng.randint(0, 30)) if rng.random() < 0.3 else ts
        elements.append(Record(delayed, float(rng.randint(0, 9))))
        if rng.random() < 0.1:
            elements.append(Watermark(ts - rng.randint(0, 25)))
    collected = {}
    kept = []
    operator.on_late_record = lambda record: None
    for element in elements:
        dropped = operator.dropped_late_records
        for result in operator.process(element):
            collected[(result.query_id, result.start, result.end)] = result.value
        if operator.dropped_late_records == dropped:
            kept.append(element)
        operator.check_invariants()
    horizon = ts + max(lengths) + 1
    collected.update(final_values(operator, [Watermark(horizon)]))
    assert collected == reference_results(queries(), kept, horizon=horizon)
    assert tracer.value("window.slides") > 100 and tracer.value("window.refolds") > 0


# ----------------------------------------------------------------------
# representatives of ==-equal values


def test_a_slid_window_may_keep_an_older_representative_of_equal_values():
    """``1`` and ``1.0`` are one run; its representative is the first of
    them the multiset saw.  A fold sees the window's records only, a slid
    multiset everything since its carry was seeded: the integer that has
    left the window still represents the run.  Equal, not identical."""
    queries = [(SlidingWindow(20, 10), Median())]
    stream = [Record(0, 1)] + [Record(ts, 1.0) for ts in range(10, 50)]
    slid = final_values(_operator(queries, stream_in_order=True), stream)
    folded = final_values(_operator(queries, stream_in_order=True, share_windows=False), stream)
    assert slid == folded == reference_results(queries, stream, horizon=49)
    assert (repr(slid[(0, 0, 20)]), repr(folded[(0, 0, 20)])) == ("1", "1")
    # [10, 30) holds floats only; the slid result is still the integer.
    assert (repr(slid[(0, 10, 30)]), repr(folded[(0, 10, 30)])) == ("1", "1.0")
    assert (repr(slid[(0, 20, 40)]), repr(folded[(0, 20, 40)])) == ("1", "1.0")
