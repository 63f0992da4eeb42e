"""End-of-stream flush: emit windows still buffered when the stream ends.

``WindowOperator.flush()`` advances event time past the last record by
the largest window extent plus the allowed lateness -- exactly what a
final upstream watermark would do -- so tail windows are emitted instead
of silently dropped.  These tests pin the semantics: equivalence to a
trailing watermark, idempotence, wrapper delegation, and key tagging.
"""

import pytest

from conftest import run_operator, shuffled_with_disorder
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.baselines import AggregateBucketsOperator, TupleBufferOperator
from repro.runtime.faults import FaultInjectingOperator
from repro.runtime.keyed import KeyedWindowOperator
from repro.reference import reference_results
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


def _operators(in_order: bool):
    lateness = 0 if in_order else 1_000_000
    return [
        ("lazy", lambda: GeneralSlicingOperator(stream_in_order=in_order, allowed_lateness=lateness)),
        ("eager", lambda: GeneralSlicingOperator(stream_in_order=in_order, eager=True, allowed_lateness=lateness)),
        ("buffer", lambda: TupleBufferOperator(stream_in_order=in_order, allowed_lateness=lateness)),
        ("agg-buckets", lambda: AggregateBucketsOperator(stream_in_order=in_order, allowed_lateness=lateness)),
    ]


@pytest.mark.parametrize("in_order", [True, False])
def test_flush_emits_tail_windows_across_techniques(in_order):
    # Records stop at ts=14: window [10, 20) has no in-stream reason to
    # close and only materializes on flush.
    stream = [Record(ts, 1.0) for ts in range(15)]
    for name, make_operator in _operators(in_order):
        operator = make_operator()
        operator.add_query(TumblingWindow(10), Sum())
        in_stream = run_operator(operator, stream)
        tail = operator.flush()
        results = {(r.start, r.end): r.value for r in in_stream + tail}
        assert results == {(0, 10): 10.0, (10, 20): 5.0}, f"technique {name}"
        assert any(r.end == 20 for r in tail), f"technique {name} tail not flushed"


def test_flush_matches_trailing_watermark():
    def run(finish):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=5)
        operator.add_query(SlidingWindow(20, 5), Sum())
        operator.add_query(SessionWindow(7), Sum())
        results = run_operator(operator, [Record(ts, float(ts % 3)) for ts in range(0, 33, 2)])
        results.extend(finish(operator))
        return [(r.query_id, r.start, r.end, r.value) for r in results]

    flushed = run(lambda operator: operator.flush())
    # length 20 dominates the extent; +lateness 5 +1 +1 mirrors flush's
    # horizon so both runs close the exact same set of windows.
    watermarked = run(lambda operator: operator.process_watermark(Watermark(32 + 20 + 5 + 2)))
    assert flushed == watermarked


def test_flush_is_idempotent_and_empty_before_any_record():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    assert operator.flush() == []  # nothing ingested, nothing to close
    run_operator(operator, [Record(ts, 1.0) for ts in range(12)])
    assert len(operator.flush()) == 1
    assert operator.flush() == []  # a second flush has nothing left


def test_session_gap_drives_the_flush_horizon():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(SessionWindow(50), Sum())
    run_operator(operator, [Record(0, 1.0), Record(10, 2.0)])
    tail = operator.flush()
    assert [(r.start, r.end, r.value) for r in tail] == [(0, 60, 3.0)]


def test_keyed_flush_tags_results_with_their_key():
    keyed = KeyedWindowOperator(
        lambda: _with_query(GeneralSlicingOperator(stream_in_order=True))
    )
    run_operator(keyed, [Record(ts, 1.0, key=f"k{ts % 2}") for ts in range(12)])
    tail = keyed.flush()
    assert tail, "keyed flush dropped tail windows"
    assert {r.key for r in tail} == {"k0", "k1"}


def _with_query(operator):
    operator.add_query(TumblingWindow(10), Sum())
    return operator


def test_wrappers_delegate_flush_to_inner():
    faulty = FaultInjectingOperator(
        _with_query(GeneralSlicingOperator(stream_in_order=True))
    )
    run_operator(faulty, [Record(ts, 1.0) for ts in range(12)])
    assert [r.end for r in faulty.flush()] == [20]


# ----------------------------------------------------------------------
# the flush horizon comes from the window type, not from probing attributes


def _general(in_order: bool, eager: bool):
    # A lateness well below the window length: a large one would carry
    # the flush past the window end whatever the horizon rule.
    return GeneralSlicingOperator(
        stream_in_order=in_order, eager=eager, allowed_lateness=0 if in_order else 100
    )


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("in_order", [True, False], ids=["in-order", "out-of-order"])
def test_flush_closes_the_trailing_window_of_explicit_edges(in_order, eager):
    """An ``ExplicitEdgesWindow`` has no length, gap or period to probe:
    its trailing window ends at its next edge, and flush must reach it."""
    stream = [Record(10 * i, 1.0) for i in range(50)]
    if not in_order:
        stream = shuffled_with_disorder(stream, 0.3, 50, seed=3)
    operator = _general(in_order, eager)
    operator.add_query(ExplicitEdgesWindow([0, 1000, 2000]), Sum())
    results = run_operator(operator, stream) + operator.flush()
    got = {(r.query_id, r.start, r.end): r.value for r in results}
    expected = reference_results(
        [(ExplicitEdgesWindow([0, 1000, 2000]), Sum())], stream, horizon=1000
    )
    assert got == expected == {(0, 0, 1000): 50.0}
    assert operator.flush() == []

    tumbling = _general(in_order, eager)
    tumbling.add_query(TumblingWindow(1000), Sum())
    same = run_operator(tumbling, stream) + tumbling.flush()
    assert [(r.start, r.end, r.value) for r in same] == [(0, 1000, 50.0)]


def test_flush_past_the_last_explicit_edge_has_nothing_to_close():
    operator = _general(True, False)
    operator.add_query(ExplicitEdgesWindow([0, 100]), Sum())
    in_stream = run_operator(operator, [Record(ts, 1.0) for ts in (10, 50, 150)])
    assert [(r.start, r.end, r.value) for r in in_stream] == [(0, 100, 2.0)]
    assert operator.flush() == []  # ts 150 belongs to no window


def test_flush_horizon_per_window_type():
    assert TumblingWindow(10).flush_horizon(14) == 20
    assert ExplicitEdgesWindow([0, 1000, 2000]).flush_horizon(490) == 1000
    assert ExplicitEdgesWindow([0, 1000]).flush_horizon(1500) == 1500
    assert SlidingWindow(20, 5).flush_horizon(32) == 52
    assert SessionWindow(7).flush_horizon(32) == 39
    assert LastNEveryWindow(3, 10).flush_horizon(32) == 40
    assert PunctuationWindow().flush_horizon(32) == 32
    # Count-measure windows end with their last record: no extra time.
    assert CountTumblingWindow(4).flush_horizon(32) == 32
    assert CountSlidingWindow(8, 4).flush_horizon(32) == 32


def test_flush_emits_the_last_trigger_of_a_multi_measure_window():
    stream = [Record(ts, float(ts)) for ts in range(0, 25, 3)]
    operator = _general(True, False)
    operator.add_query(LastNEveryWindow(3, 10), Sum())
    results = run_operator(operator, stream) + operator.flush()
    got = {(r.query_id, r.start, r.end): r.value for r in results}
    assert got == reference_results([(LastNEveryWindow(3, 10), Sum())], stream, horizon=30)
    assert (0, 6, 9) in got  # the trigger at ts 30, reached only by the flush
