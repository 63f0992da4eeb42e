"""Tests for deterministic fault injection (repro.runtime.faults)."""

import pytest

from conftest import run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.runtime.faults import (
    FaultInjectingOperator,
    FaultPlan,
    FaultySource,
    InjectedCrash,
    InjectedOperatorError,
    SourceHiccup,
    stall_watermarks,
)
from repro.windows import TumblingWindow


def build_operator():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    return operator


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(99, 1_000, crashes=4, errors=2, hiccups=3)
        b = FaultPlan(99, 1_000, crashes=4, errors=2, hiccups=3)
        assert a.crash_points == b.crash_points
        assert a.error_points == b.error_points
        assert a.hiccup_points == b.hiccup_points
        assert (len(a.crash_points), len(a.error_points), len(a.hiccup_points)) == (4, 2, 3)

    def test_different_seeds_differ(self):
        a = FaultPlan(1, 10_000, crashes=5)
        b = FaultPlan(2, 10_000, crashes=5)
        assert a.crash_points != b.crash_points

    def test_positions_within_horizon_and_past_zero(self):
        plan = FaultPlan(3, 50, crashes=10, hiccups=10)
        for position in plan.crash_points + plan.hiccup_points:
            assert 1 <= position < 50

    def test_sampling_capped_at_population(self):
        plan = FaultPlan(0, 4, crashes=100)
        assert plan.crash_points == (1, 2, 3)

    def test_tiny_horizon_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(0, 1, crashes=1)


class TestFaultInjectingOperator:
    def test_transparent_without_faults(self, simple_stream):
        plain = build_operator()
        wrapped = FaultInjectingOperator(build_operator())
        wrapped.add_query(TumblingWindow(5), Sum())
        plain.add_query(TumblingWindow(5), Sum())
        assert run_operator(wrapped, simple_stream) == run_operator(plain, simple_stream)
        assert wrapped.records_processed == len(simple_stream)

    def test_crash_fires_before_record_and_only_once(self):
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[3])
        stream = [Record(t, 1.0) for t in range(6)]
        with pytest.raises(InjectedCrash) as excinfo:
            run_operator(wrapped, stream)
        assert excinfo.value.position == 3
        # The crash fired *before* record #3 touched the inner operator.
        assert wrapped.records_processed == 3
        assert wrapped.inner._arrived == 3
        # Fire-once: the remaining records go through on retry.
        run_operator(wrapped, stream[3:])
        assert wrapped.records_processed == 6

    def test_error_fires_after_record_mutated_state(self):
        wrapped = FaultInjectingOperator(build_operator(), error_at=[2])
        stream = [Record(t, 1.0) for t in range(5)]
        with pytest.raises(InjectedOperatorError) as excinfo:
            run_operator(wrapped, stream)
        assert excinfo.value.position == 2
        # Unlike a crash, the faulting record already reached the inner
        # operator -- the supervisor must roll this back.
        assert wrapped.inner._arrived == 3

    def test_crash_and_error_can_target_same_record(self):
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[2], error_at=[2])
        stream = [Record(t, 1.0) for t in range(4)]
        with pytest.raises(InjectedCrash):
            run_operator(wrapped, stream)
        with pytest.raises(InjectedOperatorError):
            run_operator(wrapped, stream[2:])
        run_operator(wrapped, stream[3:])
        assert wrapped.records_processed == 4

    def test_batch_crash_leaves_partial_batch_applied(self):
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[5])
        batch = [Record(t, 1.0) for t in range(8)]
        with pytest.raises(InjectedCrash):
            wrapped.process_batch(batch)
        # Mid-batch crash: records 0..4 are in, 5..7 are not.
        assert wrapped.inner._arrived == 5

    def test_fault_free_batches_use_inner_fast_path(self):
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[100])
        results = wrapped.process_batch([Record(t, 1.0) for t in range(25)])
        assert wrapped.records_processed == 25
        assert [(r.start, r.end) for r in results] == [(0, 10), (10, 20)]

    def test_watermarks_pass_through_unharmed(self):
        inner = GeneralSlicingOperator(stream_in_order=False)
        inner.add_query(TumblingWindow(10), Sum())
        wrapped = FaultInjectingOperator(inner, crash_at=[50])
        run_operator(wrapped, [Record(t, 1.0) for t in range(15)])
        results = wrapped.process_watermark(Watermark(12))
        assert [(r.start, r.end) for r in results] == [(0, 10)]

    def test_plan_wiring_and_delegation(self):
        plan = FaultPlan(11, 100, crashes=2, errors=1)
        wrapped = FaultInjectingOperator(build_operator(), plan=plan)
        assert wrapped.transient is True
        assert wrapped._crash_at == set(plan.crash_points)
        assert wrapped._error_at == set(plan.error_points)
        assert wrapped.queries is wrapped.inner.queries
        assert wrapped.state_objects() == wrapped.inner.state_objects()
        query = wrapped.add_query(TumblingWindow(7), Sum())
        assert query in wrapped.inner.queries
        wrapped.remove_query(query.query_id)
        assert query not in wrapped.inner.queries


class TestFaultySource:
    def test_hiccup_fires_once_per_position(self):
        elements = [Record(t, 1.0) for t in range(20)]
        source = FaultySource(elements, hiccup_at=[7])
        with pytest.raises(SourceHiccup) as excinfo:
            source.read(4, 8)
        assert excinfo.value.position == 7
        # Retrying the identical read now succeeds.
        assert source.read(4, 8) == elements[4:12]
        assert source.hiccups_fired == 1

    def test_hiccup_outside_read_window_does_not_fire(self):
        source = FaultySource([Record(t, 1.0) for t in range(20)], hiccup_at=[15])
        assert len(source.read(0, 10)) == 10
        with pytest.raises(SourceHiccup):
            source.read(10, 10)

    def test_plan_hiccups(self):
        plan = FaultPlan(5, 30, hiccups=3)
        source = FaultySource([Record(t, 1.0) for t in range(30)], plan=plan)
        fired = 0
        cursor = 0
        while cursor < 30:
            try:
                batch = source.read(cursor, 4)
            except SourceHiccup:
                fired += 1
                continue
            cursor += len(batch)
        assert fired == 3
        assert source.hiccups_fired == 3


class TestStallWatermarks:
    def test_stalled_watermarks_held_and_released(self):
        elements = [
            Record(0, 1.0),
            Watermark(0),
            Record(1, 1.0),
            Watermark(1),
            Record(2, 1.0),
            Record(3, 1.0),
        ]
        stalled = stall_watermarks(elements, start=1, length=3)
        # Both watermarks fall in the stall window; the newest (ts=1)
        # reappears at the release position, the older one is dropped.
        assert stalled == [
            Record(0, 1.0),
            Record(1, 1.0),
            Watermark(1),
            Record(2, 1.0),
            Record(3, 1.0),
        ]

    def test_stall_outliving_stream_releases_at_end(self):
        elements = [Record(0, 1.0), Watermark(5), Record(1, 1.0)]
        stalled = stall_watermarks(elements, start=0, length=100)
        assert stalled == [Record(0, 1.0), Record(1, 1.0), Watermark(5)]

    def test_records_never_touched(self):
        elements = [Record(t, float(t)) for t in range(10)]
        assert stall_watermarks(elements, start=2, length=5) == elements

    def test_validation(self):
        with pytest.raises(ValueError):
            stall_watermarks([], start=-1, length=2)
        with pytest.raises(ValueError):
            stall_watermarks([], start=0, length=-2)

    def test_operator_result_unchanged_by_stall_once_released(self):
        records = [Record(t, 1.0) for t in range(30)]
        elements = []
        for index, record in enumerate(records):
            elements.append(record)
            if index % 5 == 4:
                elements.append(Watermark(record.ts))
        stalled = stall_watermarks(elements, start=6, length=10)

        def final(stream):
            operator = GeneralSlicingOperator(stream_in_order=False)
            operator.add_query(TumblingWindow(10), Sum())
            out = {}
            for result in run_operator(operator, stream + [Watermark(100)]):
                out[(result.start, result.end)] = result.value
            return out

        assert final(elements) == final(stalled)
