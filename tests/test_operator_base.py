"""Tests for the shared WindowOperator interface and eviction behaviour."""

import pytest

from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.core.operator_base import WindowOperator
from repro.core.types import Punctuation
from repro.runtime.faults import FaultInjectingOperator
from repro.runtime.keyed import KeyedWindowOperator
from repro.windows import CountTumblingWindow, SessionWindow, TumblingWindow


class TestDispatch:
    def test_process_routes_by_element_type(self):
        calls = []

        class Probe(WindowOperator):
            def process_record(self, record):
                calls.append(("record", record.ts))
                return []

            def process_watermark(self, watermark):
                calls.append(("watermark", watermark.ts))
                return []

            def process_punctuation(self, punctuation):
                calls.append(("punctuation", punctuation.ts))
                return []

        class Stamped(Record):
            """A record type of the caller's own."""

            __slots__ = ("source",)

        probe = Probe()
        probe.run([Record(1, 0), Watermark(2), Punctuation(3), Stamped(4, 0)])
        assert calls == [("record", 1), ("watermark", 2), ("punctuation", 3), ("record", 4)]

    def test_unknown_element_rejected(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        with pytest.raises(TypeError):
            operator.process("not a stream element")

    def test_run_rejects_a_batch_size_below_one(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            operator.run([Record(1, 0)], batch_size=0)

    def test_default_punctuation_is_ignored(self):
        class Minimal(WindowOperator):
            def process_record(self, record):
                return []

            def process_watermark(self, watermark):
                return []

        assert Minimal().process(Punctuation(5)) == []

    def test_query_ids_are_unique_and_stable(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        first = operator.add_query(TumblingWindow(10), Sum())
        second = operator.add_query(TumblingWindow(20), Sum())
        operator.remove_query(first.query_id)
        third = operator.add_query(TumblingWindow(30), Sum())
        assert len({first.query_id, second.query_id, third.query_id}) == 3


class TestEvictionLongStream:
    def test_slices_bounded_over_long_stream(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=50)
        operator.add_query(TumblingWindow(10), Sum())
        for ts in range(0, 20_000, 2):
            operator.process(Record(ts, 1.0))
            if ts % 100 == 0:
                operator.process(Watermark(ts - 10))
        # Retention: lateness 50 + max window 10 -> a few dozen slices max.
        assert operator.total_slices() < 50

    def test_emitted_bookkeeping_pruned(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=20)
        operator.add_query(TumblingWindow(10), Sum())
        for ts in range(0, 10_000, 5):
            operator.process(Record(ts, 1.0))
            operator.process(Watermark(ts - 20))
        from repro.core.measures import MeasureKind

        chain = operator._chains[MeasureKind.TIME]
        emitted = chain.window_manager._emitted[0]
        assert len(emitted) < 100

    def test_session_eviction_spares_open_sessions(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10)
        operator.add_query(SessionWindow(1_000_000), Sum())
        results = []
        for ts in range(0, 5_000, 50):
            results.extend(operator.process(Record(ts, 1.0)))
            results.extend(operator.process(Watermark(ts)))
        # The session never times out, so nothing may be evicted or emitted.
        assert results == []
        flush = operator.process(Watermark(10_000_000))
        assert len(flush) == 1
        assert flush[0].value == 100.0  # all records retained

    def test_results_after_eviction_remain_correct(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=30)
        operator.add_query(TumblingWindow(10), Sum())
        total_emitted = 0.0
        count = 0
        for ts in range(0, 5_000):
            for result in operator.process(Record(ts, 1.0)):
                if not result.is_update:
                    total_emitted += result.value
                    count += 1
            if ts % 50 == 49:
                for result in operator.process(Watermark(ts - 30)):
                    if not result.is_update:
                        total_emitted += result.value
                        count += 1
        # Every emitted tumbling window contains exactly 10 records.
        assert total_emitted == count * 10.0


class TestInterfaceUniformity:
    def test_all_operators_accept_run(self):
        from repro.baselines import (
            AggregateBucketsOperator,
            AggregateTreeOperator,
            CuttyOperator,
            PairsOperator,
            TupleBucketsOperator,
            TupleBufferOperator,
        )

        stream = [Record(ts, 1.0) for ts in range(25)]
        expected = [(0, 10, 10.0), (10, 20, 10.0)]
        operators = [
            GeneralSlicingOperator(stream_in_order=True),
            TupleBufferOperator(stream_in_order=True),
            AggregateTreeOperator(stream_in_order=True),
            AggregateBucketsOperator(stream_in_order=True),
            TupleBucketsOperator(stream_in_order=True),
            PairsOperator(),
            CuttyOperator(),
        ]
        for operator in operators:
            operator.add_query(TumblingWindow(10), Sum())
            results = operator.run(stream)
            assert [(r.start, r.end, r.value) for r in results] == expected, operator
            operator.check_invariants()  # the baselines hold none: a no-op


def _record_storing_factory():
    # Out-of-order + a count measure retains records, which is what lets
    # the store tell a slice's record_count from what it holds.
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=100)
    operator.add_query(CountTumblingWindow(4), Sum())
    return operator


WRAPPERS = {
    "fault_injecting": lambda: FaultInjectingOperator(_record_storing_factory()),
    "keyed": lambda: KeyedWindowOperator(_record_storing_factory),
    "fault_injecting(keyed)": lambda: FaultInjectingOperator(
        KeyedWindowOperator(_record_storing_factory)
    ),
}


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_check_invariants_sees_a_corrupt_slice_through_wrappers(name):
    wrapped = WRAPPERS[name]()
    wrapped.run([Record(ts, 1.0, key=ts % 2) for ts in range(10)])
    wrapped.check_invariants()
    victim = next(s for s in wrapped.state_objects()[-1].slices if s.record_count)
    victim.record_count += 1
    with pytest.raises(AssertionError, match="records but counts"):
        wrapped.check_invariants()
