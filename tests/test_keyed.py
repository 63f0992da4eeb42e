"""Tests for keyed window aggregation and measure injection."""

import pytest

from conftest import run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.runtime import KeyedWindowOperator, restore, snapshot
from repro.windows import SessionWindow, TumblingWindow


def slicing_factory():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    return operator


class TestKeyedOperator:
    def test_state_isolated_per_key(self):
        keyed = KeyedWindowOperator(slicing_factory)
        stream = [Record(t, 1.0, key=t % 2) for t in range(24)]
        results = run_operator(keyed, stream)
        by_key = {}
        for result in results:
            by_key.setdefault(result.key, []).append(result)
        # Each key saw every other record: windows of 5 each.
        assert {r.value for r in by_key[0]} == {5.0}
        assert {r.value for r in by_key[1]} == {5.0}

    def test_results_tagged_with_key(self):
        keyed = KeyedWindowOperator(slicing_factory)
        results = run_operator(keyed, [Record(t, 1.0, key="a") for t in range(12)])
        assert all(result.key == "a" for result in results)

    def test_watermark_broadcast_to_all_keys(self):
        keyed = KeyedWindowOperator(slicing_factory)
        run_operator(
            keyed, [Record(1, 1.0, key="x"), Record(2, 2.0, key="y")]
        )
        results = keyed.process(Watermark(100))
        assert {result.key for result in results} == {"x", "y"}

    def test_lazy_key_creation(self):
        keyed = KeyedWindowOperator(slicing_factory)
        assert keyed.keys == []
        keyed.process(Record(0, 1.0, key=7))
        assert keyed.keys == [7]

    def test_sessions_per_key(self):
        def session_factory():
            operator = GeneralSlicingOperator(stream_in_order=True)
            operator.add_query(SessionWindow(5), Sum())
            return operator

        keyed = KeyedWindowOperator(session_factory)
        stream = [
            Record(0, 1.0, key="a"),
            Record(2, 1.0, key="b"),
            Record(20, 1.0, key="a"),  # key a: gap -> two sessions
            Record(4, 0.0, key="b"),
        ]
        results = run_operator(keyed, stream)
        results.extend(keyed.process(Watermark(100)))
        a_sessions = [(r.start, r.end) for r in results if r.key == "a"]
        b_sessions = [(r.start, r.end) for r in results if r.key == "b"]
        assert a_sessions == [(0, 5), (20, 25)]
        assert b_sessions == [(2, 9)]

    def test_state_objects_aggregate_keys(self):
        keyed = KeyedWindowOperator(slicing_factory)
        run_operator(keyed, [Record(0, 1.0, key=0), Record(0, 1.0, key=1)])
        assert len(keyed.state_objects()) >= 2


def ooo_factory(stream_in_order=False):
    operator = GeneralSlicingOperator(stream_in_order=stream_in_order, allowed_lateness=0)
    operator.add_query(TumblingWindow(100), Sum())
    return operator


def in_order_factory():
    return ooo_factory(stream_in_order=True)


def _rows(results):
    return [(r.key, r.start, r.end, r.value, r.is_update) for r in results]


class TestKeyFirstSeenAfterAWatermark:
    """A new key starts behind the watermark its operator broadcast, as
    an unkeyed operator would be: a record behind it is late."""

    HEAD = [Record(10, 1.0, "a"), Watermark(1000)]
    TAIL = [Record(20, 5.0, "b"), Record(1010, 2.0, "b"), Watermark(1200)]
    EXPECTED = [("a", 0, 100, 1.0, False), ("b", 1000, 1100, 2.0, False)]

    @pytest.mark.parametrize("batch_size", [None, 1, 7])
    def test_a_record_behind_the_watermark_is_dropped_and_handed_out(self, batch_size):
        keyed = KeyedWindowOperator(ooo_factory)
        late = []
        keyed.on_late_record = late.append
        results = keyed.run(self.HEAD + self.TAIL, batch_size=batch_size)
        assert _rows(results) == self.EXPECTED
        assert keyed.dropped_late_records == 1
        assert late == [self.TAIL[0]]

    def test_a_restored_operator_keeps_the_watermark(self):
        keyed = KeyedWindowOperator(ooo_factory)
        results = keyed.run(self.HEAD)
        restored = restore(snapshot(keyed))
        late = []
        restored.on_late_record = late.append
        results += restored.run(self.TAIL)
        assert _rows(results) == self.EXPECTED
        assert restored.dropped_late_records == 1 and late == [self.TAIL[0]]

    def test_an_in_order_key_starts_at_its_first_record(self):
        """An in-order operator does not take a record behind its
        watermark as late: handed the watermark, it would lose the
        record's window.  So it is not handed it, and emits that window."""
        keyed = KeyedWindowOperator(in_order_factory)
        late = []
        keyed.on_late_record = late.append
        results = keyed.run(self.HEAD + self.TAIL)
        assert _rows(results) == [self.EXPECTED[0], ("b", 0, 100, 5.0, False), self.EXPECTED[1]]
        assert keyed.dropped_late_records == 0 and late == []

    def test_a_regressing_watermark_does_not_lower_what_a_new_key_gets(self):
        keyed = KeyedWindowOperator(ooo_factory)
        tail = [Record(700, 5.0, "b")] + self.TAIL[1:]
        results = keyed.run(self.HEAD + [Watermark(500)] + tail)
        assert _rows(results) == self.EXPECTED
        assert keyed.dropped_late_records == 1


class TestMeasureInjection:
    def test_windows_on_attribute_measure(self):
        # Records carry (odometer_km, fuel_used); window fuel by 100 km.
        op = GeneralSlicingOperator(
            stream_in_order=True,
            timestamp_of=lambda record: int(record.value[0]),
        )
        op.add_query(TumblingWindow(100), _FuelSum())
        readings = [
            Record(0, (10, 1.0)),
            Record(1, (60, 2.0)),
            Record(2, (140, 3.0)),
            Record(3, (220, 4.0)),
        ]
        results = op.run(readings)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 100, 3.0),
            (100, 200, 3.0),
        ]

    def test_injected_measure_defines_order(self):
        # Arrival order differs from measure order: declared out-of-order.
        op = GeneralSlicingOperator(
            stream_in_order=False,
            allowed_lateness=1000,
            timestamp_of=lambda record: int(record.value[0]),
        )
        op.add_query(TumblingWindow(100), _FuelSum())
        readings = [
            Record(0, (10, 1.0)),
            Record(1, (140, 3.0)),
            Record(2, (60, 2.0)),  # out-of-order in the km measure
        ]
        out = op.run(readings)
        out.extend(op.process(Watermark(1000)))
        final = {(r.start, r.end): r.value for r in out}
        assert final[(0, 100)] == 3.0

    def test_process_batch_extracts_the_measure_once_per_record(self):
        """Batched, every record is mapped once: the run gatherer's
        mapping is the one the per-record path uses, for a record that
        crosses a slice edge and for one that arrives behind the run."""
        calls = []

        def odometer(record):
            calls.append(record)
            return int(record.value[0])

        def build(timestamp_of):
            op = GeneralSlicingOperator(
                stream_in_order=False, allowed_lateness=1000, timestamp_of=timestamp_of
            )
            op.add_query(TumblingWindow(100), _FuelSum())
            return op

        km = [5, 30, 90, 120, 150, 60, 210, 260, 240, 330, 20, 410]
        readings = [Record(ts, (k, float(ts))) for ts, k in enumerate(km)]
        stream = readings[:6] + [Watermark(100)] + readings[6:] + [Watermark(1_000)]
        batched = build(odometer).run(stream, batch_size=4)
        assert len(calls) == len(readings)
        assert batched == build(lambda record: int(record.value[0])).run(stream)
        assert any(result.is_update for result in batched)


class _FuelSum(Sum):
    """Sum over the fuel component of (odometer, fuel) payloads."""

    def lift(self, value):
        return value[1]
