"""End-to-end tests of GeneralSlicingOperator on out-of-order streams."""

import pytest

pytestmark = pytest.mark.ooo

from conftest import final_values, run_operator, shuffled_with_disorder
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import M4, CollectList, Median, Min, Sum, SumWithoutInvert
from repro.core.measures import MeasureKind
from repro.core.types import Punctuation
from repro.reference import reference_results
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


def make_operator(eager=False, lateness=1000):
    return GeneralSlicingOperator(
        stream_in_order=False, eager=eager, allowed_lateness=lateness
    )


class TestBasicOutOfOrder:
    @pytest.mark.parametrize("eager", [False, True])
    def test_ooo_record_lands_in_past_slice(self, eager):
        op = make_operator(eager)
        op.add_query(TumblingWindow(10), Sum())
        elements = [Record(1, 1.0), Record(12, 1.0), Record(5, 1.0), Watermark(20)]
        results = run_operator(op, elements)
        final = {(r.start, r.end): r.value for r in results}
        assert final[(0, 10)] == 2.0
        assert final[(10, 20)] == 1.0

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_first_result_of_a_window_behind_the_watermark_is_emitted_and_flagged(self, eager):
        """The ``is_update`` contract: "emitted by the late path, may
        replace an earlier result" -- the window was empty when the
        watermark passed it, so nothing was emitted for it before."""
        op = make_operator(eager, lateness=10**9)
        op.add_query(TumblingWindow(100), Sum())
        elements = [Watermark(10**6), Record(5003, 1.0)]
        results = run_operator(op, elements)
        assert [(r.start, r.end, r.value, r.is_update) for r in results] == [(5000, 5100, 1.0, True)]
        emitted = {(r.query_id, r.start, r.end): r.value for r in results}
        assert emitted == reference_results([(TumblingWindow(100), Sum())], elements, horizon=10**6)
        # A second late record does replace it, under the same flag.
        (again,) = op.process(Record(5004, 2.0))
        assert (again.start, again.end, again.value, again.is_update) == (5000, 5100, 3.0, True)

    def test_no_emission_before_watermark(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        assert run_operator(op, [Record(1, 1.0), Record(15, 1.0)]) == []

    def test_watermark_triggers_completed_windows_only(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        run_operator(op, [Record(1, 1.0), Record(15, 1.0)])
        results = op.process(Watermark(12))
        assert [(r.start, r.end) for r in results] == [(0, 10)]

    def test_duplicate_watermark_ignored(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        run_operator(op, [Record(1, 1.0), Record(15, 1.0), Watermark(12)])
        assert op.process(Watermark(12)) == []
        assert op.process(Watermark(11)) == []


class TestLateUpdates:
    def test_late_record_within_lateness_emits_update(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        run_operator(op, [Record(1, 1.0), Record(15, 1.0), Watermark(12)])
        updates = op.process(Record(3, 2.0))
        assert len(updates) == 1
        assert updates[0].is_update
        assert updates[0].as_tuple() == (0, 0, 10, 3.0)

    def test_record_beyond_lateness_dropped(self):
        op = make_operator(lateness=5)
        op.add_query(TumblingWindow(10), Sum())
        run_operator(op, [Record(1, 1.0), Record(30, 1.0), Watermark(30)])
        assert op.process(Record(3, 2.0)) == []
        assert op.dropped_late_records == 1

    def test_update_covers_overlapping_sliding_windows(self):
        op = make_operator()
        op.add_query(SlidingWindow(10, 5), Sum())
        run_operator(
            op, [Record(1, 1.0), Record(7, 1.0), Record(20, 1.0), Watermark(20)]
        )
        updates = op.process(Record(6, 1.0))
        spans = sorted((u.start, u.end) for u in updates)
        assert spans == [(0, 10), (5, 15)]
        assert all(u.is_update for u in updates)

    def test_update_value_reflects_recomputation(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Median())
        run_operator(
            op,
            [Record(1, 1.0), Record(2, 9.0), Record(15, 0.0), Watermark(12)],
        )
        updates = op.process(Record(3, 5.0))
        assert updates[0].value == 5.0


class TestRecordsBehindAWatermarkThatOvertookTheStream:
    """A watermark ahead of the newest record makes everything that
    arrives behind it late (the rows ``a_record_behind_an_overtaking_
    watermark_*`` of ``tests/regressions.py``); flush still goes by the
    records."""

    def test_flush_still_closes_the_windows_of_the_newest_record_only(self):
        op = make_operator(lateness=5)
        op.add_query(SlidingWindow(20, 10), Sum())
        run_operator(op, [Record(3, 1.0), Watermark(7)])  # overtakes the stream
        flushed = op.flush()
        assert [(r.start, r.end, r.value) for r in flushed] == [(0, 20, 1.0)]
        assert op.flush() == []  # idempotent: nothing newer than ts 3 is held


class TestSessionsOutOfOrder:
    def test_bridge_produces_merged_session(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        elements = [
            Record(1, 1.0),
            Record(8, 1.0),
            Record(30, 1.0),
            Record(4, 1.0),  # bridges 1..8 (gaps 3 and 4, both < 5)
            Watermark(40),
        ]
        final = final_values(op, elements)
        assert final[(0, 1, 13)] == 3.0
        assert final[(0, 30, 35)] == 1.0

    def test_exact_gap_distance_does_not_bridge(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        elements = [
            Record(1, 1.0),
            Record(10, 1.0),
            Record(6, 1.0),  # exactly gap away from 1: separate session
            Watermark(40),
        ]
        final = final_values(op, elements)
        assert final == {(0, 1, 6): 1.0, (0, 6, 15): 2.0}

    def test_late_record_opens_new_session_in_gap(self):
        op = make_operator()
        op.add_query(SessionWindow(3), Sum())
        elements = [
            Record(1, 1.0),
            Record(30, 1.0),
            Record(15, 2.0),
            Watermark(50),
        ]
        final = final_values(op, elements)
        assert final == {
            (0, 1, 4): 1.0,
            (0, 15, 18): 2.0,
            (0, 30, 33): 1.0,
        }

    def test_late_record_extends_emitted_session(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        run_operator(op, [Record(1, 1.0), Record(20, 1.0), Watermark(10)])
        # Session [1, 6) was emitted; a late record at 3 extends its end
        # to 3 + gap and updates the aggregate.
        updates = op.process(Record(3, 1.0))
        assert [(u.start, u.end, u.value, u.is_update) for u in updates] == [
            (1, 8, 2.0, True)
        ]

    def test_sessions_never_store_records(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        assert not op.stores_records


class TestCountWindowsOutOfOrder:
    def test_shift_with_invertible_sum(self):
        op = make_operator()
        op.add_query(CountTumblingWindow(3), Sum())
        elements = [
            Record(0, 0.0),
            Record(2, 2.0),
            Record(4, 4.0),
            Record(6, 6.0),
            Record(8, 8.0),
            Watermark(9),
            Record(3, 3.0),
            Watermark(20),
        ]
        final = final_values(op, elements)
        # Final order: 0,2,3,4,6,8 -> windows (0,3)=5, (3,6)=18.
        assert final[(0, 0, 3)] == 5.0
        assert final[(0, 3, 6)] == 18.0

    def test_shift_with_noninvertible_min(self):
        op = make_operator()
        op.add_query(CountTumblingWindow(2), Min())
        elements = [
            Record(0, 5.0),
            Record(2, 1.0),
            Record(4, 7.0),
            Record(6, 2.0),
            Watermark(7),
            Record(1, 0.5),
            Watermark(20),
        ]
        final = final_values(op, elements)
        # Final order: 0(5.0), 1(0.5), 2(1.0), 4(7.0), 6(2.0).
        assert final[(0, 0, 2)] == 0.5
        assert final[(0, 2, 4)] == 1.0

    def test_naive_sum_without_invert_still_correct(self):
        stream = [Record(t, float(t)) for t in range(0, 20, 2)]
        disordered = shuffled_with_disorder(stream, 0.4, 6, seed=3)
        expected = reference_results([(CountTumblingWindow(3), Sum())], stream)
        op = make_operator()
        op.add_query(CountTumblingWindow(3), SumWithoutInvert())
        final = final_values(op, disordered + [Watermark(100)])
        assert final == expected

    def test_count_windows_store_records_under_disorder(self):
        op = make_operator()
        op.add_query(CountTumblingWindow(3), Sum())
        assert op.stores_records

    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("spacing", [100, 1])
    def test_eviction_horizon_is_in_the_count_domain(self, eager, spacing):
        """A count window reaches back 100 *records*, however sparse.

        With one record per 100 time units the old horizon (window
        length subtracted from the watermark as if it were a duration)
        dropped slices the next window still needed: 191 of 191 windows
        were wrong.  Eviction must also still happen: the store keeps
        the window's 10 slices plus the open head, not the stream.
        """
        window = SlidingWindow(100, 10, measure_kind=MeasureKind.COUNT)
        stream = [Record(spacing * i, float(i % 7)) for i in range(2_000)]
        elements = []
        for position, record in enumerate(stream):
            elements.append(record)
            if position % 10 == 9:
                elements.append(Watermark(record.ts))
        op = make_operator(eager, lateness=0)
        op.add_query(window, Sum())
        final = final_values(op, elements)
        assert len(final) == 191
        assert final == reference_results([(window, Sum())], stream)
        assert op.total_slices() == 11

    @pytest.mark.parametrize("eager", [False, True])
    def test_count_eviction_keeps_late_update_reach(self, eager):
        """Late records within the lateness still find every slice their
        windows cover after watermarks have evicted behind them."""
        window = SlidingWindow(20, 5, measure_kind=MeasureKind.COUNT)
        base = [Record(50 * i, float(i % 11)) for i in range(400)]
        disordered = shuffled_with_disorder(base, 0.3, 400, seed=5)
        elements = []
        high = 0
        for position, record in enumerate(disordered):
            elements.append(record)
            high = max(high, record.ts)
            if position % 7 == 6:
                elements.append(Watermark(high - 500))
        elements.append(Watermark(10**6))
        op = make_operator(eager, lateness=500)
        op.add_query(window, Sum())
        assert final_values(op, elements) == reference_results([(window, Sum())], base)
        assert op.total_slices() < 40


class TestNonCommutativeOutOfOrder:
    def test_m4_recomputed_in_event_order(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), M4())
        assert op.stores_records
        elements = [
            Record(2, 20.0),
            Record(8, 80.0),
            Record(5, 50.0),
            Watermark(10),
        ]
        final = final_values(op, elements)
        assert final[(0, 0, 10)] == (20.0, 80.0, 20.0, 80.0)

    def test_collect_list_in_event_order(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), CollectList())
        elements = [Record(2, "a"), Record(8, "c"), Record(5, "b"), Watermark(10)]
        final = final_values(op, elements)
        assert final[(0, 0, 10)] == ["a", "b", "c"]


class TestPunctuationsOutOfOrder:
    def test_late_punctuation_splits_slice(self):
        op = make_operator()
        op.add_query(PunctuationWindow(), Sum())
        elements = [
            Record(1, 1.0),
            Record(3, 1.0),
            Record(8, 1.0),
            Punctuation(10),
            Watermark(10),
            Punctuation(5),  # late: splits [0, 10) into [0, 5) and [5, 10)
            Watermark(12),
        ]
        final = final_values(op, elements)
        assert final[(0, 0, 5)] == 2.0
        assert final[(0, 5, 10)] == 1.0


class TestMultiMeasureOutOfOrder:
    def test_late_record_shifts_window_content(self):
        op = make_operator()
        op.add_query(LastNEveryWindow(count=2, every=10), Sum())
        elements = [
            Record(2, 1.0),
            Record(4, 2.0),
            Record(12, 4.0),
            Watermark(10),  # window at edge 10: last 2 of {2,4} -> 3.0
            Record(6, 8.0),  # late: last 2 before 10 become {4:2.0, 6:8.0}
            Watermark(20),
        ]
        results = run_operator(op, elements)
        values = [r.value for r in results]
        assert 3.0 in values  # initial emission
        assert 10.0 in values  # update after the late record


class TestRandomizedAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("eager", [False, True])
    def test_mixed_time_workload(self, seed, eager):
        base = [Record(t, float(t % 11)) for t in range(0, 300, 3)]
        disordered = shuffled_with_disorder(base, 0.3, 30, seed=seed)
        queries = [
            (TumblingWindow(30), Sum()),
            (SlidingWindow(50, 20), Min()),
            (SessionWindow(9), Sum()),
        ]
        op = make_operator(eager, lateness=10_000)
        for window, fn in queries:
            op.add_query(window, fn)
        final = final_values(op, disordered + [Watermark(10_000)])
        expected = reference_results(queries, base, horizon=10_000)
        assert final == {
            (index, start, end): value
            for (index, start, end), value in expected.items()
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_count_workload(self, seed):
        base = [Record(t, float(t % 7)) for t in range(0, 120, 2)]
        disordered = shuffled_with_disorder(base, 0.25, 10, seed=seed)
        queries = [(CountTumblingWindow(7), Sum())]
        op = make_operator(lateness=10_000)
        for window, fn in queries:
            op.add_query(window, fn)
        final = final_values(op, disordered + [Watermark(10_000)])
        expected = reference_results(queries, base, horizon=10_000)
        assert final == expected
