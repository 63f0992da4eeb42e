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
    ExplicitEdgesWindow,
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
    arrives behind it late -- also a record behind no other record,
    which used to take the in-order path: its windows were never
    emitted and, beyond the lateness, its loss never reported."""

    STREAM = [Record(ts, 1.0) for ts in range(0, 5_000, 10)]
    QUERIES = staticmethod(lambda: [(TumblingWindow(100), Sum())])

    @pytest.mark.parametrize("eager", [False, True])
    def test_within_lateness_its_window_is_emitted(self, eager):
        op = make_operator(eager, lateness=10**9)
        op.add_query(*self.QUERIES()[0])
        final = final_values(op, self.STREAM + [Watermark(10**6)])
        late = Record(5_003, 7.0)
        updates = op.process(late)
        assert [(r.start, r.end, r.value, r.is_update) for r in updates] == [(5_000, 5_100, 7.0, True)]
        final.update({(r.query_id, r.start, r.end): r.value for r in updates})
        final.update(final_values(op, [Watermark(2 * 10**6)]))
        assert final[(0, 5_000, 5_100)] == 7.0
        assert final == reference_results(self.QUERIES(), self.STREAM + [late], horizon=2 * 10**6)
        assert op.dropped_late_records == 0
        op.check_invariants()

    @pytest.mark.parametrize("eager", [False, True])
    def test_beyond_lateness_it_is_dropped_and_reported(self, eager):
        op = make_operator(eager, lateness=0)
        op.add_query(*self.QUERIES()[0])
        reported = []
        op.on_late_record = reported.append
        final = final_values(op, self.STREAM + [Watermark(10**6)])
        late = Record(5_003, 7.0)
        final.update(final_values(op, [late, Watermark(2 * 10**6)]))
        assert reported == [late] and op.dropped_late_records == 1
        assert final == reference_results(self.QUERIES(), self.STREAM, horizon=2 * 10**6)

    @pytest.mark.parametrize("eager", [False, True])
    def test_it_is_sliced_at_the_edges_it_passed_in_time_and_in_count(self, eager):
        """The open head must not swallow it: [4900, ...) is cut at 5000,
        and the count chain cuts where its in-order position says."""
        queries = lambda: [  # noqa: E731
            (TumblingWindow(100), Sum()),
            (SlidingWindow(300, 100), Median()),
            (CountTumblingWindow(7), Sum()),
            (SessionWindow(40), Sum()),
        ]
        op = make_operator(eager, lateness=10**9)
        for window, fn in queries():
            op.add_query(window, fn)
        behind = [Record(4_995, 2.0), Record(5_003, 7.0), Record(5_003, 1.0), Record(5_250, 3.0)]
        tail = [Record(10**6 + 5, 4.0), Record(5_120, 5.0)]
        elements = self.STREAM + [Watermark(10**6)] + behind + tail + [Watermark(2 * 10**6)]
        final = {}
        for element in elements:
            for r in op.process(element):
                final[(r.query_id, r.start, r.end)] = r.value
            op.check_invariants()
        expected = reference_results(queries(), elements, horizon=2 * 10**6)
        # A session extended behind the watermark replaces the one emitted.
        assert {key: value for key, value in final.items() if key in expected} == expected
        assert final[(0, 5_000, 5_100)] == 8.0 and final[(0, 5_200, 5_300)] == 3.0

    def test_a_first_record_behind_the_watermark_is_late_too(self):
        op = make_operator(lateness=0)
        op.add_query(TumblingWindow(10), Sum())
        assert op.process(Watermark(100)) == []
        assert op.process(Record(50, 1.0)) == [] and op.dropped_late_records == 1
        assert final_values(op, [Record(105, 2.0), Watermark(200)]) == {(0, 100, 110): 2.0}

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


class TestEvictionKeepsLongEdgeDelimitedWindows:
    """Windows given by an edge list or by punctuations have no
    ``length``: how far back they reach is the start of the window that
    is still open, which a finer window on the same chain must not make
    the watermark evict."""

    @staticmethod
    def _stream(marks=()):
        elements = []
        for ts in range(2_000):
            if ts in marks:
                elements.append(Punctuation(ts))
            elements.append(Record(ts, 1.0))
            if ts % 100 == 99:
                elements.append(Watermark(ts))
        return elements

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_explicit_edges_next_to_fine_tumbling(self, eager):
        queries = [(ExplicitEdgesWindow([0, 1000, 2000]), Sum()), (TumblingWindow(100), Sum())]
        elements = self._stream() + [Watermark(2_100)]
        op = make_operator(eager, lateness=0)
        for window, fn in queries:
            op.add_query(window, fn)
        final = final_values(op, elements)
        assert final[(0, 0, 1000)] == final[(0, 1000, 2000)] == 1000.0
        assert final == reference_results(queries, elements, horizon=2_100)
        # Eviction still happens: nothing before the last edge is kept.
        assert op.total_slices() <= 2

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_punctuation_windows_next_to_fine_tumbling(self, eager):
        queries = [(PunctuationWindow(), Sum()), (TumblingWindow(100), Sum())]
        elements = self._stream(marks=(1000,)) + [Punctuation(2_000), Watermark(2_100)]
        op = make_operator(eager, lateness=0)
        for window, fn in queries:
            op.add_query(window, fn)
        final = final_values(op, elements)
        assert final[(0, 0, 1000)] == final[(0, 1000, 2000)] == 1000.0
        assert final == reference_results(queries, elements, horizon=2_100)
        assert op.total_slices() <= 2


def _marked(records, marks):
    """``records`` in order, each watermark of ``marks`` ahead of the first
    record at or after it (the rest at the end)."""
    elements, marks = [], list(marks)
    for record in records:
        while marks and marks[0] <= record.ts:
            elements.append(Watermark(marks.pop(0)))
        elements.append(record)
    return elements + [Watermark(mark) for mark in marks]


class TestEvictionIsExact:
    """What eviction may not change, each with the stream that showed it
    did: run through :func:`run_operator` so a window emitted twice, or
    one the reference does not have, fails even with the right value."""

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_a_session_is_evicted_whole_or_not_at_all(self, eager):
        """One session, 100 .. 160, cut into 1-wide slices by the sliding
        window beside it.  Once it had timed out (176) the watermark at
        180 evicted up to 164 -- every slice of it but the open head
        [160, ...).  The next record closed that head, and what was left
        came back as a session of its own: ``(160, 176) -> 1.0`` beside
        ``(100, 176) -> 21.0``, no late drop, lazy and eager alike."""
        queries = [(SessionWindow(16), Sum()), (SlidingWindow(13, 2), Sum())]
        session = [Record(ts, 1.0) for ts in range(100, 161, 3)]
        elements = _marked(session, range(105, 201, 5)) + [Record(400, 1.0), Watermark(500)]
        op = make_operator(eager, lateness=0)
        for window, fn in queries:
            op.add_query(window, fn)
        results = run_operator(op, elements)
        assert op.dropped_late_records == 0
        sessions = [(r.start, r.end, r.value) for r in results if r.query_id == 0]
        assert sessions == [(100, 176, 21.0), (400, 416, 1.0)]
        emitted = {(r.query_id, r.start, r.end): r.value for r in results}
        assert len(emitted) == len(results)  # nothing twice, no updates
        assert emitted == reference_results(queries, elements, horizon=500)
        op.check_invariants()

    #: name -> (queries, the two sessions' timestamps, slide of the watermarks).
    HALVED_SESSIONS = {
        # Sliced [0, 10) [10, 17) [17, 20) ...: the first session's tail
        # ends at 12 + 5, where the second one's first record is.  Pinned
        # one *before* that record, the horizon (20 at ts 30) spared
        # [10, 17) and dropped [0, 10): ``(10, 17) -> 3.0`` beside
        # ``(0, 17) -> 13.0``.
        "the next session starts where the tail slice ends": (
            lambda: [(SessionWindow(5), Sum()), (TumblingWindow(10), Sum())],
            (range(0, 13), range(17, 46)),
            10,
        ),
        # At ts 60 the horizon is 35 and the session 20 .. 31, whose tail
        # [30, 34) ends before it, may go whole.  The carry of window
        # [30, 55) then lowered the horizon to 30: applied after the
        # sessions were judged, that dropped [20, 25) [25, 30) and kept
        # the tail, ``(30, 34) -> 2.0`` beside ``(20, 34) -> 12.0``.
        "a carry lowers the horizon into a session judged gone": (
            lambda: [(SlidingWindow(25, 10), Median()), (SessionWindow(3), Sum())],
            (range(20, 32), range(40, 71)),
            10,
        ),
    }

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize("in_order", [True, False], ids=["in order", "watermarks"])
    @pytest.mark.parametrize("case", HALVED_SESSIONS)
    def test_no_pin_leaves_half_a_session_behind(self, case, in_order, eager):
        make_queries, (first, second), slide = self.HALVED_SESSIONS[case]
        queries = make_queries()
        elements = [Record(ts, 1.0) for ts in (*first, *second)]
        if not in_order:
            elements = _marked(elements, range(slide, second[-1], slide))
        elements.append(Watermark(200))
        op = GeneralSlicingOperator(stream_in_order=in_order, eager=eager)
        for window, fn in queries:
            op.add_query(window, fn)
        results = []
        for element in elements:
            results.extend(op.process(element))
            op.check_invariants()
        emitted = {(r.query_id, r.start, r.end): r.value for r in results}
        assert len(emitted) == len(results)  # nothing twice, no updates
        assert emitted == reference_results(make_queries(), elements, horizon=200)
        # The first session did go; the second is in the open head.
        (store,) = op.state_objects()
        assert store.slices[0].first_ts == second[0]

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize("in_order", [True, False], ids=["in order", "out of order"])
    def test_a_session_timed_out_in_the_open_head_is_emitted_once(self, in_order, eager):
        """The watermark at 71 emits ``(34, 40)`` out of the open head,
        which no eviction takes.  Its horizon, 51, is past the session's
        end: forgotten as emitted on that account, the session came out
        again behind the next record."""
        queries = [(SessionWindow(4), Sum()), (TumblingWindow(20), Sum())]
        stamps = (1, 2, 34, 36)
        elements = [Record(ts, 1.0) for ts in stamps]
        elements += [Watermark(71), Record(71, 1.0), Watermark(200)]
        op = GeneralSlicingOperator(stream_in_order=in_order, eager=eager)
        for window, fn in queries:
            op.add_query(window, fn)
        results = run_operator(op, elements)
        sessions = [(r.start, r.end, r.value) for r in results if r.query_id == 0]
        assert sessions == [(1, 6, 2.0), (34, 40, 2.0), (71, 75, 1.0)]
        emitted = {(r.query_id, r.start, r.end): r.value for r in results}
        assert emitted == reference_results(queries, elements, horizon=200)

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize("lateness", [0, 100])
    def test_count_positions_survive_eviction(self, eager, lateness):
        """"The last 3 every 10" resolves its trigger edges against the
        records counted before them.  Counted over the retained slices
        only, every edge after the first eviction came out short by the
        evicted records: of the six windows four were emitted, one of
        them, ``(10, 13) -> 66.0``, not the reference's.  With a lateness
        of 100 nothing is evicted and all six always matched."""
        queries = [(LastNEveryWindow(3, 10), Sum())]
        stream = [Record(ts, float(ts)) for ts in range(0, 60, 2)]
        elements = _marked(stream, [10, 20, 30, 40, 50, 60])
        op = make_operator(eager, lateness=lateness)
        for window, fn in queries:
            op.add_query(window, fn)
        results = run_operator(op, elements)
        windows = [(r.start, r.end) for r in results]
        assert windows == [(2, 5), (7, 10), (12, 15), (17, 20), (22, 25), (27, 30)]
        emitted = {(r.query_id, r.start, r.end): r.value for r in results}
        assert emitted == reference_results(queries, elements, horizon=60)
        if lateness == 0:
            assert op.total_slices() <= 3
        op.check_invariants()


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

    @pytest.mark.xfail(raises=ValueError, strict=True, reason="ROADMAP 12(e)")
    def test_a_late_record_before_an_emptied_count_boundary(self):
        """The late 527 updates the window at edge 550 by splitting its
        start off at count 1; the late 520 then shifts the one record
        out of the slice that ends there, leaving it empty, and the
        second 520 finds no record to shift out of it."""
        op = make_operator(lateness=10_000)
        op.add_query(LastNEveryWindow(count=5, every=25), Sum())
        elements = [Record(ts, 1.0) for ts in (526, 527, 527, 529, 530)]
        elements += [Watermark(570)] + [Record(ts, 1.0) for ts in (527, 520, 520)]
        final = final_values(op, elements + [Watermark(1_000)])
        assert final == reference_results(
            [(LastNEveryWindow(count=5, every=25), Sum())], elements, horizon=1_000
        )


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
