"""End-to-end tests of GeneralSlicingOperator on in-order streams."""

import pytest

from conftest import final_values, run_operator
from repro import GeneralSlicingOperator, Record, StreamOrderViolation, Watermark
from repro.aggregations import M4, Average, CollectList, Max, Median, Sum
from repro.core.types import Punctuation
from repro.reference import reference_results
from repro.windows import (
    CountSlidingWindow,
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


def make_operator(eager=False):
    return GeneralSlicingOperator(stream_in_order=True, eager=eager)


class TestTumbling:
    @pytest.mark.parametrize("eager", [False, True])
    def test_basic_sums(self, eager, simple_stream):
        op = make_operator(eager)
        op.add_query(TumblingWindow(10), Sum())
        results = run_operator(op, simple_stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 10, 10.0),
            (10, 20, 10.0),
        ]

    def test_emission_is_immediate(self, simple_stream):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        out = []
        for record in simple_stream[:11]:
            out.extend(op.process(record))
        # Window [0, 10) emitted exactly when record ts=10 arrived.
        assert [(r.start, r.end) for r in out] == [(0, 10)]

    def test_gap_skips_empty_windows(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        results = run_operator(op, [Record(5, 1.0), Record(95, 1.0), Record(105, 1.0)])
        assert [(r.start, r.end) for r in results] == [(0, 10), (90, 100)]

    def test_watermark_flushes_final_window(self, simple_stream):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        run_operator(op, simple_stream)
        results = op.process(Watermark(100))
        assert [(r.start, r.end, r.value) for r in results] == [(20, 30, 5.0)]

    def test_late_record_raises(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        op.process(Record(10, 1.0))
        with pytest.raises(StreamOrderViolation):
            op.process(Record(5, 1.0))

    def test_equal_timestamps_allowed(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        results = run_operator(
            op, [Record(1, 1.0), Record(1, 2.0), Record(11, 0.0)]
        )
        assert results[0].value == 3.0


class TestSliding:
    @pytest.mark.parametrize("eager", [False, True])
    def test_overlapping_windows_share_slices(self, eager, simple_stream):
        op = make_operator(eager)
        op.add_query(SlidingWindow(10, 5), Sum())
        results = run_operator(op, simple_stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 10, 10.0),
            (5, 15, 10.0),
            (10, 20, 10.0),
        ]

    def test_unaligned_slide(self):
        op = make_operator()
        op.add_query(SlidingWindow(7, 3), Sum())
        stream = [Record(ts, 1.0) for ts in range(20)]
        results = run_operator(op, stream)
        expected = reference_results([(SlidingWindow(7, 3), Sum())], stream, horizon=19)
        got = {(0, r.start, r.end): r.value for r in results}
        assert got == expected

    def test_multiple_queries_share_one_chain(self, simple_stream):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(SlidingWindow(10, 5), Sum())
        run_operator(op, simple_stream)
        # Slices cut at the union of edges (multiples of 5 here).
        assert op.total_slices() <= 6


class TestSession:
    def test_sessions_split_on_gap(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        stream = [Record(t, 1.0) for t in [1, 2, 3, 20, 21, 40]]
        results = run_operator(op, stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (1, 8, 3.0),
            (20, 26, 2.0),
        ]

    def test_open_session_flushed_by_watermark(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        run_operator(op, [Record(1, 1.0)])
        results = op.process(Watermark(100))
        assert [(r.start, r.end, r.value) for r in results] == [(1, 6, 1.0)]

    def test_record_at_exact_gap_starts_new_session(self):
        op = make_operator()
        op.add_query(SessionWindow(5), Sum())
        results = run_operator(op, [Record(0, 1.0), Record(5, 1.0), Record(50, 0.0)])
        assert [(r.start, r.end) for r in results] == [(0, 5), (5, 10)]

    def test_sessions_and_tumbling_together(self):
        op = make_operator()
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(SessionWindow(3), Sum())
        stream = [Record(t, 1.0) for t in [1, 2, 8, 9, 15, 30]]
        final = final_values(op, stream + [Watermark(100)])
        assert final[(0, 0, 10)] == 4.0
        assert final[(0, 10, 20)] == 1.0
        # Gap 8-2 >= 3 splits sessions: [1,5) and [8,12).
        assert final[(1, 1, 5)] == 2.0
        assert final[(1, 8, 12)] == 2.0
        assert final[(1, 15, 18)] == 1.0


class TestCountWindows:
    def test_count_tumbling(self):
        op = make_operator()
        op.add_query(CountTumblingWindow(3), Sum())
        results = run_operator(op, [Record(t, float(t)) for t in range(10)])
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 3, 3.0),
            (3, 6, 12.0),
            (6, 9, 21.0),
        ]

    def test_count_sliding(self):
        op = make_operator()
        op.add_query(CountSlidingWindow(4, 2), Sum())
        stream = [Record(t, 1.0) for t in range(12)]
        final = final_values(op, stream + [Watermark(100)])
        expected = reference_results([(CountSlidingWindow(4, 2), Sum())], stream)
        assert final == expected

    def test_time_and_count_queries_together(self):
        op = make_operator()
        op.add_query(TumblingWindow(4), Sum())
        op.add_query(CountTumblingWindow(3), Sum())
        stream = [Record(t, 1.0) for t in range(12)]
        final = final_values(op, stream + [Watermark(100)])
        expected = reference_results(
            [(TumblingWindow(4), Sum()), (CountTumblingWindow(3), Sum())], stream
        )
        assert final == expected


class TestPunctuationWindows:
    def test_punctuation_delimited(self):
        op = make_operator()
        op.add_query(PunctuationWindow(), Sum())
        elements = [
            Record(1, 1.0),
            Record(2, 1.0),
            Punctuation(5),
            Record(7, 1.0),
            Punctuation(9),
            Record(11, 1.0),
        ]
        results = run_operator(op, elements)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 5, 2.0),
            (5, 9, 1.0),
        ]


class TestMultiMeasure:
    def test_last_n_every(self):
        op = make_operator()
        op.add_query(LastNEveryWindow(count=3, every=10), Sum())
        stream = [Record(t, 1.0) for t in range(0, 25, 2)]
        results = run_operator(op, stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (2, 5, 3.0),
            (7, 10, 3.0),
        ]

    def test_fca_forces_record_retention_inorder(self):
        op = make_operator()
        op.add_query(LastNEveryWindow(count=3, every=10), Sum())
        assert op.stores_records


class TestAggregations:
    def test_average(self, valued_stream):
        op = make_operator()
        op.add_query(TumblingWindow(20), Average())
        final = final_values(op, valued_stream + [Watermark(1000)])
        expected = reference_results(
            [(TumblingWindow(20), Average())], valued_stream, horizon=1000
        )
        assert final == expected

    def test_median(self, valued_stream):
        op = make_operator()
        op.add_query(TumblingWindow(20), Median())
        final = final_values(op, valued_stream + [Watermark(1000)])
        expected = reference_results(
            [(TumblingWindow(20), Median())], valued_stream, horizon=1000
        )
        assert final == expected

    def test_m4_inorder_without_records(self, valued_stream):
        op = make_operator()
        op.add_query(TumblingWindow(20), M4())
        assert not op.stores_records  # non-commutative is fine in-order
        final = final_values(op, valued_stream + [Watermark(1000)])
        expected = reference_results(
            [(TumblingWindow(20), M4())], valued_stream, horizon=1000
        )
        assert final == expected

    def test_collect_list_order(self):
        op = make_operator()
        op.add_query(TumblingWindow(5), CollectList())
        results = run_operator(op, [Record(0, "a"), Record(3, "b"), Record(7, "c")])
        assert results[0].value == ["a", "b"]

    def test_shared_function_instance_one_partial_per_slice(self, simple_stream):
        op = make_operator()
        shared = Sum()
        op.add_query(TumblingWindow(10), shared)
        op.add_query(SlidingWindow(10, 5), shared)
        from repro.core.measures import MeasureKind

        chain = op._chains[MeasureKind.TIME]
        assert len(chain.functions) == 1
        run_operator(op, simple_stream)


class TestEagerVsLazyEquivalence:
    def test_identical_outputs_across_window_mix(self, valued_stream):
        queries = [
            (TumblingWindow(10), Sum()),
            (SlidingWindow(14, 7), Max()),
            (SessionWindow(4), Sum()),
        ]
        outputs = []
        for eager in (False, True):
            op = make_operator(eager)
            for window, fn in queries:
                op.add_query(type(window)(**_window_kwargs(window)), type(fn)())
            outputs.append(final_values(op, valued_stream + [Watermark(10**6)]))
        assert outputs[0] == outputs[1]


def _window_kwargs(window):
    if isinstance(window, SlidingWindow):
        return {"length": window.length, "slide": window.slide}
    if isinstance(window, SessionWindow):
        return {"gap": window.gap}
    return {"length": window.length}


class TestMultipleSessionGaps:
    def test_two_session_queries_different_gaps(self):
        from repro.reference import reference_results

        op = make_operator()
        op.add_query(SessionWindow(3), Sum())
        op.add_query(SessionWindow(8), Sum())
        stream = [Record(t, 1.0) for t in [0, 2, 7, 18, 20, 40]]
        final = final_values(op, stream + [Watermark(10_000)])
        expected = reference_results(
            [(SessionWindow(3), Sum()), (SessionWindow(8), Sum())],
            stream,
            horizon=10_000,
        )
        assert final == expected

    def test_different_gaps_out_of_order(self):
        from conftest import shuffled_with_disorder
        from repro.reference import reference_results

        base = [Record(t, float(t % 4)) for t in range(0, 200, 5)]
        disordered = shuffled_with_disorder(base, 0.3, 25, seed=6)
        queries = [(SessionWindow(7), Sum()), (SessionWindow(20), Sum())]
        op = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10_000)
        for window, fn in queries:
            op.add_query(window, fn)
        final = final_values(op, disordered + [Watermark(10_000)])
        expected = reference_results(queries, base, horizon=10_000)
        assert final == expected
