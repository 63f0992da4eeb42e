"""Tests for the Section 3 baseline operators."""

import pytest

from conftest import disordered_with_watermarks, final_values, run_operator, shuffled_with_disorder
from repro import Record, StreamOrderViolation, Watermark
from repro.aggregations import Average, Max, Median, Min, Sum
from repro.baselines import (
    AggregateBucketsOperator,
    AggregateTreeOperator,
    CuttyOperator,
    PairsOperator,
    TupleBucketsOperator,
    TupleBufferOperator,
)
from repro.core.types import Punctuation
from repro.reference import reference_results
from repro.runtime.memory import deep_sizeof
from repro.windows import (
    CountTumblingWindow,
    ExplicitEdgesWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

GENERAL_BASELINES = [
    TupleBufferOperator,
    AggregateTreeOperator,
    AggregateBucketsOperator,
    TupleBucketsOperator,
]


class TestInOrderAgreementWithReference:
    @pytest.mark.parametrize("cls", GENERAL_BASELINES + [PairsOperator, CuttyOperator])
    def test_tumbling_sum(self, cls, simple_stream):
        op = cls() if cls in (PairsOperator, CuttyOperator) else cls(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        results = run_operator(op, simple_stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 10, 10.0),
            (10, 20, 10.0),
        ]

    @pytest.mark.parametrize("cls", GENERAL_BASELINES + [PairsOperator, CuttyOperator])
    def test_sliding_sum(self, cls, valued_stream):
        op = cls() if cls in (PairsOperator, CuttyOperator) else cls(stream_in_order=True)
        op.add_query(SlidingWindow(20, 10), Sum())
        final = final_values(op, valued_stream + [Watermark(10**6)])
        expected = reference_results(
            [(SlidingWindow(20, 10), Sum())], valued_stream, horizon=10**6
        )
        assert final == expected

    @pytest.mark.parametrize("cls", GENERAL_BASELINES)
    def test_sessions(self, cls):
        op = cls(stream_in_order=True)
        op.add_query(SessionWindow(5), Sum())
        stream = [Record(t, 1.0) for t in [1, 2, 3, 20, 21, 40]]
        final = final_values(op, stream + [Watermark(100)])
        assert final == {(0, 1, 8): 3.0, (0, 20, 26): 2.0, (0, 40, 45): 1.0}

    @pytest.mark.parametrize("cls", [TupleBufferOperator, AggregateTreeOperator])
    def test_count_windows(self, cls):
        op = cls(stream_in_order=True)
        op.add_query(CountTumblingWindow(3), Sum())
        stream = [Record(t, float(t)) for t in range(10)]
        results = run_operator(op, stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 3, 3.0),
            (3, 6, 12.0),
            (6, 9, 21.0),
        ]

    @pytest.mark.parametrize("cls", [TupleBufferOperator, AggregateTreeOperator])
    def test_multimeasure(self, cls):
        op = cls(stream_in_order=True)
        op.add_query(LastNEveryWindow(count=3, every=10), Sum())
        stream = [Record(t, 1.0) for t in range(0, 25, 2)]
        results = run_operator(op, stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (2, 5, 3.0),
            (7, 10, 3.0),
        ]


class TestOutOfOrderBehaviour:
    @pytest.mark.parametrize("cls", GENERAL_BASELINES)
    def test_late_update(self, cls):
        op = cls(stream_in_order=False, allowed_lateness=1000)
        op.add_query(TumblingWindow(10), Sum())
        run_operator(op, [Record(1, 1.0), Record(15, 1.0), Watermark(12)])
        updates = op.process(Record(3, 2.0))
        assert [(u.start, u.end, u.value) for u in updates] == [(0, 10, 3.0)]
        assert updates[0].is_update

    @pytest.mark.parametrize("cls", GENERAL_BASELINES)
    def test_in_order_mode_rejects_late_records(self, cls):
        op = cls(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        op.process(Record(10, 1.0))
        with pytest.raises(StreamOrderViolation):
            op.process(Record(5, 1.0))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cls", [TupleBufferOperator, AggregateTreeOperator])
    def test_random_disorder_matches_reference(self, cls, seed):
        base = [Record(t, float(t % 5)) for t in range(0, 200, 2)]
        disordered = shuffled_with_disorder(base, 0.3, 20, seed=seed)
        queries = [(TumblingWindow(20), Sum()), (SessionWindow(6), Sum())]
        op = cls(stream_in_order=False, allowed_lateness=10_000)
        for window, fn in queries:
            op.add_query(window, fn)
        final = final_values(op, disordered + [Watermark(10_000)])
        expected = reference_results(queries, base, horizon=10_000)
        assert final == expected


class TestBuckets:
    def test_tuple_buckets_serve_holistic(self):
        op = TupleBucketsOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Median())
        results = run_operator(op, [Record(t, float(t)) for t in range(12)])
        assert results[0].value == 5.0

    def test_aggregate_buckets_reject_holistic(self):
        op = AggregateBucketsOperator(stream_in_order=True)
        with pytest.raises(ValueError):
            op.add_query(TumblingWindow(10), Median())

    def test_bucket_count_reflects_overlap(self):
        op = AggregateBucketsOperator(stream_in_order=False, allowed_lateness=10**9)
        op.add_query(SlidingWindow(20, 5), Sum())
        run_operator(op, [Record(t, 1.0) for t in range(0, 40, 2)])
        # Overlapping sliding windows materialize one bucket each.
        assert op.bucket_count() >= 8

    def test_session_bucket_merging(self):
        op = AggregateBucketsOperator(stream_in_order=False, allowed_lateness=1000)
        op.add_query(SessionWindow(5), Sum())
        elements = [
            Record(1, 1.0),
            Record(8, 1.0),
            Record(4, 1.0),
            Watermark(40),
        ]
        final = final_values(op, elements)
        assert final == {(0, 1, 13): 3.0}

    def test_ooo_throughput_cost_is_bucket_local(self):
        # An out-of-order record only touches its buckets: same output.
        op = AggregateBucketsOperator(stream_in_order=False, allowed_lateness=1000)
        op.add_query(TumblingWindow(10), Sum())
        final = final_values(
            op,
            [Record(5, 1.0), Record(15, 1.0), Record(2, 1.0), Watermark(20)],
        )
        assert final == {(0, 0, 10): 2.0, (0, 10, 20): 1.0}


class TestPairsRestrictions:
    def test_rejects_sessions(self):
        with pytest.raises(ValueError):
            PairsOperator().add_query(SessionWindow(5), Sum())

    def test_rejects_holistic(self):
        with pytest.raises(ValueError):
            PairsOperator().add_query(TumblingWindow(10), Median())

    def test_rejects_out_of_order(self):
        op = PairsOperator()
        op.add_query(TumblingWindow(10), Sum())
        op.process(Record(10, 1.0))
        with pytest.raises(StreamOrderViolation):
            op.process(Record(5, 1.0))

    def test_fragments_shared_across_queries(self, simple_stream):
        op = PairsOperator()
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(SlidingWindow(10, 5), Sum())
        run_operator(op, simple_stream)
        # Edges at multiples of 5: about one fragment per 5 ts.
        assert op.slice_count() <= 7


class TestCutty:
    def test_rejects_fca(self):
        with pytest.raises(ValueError):
            CuttyOperator().add_query(LastNEveryWindow(5, 10), Sum())

    def test_rejects_out_of_order(self):
        op = CuttyOperator()
        op.add_query(TumblingWindow(10), Sum())
        op.process(Record(10, 1.0))
        with pytest.raises(StreamOrderViolation):
            op.process(Record(5, 1.0))

    def test_punctuation_windows_supported(self):
        op = CuttyOperator()
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

    def test_user_defined_window_via_subclass(self, simple_stream):
        """Cutty's selling point: plug in a custom deterministic window."""
        from repro.windows.base import ContextFreeWindow

        class FibonacciWindow(ContextFreeWindow):
            """Windows between consecutive Fibonacci numbers."""

            EDGES = [0, 1, 2, 3, 5, 8, 13, 21, 34]

            def get_next_edge(self, ts):
                for edge in self.EDGES:
                    if edge > ts:
                        return edge
                return None

            def get_floor_edge(self, ts):
                best = None
                for edge in self.EDGES:
                    if edge <= ts:
                        best = edge
                return best

            def trigger_windows(self, prev, curr):
                for lo, hi in zip(self.EDGES, self.EDGES[1:]):
                    if prev < hi <= curr:
                        yield (lo, hi)

        op = CuttyOperator()
        op.add_query(FibonacciWindow(), Sum())
        results = run_operator(op, simple_stream)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 5, 2.0),
            (5, 8, 3.0),
            (8, 13, 5.0),
            (13, 21, 8.0),
        ]


class TestEviction:
    def test_tuple_buffer_evicts_old_records(self):
        op = TupleBufferOperator(stream_in_order=True)
        op.EVICT_BATCH = 1  # force eager eviction for the test
        op.add_query(TumblingWindow(10), Sum())
        for ts in range(0, 2000, 2):
            op.process(Record(ts, 1.0))
        assert op.buffered_records() < 200

    def test_aggregate_tree_evicts_old_records(self):
        op = AggregateTreeOperator(stream_in_order=True)
        op.EVICT_BATCH = 1
        op.add_query(TumblingWindow(10), Sum())
        for ts in range(0, 2000, 2):
            op.process(Record(ts, 1.0))
        assert op.buffered_records() < 200


@pytest.mark.parametrize("cls", [TupleBufferOperator, AggregateTreeOperator])
class TestEvictionKeepsWhatWindowsStillReach:
    """The record buffers evict by ``WindowType.retention_start`` in each
    window's own measure, against ``repro.reference`` -- a baseline that
    evicts too early is fast and wrong."""

    @staticmethod
    def _final(cls, queries, elements):
        op = cls(stream_in_order=False, allowed_lateness=0)
        op.EVICT_BATCH = 1
        for window, fn in queries:
            op.add_query(window, fn)
        return op, final_values(op, elements)

    def test_explicit_edges_next_to_fine_tumbling(self, cls):
        # Issue 14's reproducer: the edge list has no ``length`` to probe.
        queries = [(ExplicitEdgesWindow([0, 1000, 2000]), Sum()), (TumblingWindow(100), Sum())]
        elements = []
        for ts in range(2_000):
            elements.append(Record(ts, 1.0))
            if ts % 100 == 99:
                elements.append(Watermark(ts))
        elements.append(Watermark(2_100))
        op, final = self._final(cls, queries, elements)
        assert final[(0, 0, 1000)] == final[(0, 1000, 2000)] == 1000.0
        assert final == reference_results(queries, elements, horizon=2_100)
        assert op.buffered_records() == 0  # eviction still happens

    def test_count_window_length_is_not_a_duration(self, cls):
        # One record per 10 ticks: 50 records span 500 ticks, not 50.
        queries = [(CountTumblingWindow(50), Sum()), (TumblingWindow(20), Sum())]
        elements = []
        for index in range(200):
            elements.append(Record(index * 10, 1.0))
            elements.append(Watermark(index * 10))
        op, final = self._final(cls, queries, elements)
        assert [final[(0, start, start + 50)] for start in (0, 50, 100, 150)] == [50.0] * 4
        assert final == reference_results(queries, elements, horizon=1_990)
        assert op.buffered_records() <= 50

    def test_long_open_session_is_kept_whole(self, cls):
        queries = [(SessionWindow(10), Sum())]
        elements = []
        for ts in range(300):
            elements.append(Record(ts, 1.0))
            elements.append(Watermark(ts))
        elements += [Record(400, 1.0), Watermark(500)]
        op, final = self._final(cls, queries, elements)
        assert final == {(0, 0, 309): 300.0, (0, 400, 410): 1.0}
        assert op.buffered_records() == 0

    def test_an_emitted_session_is_not_cut_by_a_shorter_reach(self, cls):
        # The tumbling window reaches 20 back, into the session that
        # ended at 109: the records right of such a cut were emitted
        # again as a session of their own, (92, 109) and on.
        queries = [(SessionWindow(10), Sum()), (TumblingWindow(20), Sum())]
        elements = []
        for ts in [*range(100), *range(112, 200)]:
            elements.append(Record(ts, 1.0))
            elements.append(Watermark(ts))
        elements.append(Watermark(400))
        op, final = self._final(cls, queries, elements)
        assert final == reference_results(queries, elements, horizon=400)
        assert op.buffered_records() == 0


# ----------------------------------------------------------------------
# Pairs and Cutty: one in-order slicer, a list or a FlatFAT per function

IN_ORDER_SLICERS = [PairsOperator, CuttyOperator]

SHARED_QUERY_SETS = {
    "tumbling": [
        (TumblingWindow(100), Sum()),
        (TumblingWindow(100), Max()),
        (TumblingWindow(250), Average()),
    ],
    "sliding": [
        (SlidingWindow(100, 20), Sum()),
        (SlidingWindow(300, 50), Max()),
        (TumblingWindow(100), Average()),
    ],
}


def _by_query(results, ids):
    """Final value per ``(position in ids, start, end)``: the keying of
    ``reference_results``."""
    position = {query_id: index for index, query_id in enumerate(ids)}
    return {
        (position[r.query_id], r.start, r.end): r.value for r in results if r.query_id in position
    }


class TestInOrderSlicersAgree:
    @pytest.mark.parametrize("name", sorted(SHARED_QUERY_SETS))
    def test_pairs_and_cutty_match_the_reference(self, name):
        queries = SHARED_QUERY_SETS[name]
        records = [Record(ts, float(ts % 13)) for ts in range(0, 3_000, 3)]
        elements = records + [Watermark(3_100)]
        outputs = []
        for cls in IN_ORDER_SLICERS:
            op = cls()
            for window, fn in queries:
                op.add_query(window, fn)
            outputs.append(run_operator(op, elements))
            # 300 slices of 10 ticks without eviction; the longest window
            # reaches 30 of them back.
            assert op.slice_count() <= 32
        assert outputs[0] == outputs[1]
        expected = reference_results(queries, records, horizon=3_100)
        assert _by_query(outputs[0], range(len(queries))) == expected

    def test_queries_added_and_removed_mid_stream(self):
        """A query added later sees the records from then on; one removed
        stops; the others are unaffected, and so is the layout of the
        partials they read."""
        records = [Record(ts, float(ts % 13)) for ts in range(0, 3_000, 3)]
        added_at, removed_at = 1_000, 2_000
        outputs = []
        for cls in IN_ORDER_SLICERS:
            op = cls()
            first = op.add_query(SlidingWindow(100, 20), Sum())
            op.add_query(TumblingWindow(100), Max())
            results = run_operator(op, [r for r in records if r.ts < added_at])
            op.add_query(TumblingWindow(200), Average())
            results += run_operator(op, [r for r in records if added_at <= r.ts < removed_at])
            op.remove_query(first.query_id)
            results += run_operator(op, [r for r in records if r.ts >= removed_at])
            outputs.append(results + op.process(Watermark(3_100)))
        assert outputs[0] == outputs[1]
        results = outputs[0]
        sliding_sum = reference_results([(SlidingWindow(100, 20), Sum())], records)
        emitted = _by_query(results, [0])
        assert emitted and all(value == sliding_sum[key] for key, value in emitted.items())
        assert max(end for _, _, end in emitted) > added_at
        assert _by_query(results, [1]) == reference_results(
            [(TumblingWindow(100), Max())], records, horizon=3_100
        )
        assert _by_query(results, [2]) == reference_results(
            [(TumblingWindow(200), Average())],
            [r for r in records if r.ts >= added_at],
            horizon=3_100,
        )

    @pytest.mark.parametrize(
        "window", [SlidingWindow(100, 20), TumblingWindow(100)], ids=["sliding", "tumbling"]
    )
    @pytest.mark.parametrize("cls", IN_ORDER_SLICERS)
    def test_removing_a_query_leaves_the_other_functions_partials(self, cls, window):
        # Pairs once renumbered its functions when a query went, and read
        # the removed Sum's partials as the remaining Max: 9.0 / 9.0 / 7.0
        # for [60, 160) / [80, 180) / [100, 200) where 6.0 is right.
        records = [Record(ts, float(ts % 7)) for ts in range(0, 300, 10)]
        op = cls()
        first = op.add_query(window, Sum())
        op.add_query(window, Max())
        results = run_operator(op, records[:15])
        op.remove_query(first.query_id)
        results += run_operator(op, records[15:])
        expected = reference_results([(window, Max())], records, horizon=290)
        assert _by_query(results, [1]) == expected


class TestInOrderSlicersEvict:
    """State is bounded by the longest window, not by the stream: every
    cut and watermark drops the slices that no window still open there
    reaches back to (``WindowType.retention_start``)."""

    @staticmethod
    def _state_at(op, elements, marks):
        sizes, results, seen = [], [], 0
        for element in elements:
            results.extend(op.process(element))
            if isinstance(element, Record):
                seen += 1
                if seen in marks:
                    sizes.append(deep_sizeof(op.state_objects()))
        return sizes, results

    @pytest.fixture(scope="class")
    def sliding_case(self):
        records = [Record(ts, float(ts % 7)) for ts in range(80_000)]
        queries = [(SlidingWindow(1_000, 100), Sum())]
        expected = reference_results(queries, records, horizon=80_000)
        return queries, records + [Watermark(80_000)], expected

    @pytest.mark.parametrize("cls", IN_ORDER_SLICERS)
    def test_sliding_state_after_80000_records_is_that_after_20000(self, cls, sliding_case):
        # Cutty kept every slice: 23 040 bytes after 20 000 records and
        # 91 488 after 80 000.
        queries, elements, expected = sliding_case
        op = cls()
        op.add_query(*queries[0])
        (early, late), results = self._state_at(op, elements, (20_000, 80_000))
        assert late <= early
        assert _by_query(results, [0]) == expected

    def test_punctuation_windows_are_evicted_too(self):
        elements = []
        for ts in range(80_000):
            if ts and ts % 1_000 == 0:
                elements.append(Punctuation(ts))
            elements.append(Record(ts, float(ts % 7)))
        elements += [Punctuation(80_000), Watermark(80_000)]
        op = CuttyOperator()
        op.add_query(PunctuationWindow(), Sum())
        (early, late), results = self._state_at(op, elements, (20_000, 80_000))
        assert late <= early
        expected = reference_results([(PunctuationWindow(), Sum())], elements, horizon=80_000)
        assert len(expected) == 80
        assert _by_query(results, [0]) == expected


@pytest.mark.parametrize(
    "make",
    [
        PairsOperator,
        CuttyOperator,
        lambda: TupleBufferOperator(stream_in_order=True),
        lambda: AggregateTreeOperator(stream_in_order=True),
        lambda: AggregateBucketsOperator(stream_in_order=True),
        lambda: TupleBucketsOperator(stream_in_order=True),
    ],
    ids=["pairs", "cutty", "buffer", "tree", "agg-buckets", "tuple-buckets"],
)
def test_a_query_added_mid_stream_leaves_the_others_whole(make):
    """The baselines keep what the queries already there hold when one is
    added (general slicing does not yet: ROADMAP 5, the
    ``adding_a_query_keeps_the_results_of_the_others`` row of
    ``tests/regressions.py``)."""
    records = [Record(ts, 1.0) for ts in range(0, 250, 10)]
    op = make()
    op.add_query(TumblingWindow(100), Sum())
    results = run_operator(op, records[:15])
    op.add_query(TumblingWindow(100), Max())
    results += run_operator(op, records[15:] + [Watermark(1_000)])
    expected = reference_results([(TumblingWindow(100), Sum())], records, horizon=1_000)
    assert expected == {(0, 0, 100): 10.0, (0, 100, 200): 10.0, (0, 200, 300): 5.0}
    assert _by_query(results, [0]) == expected


# ----------------------------------------------------------------------
# Tuple Buffer and Aggregate Tree: one record buffer, folded or treed


@pytest.mark.parametrize("in_order", [True, False], ids=["in-order", "disordered"])
def test_tuple_buffer_and_aggregate_tree_agree_across_a_query_removal(in_order):
    queries = [
        (TumblingWindow(50), Sum()),
        (SlidingWindow(100, 25), Max()),
        (SessionWindow(7), Average()),
    ]
    base = [Record(ts, float(ts % 11)) for ts in range(0, 1_500, 2) if ts % 97 > 9]
    elements = list(base) if in_order else disordered_with_watermarks(base)
    elements.append(Watermark(2_000))
    removed_after = len(elements) // 2
    outputs = []
    for cls in (TupleBufferOperator, AggregateTreeOperator):
        op = cls(stream_in_order=in_order, allowed_lateness=0 if in_order else 20)
        op.EVICT_BATCH = 1
        ids = [op.add_query(window, fn).query_id for window, fn in queries]
        results = run_operator(op, elements[:removed_after])
        op.remove_query(ids[1])
        outputs.append(results + run_operator(op, elements[removed_after:]))
        assert op.buffered_records() < len(base) // 4
    assert outputs[0] == outputs[1]
    expected = reference_results(queries, base, horizon=2_000)
    final = _by_query(outputs[0], [0, 1, 2])
    assert {k: v for k, v in final.items() if k[0] != 1} == {
        k: v for k, v in expected.items() if k[0] != 1
    }
    removed = {k: v for k, v in final.items() if k[0] == 1}
    assert removed and all(value == expected[key] for key, value in removed.items())


# ----------------------------------------------------------------------
# Every technique folds a record the way general slicing does


class _AccumulateCountingSum(Sum):
    calls = 0

    def accumulate(self, partial, value):
        _AccumulateCountingSum.calls += 1
        return super().accumulate(partial, value)


@pytest.mark.parametrize(
    "make",
    [
        PairsOperator,
        CuttyOperator,
        lambda: TupleBufferOperator(stream_in_order=True),
        lambda: AggregateBucketsOperator(stream_in_order=True),
        lambda: TupleBucketsOperator(stream_in_order=True),
    ],
    ids=["pairs", "cutty", "buffer", "agg-buckets", "tuple-buckets"],
)
def test_a_record_is_folded_by_one_accumulate(make):
    """One fused ``accumulate`` per record and window it falls into, the
    step general slicing takes, not ``lift`` then ``combine``."""
    records = [Record(ts, float(ts % 7)) for ts in range(0, 500, 10)]
    op = make()
    op.add_query(TumblingWindow(100), _AccumulateCountingSum())
    _AccumulateCountingSum.calls = 0
    results = run_operator(op, records + [Watermark(1_000)])
    assert _AccumulateCountingSum.calls == len(records)
    expected = reference_results([(TumblingWindow(100), Sum())], records, horizon=1_000)
    assert _by_query(results, [0]) == expected
