"""Tests for the operator's runtime adaptivity (Section 5, overview).

Workload characteristics are re-derived whenever queries are added or
removed -- never on data changes -- and the storage strategy follows
the Figure 4 decision tree.
"""

import pytest

from conftest import disordered_with_watermarks, run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import M4, Median, Percentile, Sum
from repro.reference import reference_results
from repro.core.measures import MeasureKind
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


class TestStorageAdaptivity:
    def test_cf_commutative_ooo_drops_records(self):
        op = GeneralSlicingOperator(stream_in_order=False)
        op.add_query(TumblingWindow(10), Sum())
        assert not op.stores_records

    def test_adding_holistic_query_keeps_no_records(self):
        # The multiset partial holds the values; Figure 4 does not ask
        # for the aggregation class.
        op = GeneralSlicingOperator(stream_in_order=False)
        op.add_query(TumblingWindow(10), Sum())
        assert not op.stores_records
        op.add_query(TumblingWindow(20), Median())
        assert not op.stores_records

    def test_removing_demanding_query_drops_requirement(self):
        op = GeneralSlicingOperator(stream_in_order=False)
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(TumblingWindow(20), Median())
        assert not op.stores_records
        demanding = op.add_query(TumblingWindow(20), M4())  # non-commutative, out of order
        assert op.stores_records
        op.remove_query(demanding.query_id)
        assert not op.stores_records

    def test_noncommutative_matters_only_out_of_order(self):
        in_order = GeneralSlicingOperator(stream_in_order=True)
        in_order.add_query(TumblingWindow(10), M4())
        assert not in_order.stores_records
        ooo = GeneralSlicingOperator(stream_in_order=False)
        ooo.add_query(TumblingWindow(10), M4())
        assert ooo.stores_records


def _final(op, elements, after_each=lambda: None):
    """Last value per window.  A late record can extend or bridge
    sessions that were emitted already: a session result replaces what
    it overlaps."""
    final = {}
    for element in elements:
        for result in op.process(element):
            if isinstance(op.queries[result.query_id].window, SessionWindow):
                for key in [k for k in final if k[1] < result.end and result.start < k[2]]:
                    del final[key]
            final[(result.query_id, result.start, result.end)] = result.value
        after_each()
    return final


class TestHolisticPartialIsTheRecordStore:
    """A multiset partial holds every value of its slice, so a holistic
    query keeps records only where Figure 4 asks for them anyway."""

    BASE = [Record(tick, float((tick * 7) % 11)) for tick in range(600)]
    HORIZON = 10_000

    WINDOWS = {
        "tumbling": lambda: TumblingWindow(20),
        "sliding": lambda: SlidingWindow(40, 10),
        "session": lambda: SessionWindow(3),
    }

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize("ordered", [True, False], ids=["in-order", "disorder"])
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("function", [Median, lambda: Percentile(0.9)], ids=["median", "p90"])
    def test_no_records_kept_and_results_match_the_reference(self, function, window, ordered, eager):
        # Every 9th tick is silent, so sessions close.
        base = [record for record in self.BASE if record.ts % 9 < 6]
        stream = base if ordered else disordered_with_watermarks(base)
        queries = [(self.WINDOWS[window](), function())]
        op = GeneralSlicingOperator(
            stream_in_order=ordered, eager=eager, allowed_lateness=0 if ordered else 20
        )
        op.add_query(*queries[0])
        assert op.stores_records is False
        final = _final(op, stream + [Watermark(self.HORIZON)])
        assert len(final) > 25
        assert final == reference_results(queries, stream, horizon=self.HORIZON)
        op.check_invariants()
        slices = [slice_ for store in op.state_objects() for slice_ in store.slices]
        assert len(slices) < 10  # evicted along the way
        assert all(slice_.records is None for slice_ in slices)

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize(
        "window, punctuate_every",
        [(lambda: CountTumblingWindow(7), None), (lambda: PunctuationWindow(), 30)],
        ids=["count", "punctuation"],
    )
    @pytest.mark.parametrize("function", [Median, lambda: Percentile(0.9)], ids=["median", "p90"])
    def test_windows_that_split_or_shift_still_keep_records(
        self, function, window, punctuate_every, eager
    ):
        stream = disordered_with_watermarks(self.BASE, punctuate_every=punctuate_every)
        queries = [(window(), function())]
        op = GeneralSlicingOperator(stream_in_order=False, eager=eager, allowed_lateness=20)
        op.add_query(*queries[0])
        assert op.stores_records is True
        kept = []
        final = _final(
            op,
            stream + [Watermark(self.HORIZON)],
            lambda: kept.extend(
                slice_.records is not None for store in op.state_objects() for slice_ in store.slices
            ),
        )
        assert kept and all(kept)
        assert len(final) > 15
        assert final == reference_results(queries, stream, horizon=self.HORIZON)
        op.check_invariants()


class TestChainManagement:
    def test_time_and_count_chains_created(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(CountTumblingWindow(5), Sum())
        assert set(op.characteristics) == {MeasureKind.TIME, MeasureKind.COUNT}

    def test_single_chain_for_time_only(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(SlidingWindow(20, 5), Sum())
        assert set(op.characteristics) == {MeasureKind.TIME}

    def test_lastn_lives_in_count_chain(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(LastNEveryWindow(5, 10), Sum())
        assert set(op.characteristics) == {MeasureKind.COUNT}

    def test_unchanged_chain_preserved_on_add(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        chain_before = op._chains[MeasureKind.TIME]
        op.add_query(CountTumblingWindow(5), Sum())
        assert op._chains[MeasureKind.TIME] is chain_before


class TestQueriesAddedMidStream:
    def test_new_query_sees_future_windows(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        first = op.add_query(TumblingWindow(10), Sum())
        run_operator(op, [Record(t, 1.0) for t in range(15)])
        second = op.add_query(TumblingWindow(5), Sum())
        results = run_operator(op, [Record(t, 1.0) for t in range(15, 31)])
        by_query = {}
        for result in results:
            by_query.setdefault(result.query_id, []).append(result)
        assert any(r.end == 30 for r in by_query[first.query_id])
        assert any(r.end >= 25 for r in by_query[second.query_id])

    def test_removed_query_stops_emitting(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        keep = op.add_query(TumblingWindow(10), Sum())
        drop = op.add_query(TumblingWindow(5), Sum())
        run_operator(op, [Record(t, 1.0) for t in range(12)])
        op.remove_query(drop.query_id)
        results = run_operator(op, [Record(t, 1.0) for t in range(12, 40)])
        assert all(r.query_id == keep.query_id for r in results)

    def test_remove_unknown_query_is_noop(self):
        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        op.remove_query(999)
        assert len(op.queries) == 1


class TestCharacteristicsExposure:
    def test_characteristics_reflect_sessions(self):
        op = GeneralSlicingOperator(stream_in_order=False)
        op.add_query(SessionWindow(100), Sum())
        chars = op.characteristics[MeasureKind.TIME]
        assert chars.has_sessions
        assert not chars.store_tuples

    def test_repr_mentions_mode(self):
        op = GeneralSlicingOperator(stream_in_order=True, eager=True)
        assert "eager" in repr(op)
        assert "in-order" in repr(op)


class TestSharingAblationKnob:
    def test_per_query_partials_still_correct(self):
        from conftest import final_values
        from repro.reference import reference_results

        stream = [Record(t, float(t % 5)) for t in range(0, 60, 2)]
        queries = [(TumblingWindow(10), Sum()), (TumblingWindow(20), Sum())]
        operator = GeneralSlicingOperator(stream_in_order=True, share_aggregates=False)
        for window, fn in queries:
            operator.add_query(window, fn)
        final = final_values(operator, stream + [Watermark(10_000)])
        assert final == reference_results(queries, stream, horizon=10_000)

    def test_partial_counts_differ(self):
        shared = GeneralSlicingOperator(stream_in_order=True)
        unshared = GeneralSlicingOperator(stream_in_order=True, share_aggregates=False)
        for operator in (shared, unshared):
            operator.add_query(TumblingWindow(10), Sum())
            operator.add_query(TumblingWindow(20), Sum())
        assert len(shared._chains[MeasureKind.TIME].functions) == 1
        assert len(unshared._chains[MeasureKind.TIME].functions) == 2
