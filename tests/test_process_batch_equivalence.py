"""Cross-path equivalence: ``process_batch`` must be bit-identical to
tuple-at-a-time ``process`` for every operator, window type, aggregation
class, and stream ordering -- regardless of how the stream is chunked.

The batched fast path (see ``core/operator_.py``) bulk-folds in-order
runs that provably cross no slice edge; everything else falls back to
the exact per-record path.  These tests pin the contract that the split
is invisible: identical ``WindowResult`` sequences, in the same order,
with identical (not merely approximately equal) values.
"""

import random

import pytest

from repro import GeneralSlicingOperator
from repro.aggregations import (
    AggregateFunction,
    Average,
    Max,
    Median,
    Percentile,
    Sum,
    SumWithoutInvert,
)
from repro.baselines import (
    AggregateTreeOperator,
    BucketsOperator,
    CuttyOperator,
    PairsOperator,
    TupleBufferOperator,
)
from repro.core.types import Record, Watermark
from repro.windows import (
    CountTumblingWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

from regressions import Scaled

BATCH_SIZES = [1, 7, 64, None]  # None = the whole stream as one batch


def result_key(result):
    return (result.query_id, result.start, result.end, result.value, result.is_update)


def run_tuple_at_a_time(operator, elements):
    out = []
    for element in elements:
        out.extend(operator.process(element))
    return [result_key(r) for r in out]


def run_batched(operator, elements, batch_size):
    if batch_size is None:
        batch_size = max(1, len(elements))
    out = []
    for start in range(0, len(elements), batch_size):
        out.extend(operator.process_batch(elements[start : start + batch_size]))
    return [result_key(r) for r in out]


def in_order_stream(n=200, seed=3):
    rng = random.Random(seed)
    ts = 0
    out = []
    for _ in range(n):
        ts += rng.randint(0, 3)
        out.append(Record(ts, float(rng.randint(-50, 50))))
    return out


def out_of_order_stream(n=200, seed=4):
    """Disordered records interleaved with periodic watermarks."""
    rng = random.Random(seed)
    base = in_order_stream(n, seed=seed)
    records = list(base)
    for _ in range(n // 5):
        i = rng.randrange(1, n)
        j = max(0, i - rng.randint(1, 8))
        records[i], records[j] = records[j], records[i]
    out = []
    max_ts = 0
    for index, record in enumerate(records):
        out.append(record)
        max_ts = max(max_ts, record.ts)
        if index % 17 == 16:
            out.append(Watermark(max_ts - rng.randint(0, 5)))
    out.append(Watermark(max_ts + 100))
    return out


def fractional(stream, seed=12):
    """The same stream with non-integer float values, so that sums
    round and the order of additions shows in the last bits."""
    rng = random.Random(seed)
    return [
        Record(e.ts, rng.uniform(-50.0, 50.0)) if isinstance(e, Record) else e
        for e in stream
    ]


ALL_WINDOWS = [
    TumblingWindow(10),
    SlidingWindow(20, 5),
    SessionWindow(7),
    CountTumblingWindow(6),
]

FUNCTIONS = [Sum, Max, Median]  # invertible / non-invertible / holistic


class TestGeneralSlicingEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.__name__)
    def test_in_order_all_window_types(self, batch_size, function):
        stream = in_order_stream()

        def build():
            op = GeneralSlicingOperator(stream_in_order=True)
            for qid, window in enumerate(ALL_WINDOWS):
                assert op.add_query(window, function()).query_id == qid
            return op

        expected = run_tuple_at_a_time(build(), stream)
        assert expected, "workload must actually emit results"
        assert run_batched(build(), stream, batch_size) == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.__name__)
    def test_out_of_order_all_window_types(self, batch_size, function):
        stream = out_of_order_stream()

        def build():
            op = GeneralSlicingOperator(
                stream_in_order=False, allowed_lateness=50
            )
            for window in ALL_WINDOWS:
                op.add_query(window, function())
            return op

        expected = run_tuple_at_a_time(build(), stream)
        assert expected
        assert run_batched(build(), stream, batch_size) == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("function", [Sum, Average, Median], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("ordered", [True, False], ids=["in-order", "out-of-order"])
    def test_fractional_values_long_runs(self, ordered, function, batch_size):
        """Bit-identity must not lean on integer-valued floats: a bulk
        fold has to be the sequential chain of additions.  Coarse
        windows and no sessions, so that runs of a dozen and more
        records really are folded in one call."""
        stream = fractional(in_order_stream() if ordered else out_of_order_stream())

        def build():
            op = GeneralSlicingOperator(
                stream_in_order=ordered, allowed_lateness=0 if ordered else 50
            )
            op.add_query(TumblingWindow(40), function())
            op.add_query(SlidingWindow(60, 20), function())
            return op

        expected = run_tuple_at_a_time(build(), stream)
        assert expected
        assert run_batched(build(), stream, batch_size) == expected

    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    @pytest.mark.parametrize("function", [Sum, Average], ids=lambda f: f.__name__)
    def test_ten_tenths_sum_like_the_per_record_path(self, function, eager):
        """Since Python 3.12 the builtin ``sum`` compensates float
        rounding: ten 0.1s give 1.0 there and 0.9999999999999999 by
        repeated addition, which is what ``combine`` does per record."""
        stream = [Record(i, 0.1) for i in range(21)]

        def build():
            op = GeneralSlicingOperator(stream_in_order=True, eager=eager)
            op.add_query(TumblingWindow(10), function())
            return op

        expected = run_tuple_at_a_time(build(), stream)
        chain = 0.1
        for _ in range(9):
            chain += 0.1
        value = chain if function is Sum else chain / 10
        assert expected == [(0, 0, 10, value, False), (0, 10, 20, value, False)]
        assert run_batched(build(), stream, None) == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_mixed_functions_shared_slices(self, batch_size):
        """All three aggregation classes multiplexed over shared slices."""
        stream = in_order_stream(n=300, seed=9)

        def build():
            op = GeneralSlicingOperator(stream_in_order=True)
            op.add_query(SlidingWindow(30, 10), Sum())
            op.add_query(SlidingWindow(30, 10), Max())
            op.add_query(TumblingWindow(25), Median())
            return op

        expected = run_tuple_at_a_time(build(), stream)
        assert run_batched(build(), stream, batch_size) == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_run_helper_matches_process(self, batch_size):
        """WindowOperator.run(batch_size=...) is just chunk + process_batch."""
        stream = in_order_stream(n=120, seed=11)

        def build():
            op = GeneralSlicingOperator(stream_in_order=True)
            op.add_query(TumblingWindow(10), Sum())
            return op

        expected = run_tuple_at_a_time(build(), stream)
        size = batch_size if batch_size is not None else len(stream)
        got = [result_key(r) for r in build().run(stream, batch_size=size)]
        assert got == expected


class TestSubclassThatOverridesLift:
    """``Sum.fold_values`` / ``Max.fold_values`` reduce the raw values,
    which is ``lift`` only for ``Sum`` / ``Max`` themselves: a subclass
    with its own ``lift`` gets the exact left fold back.  That every bulk
    path folds with it is a row of the regression corpus
    (``a_subclass_that_overrides_lift_folds_with_it_in_bulk``)."""

    def test_only_the_hooks_a_class_does_not_define_fall_back(self):
        base = AggregateFunction
        assert Scaled.fold_values is base.fold_values
        assert Scaled.accumulate is base.accumulate
        assert Scaled.combine_all is base.combine_all
        # No ``lift`` or ``combine`` of its own: the parent's shortcuts stay.
        assert SumWithoutInvert.fold_values is Sum.fold_values
        assert Median.accumulate is Percentile.accumulate

        class Halved(Sum):
            def lift(self, value):
                return value / 2

            def fold_values(self, partial, values):
                return Sum.fold_values(self, partial, [value / 2 for value in values])

        assert Halved.fold_values is not base.fold_values
        assert Halved.accumulate is base.accumulate


BASELINES_IN_ORDER = [
    TupleBufferOperator,
    AggregateTreeOperator,
    BucketsOperator,
    PairsOperator,
    CuttyOperator,
]


class TestBaselineEquivalence:
    def _build(self, cls):
        if cls in (PairsOperator, CuttyOperator):
            op = cls()
        else:
            op = cls(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        op.add_query(SlidingWindow(20, 5), Sum())
        return op

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize(
        "cls", BASELINES_IN_ORDER, ids=lambda c: c.__name__
    )
    def test_in_order_sliding_and_tumbling(self, cls, batch_size):
        stream = in_order_stream(n=250, seed=5)
        expected = run_tuple_at_a_time(self._build(cls), stream)
        assert expected
        assert run_batched(self._build(cls), stream, batch_size) == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize(
        "cls",
        [TupleBufferOperator, AggregateTreeOperator, BucketsOperator],
        ids=lambda c: c.__name__,
    )
    def test_out_of_order_with_watermarks(self, cls, batch_size):
        stream = out_of_order_stream(n=250, seed=6)

        def build():
            op = cls(stream_in_order=False, allowed_lateness=50)
            op.add_query(TumblingWindow(10), Sum())
            op.add_query(SlidingWindow(20, 5), Max())
            return op

        expected = run_tuple_at_a_time(build(), stream)
        assert expected
        assert run_batched(build(), stream, batch_size) == expected
