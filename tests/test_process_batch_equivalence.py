"""Cross-path equivalence: ``process_batch`` must be bit-identical to
tuple-at-a-time ``process``.

The batch-split relation itself -- every technique, window type and
function class, in order and out of order, any chunking -- is checked
by ``tests/test_metamorphic_batches.py``.  What stays here: the Python
3.12 ``sum`` pitfall on eager windows, ``WindowOperator.run``, and which
bulk hooks a subclass that overrides ``lift`` falls back on.
"""

import random

import pytest

from repro import GeneralSlicingOperator
from repro.aggregations import (
    AggregateFunction,
    Average,
    Median,
    Percentile,
    Sum,
    SumWithoutInvert,
)
from repro.core.types import Record
from repro.windows import TumblingWindow

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


class TestGeneralSlicingEquivalence:
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
