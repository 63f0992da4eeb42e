"""Tests for basic and extended aggregate functions."""

import math

import pytest

from repro.aggregations import (
    ArgMax,
    ArgMin,
    Average,
    Count,
    GeometricMean,
    M4,
    Max,
    MaxCount,
    Min,
    MinCount,
    PopulationStdDev,
    SampleStdDev,
    Sum,
    SumWithoutInvert,
    default_registry,
)
from repro.aggregations.base import AggregationClass
from repro.aggregations.extended import M4Partial
from repro.aggregations.ordered import CollectList, ConcatString, First, Last


class TestSum:
    def test_lifecycle(self):
        fn = Sum()
        partial = fn.combine(fn.lift(2.0), fn.lift(3.0))
        assert fn.lower(partial) == 5.0

    def test_invert(self):
        fn = Sum()
        assert fn.invert(10.0, 4.0) == 6.0

    def test_properties(self):
        fn = Sum()
        assert fn.commutative and fn.invertible
        assert fn.kind is AggregationClass.DISTRIBUTIVE

    def test_identity(self):
        fn = Sum()
        assert fn.combine(fn.identity(), fn.lift(5.0)) == 5.0


class TestSumWithoutInvert:
    def test_same_results_as_sum(self):
        assert SumWithoutInvert().fold_values(None, [1.0, 2.0, 3.0]) == 6.0

    def test_invert_disabled(self):
        assert not SumWithoutInvert().invertible
        with pytest.raises(NotImplementedError):
            SumWithoutInvert().invert(5.0, 2.0)


class TestCount:
    def test_counts_values(self):
        assert Count().fold_values(None, ["a", "b", "c"]) == 3

    def test_empty_result_is_zero(self):
        assert Count().empty_result() == 0

    def test_invert(self):
        assert Count().invert(5, 2) == 3


class TestAverage:
    def test_average(self):
        fn = Average()
        partial = fn.fold_values(None, [2.0, 4.0, 6.0])
        assert fn.lower(partial) == 4.0

    def test_empty_partial_lowers_to_none(self):
        assert Average().lower((0.0, 0)) is None

    def test_invert(self):
        fn = Average()
        partial = fn.fold_values(None, [2.0, 4.0, 6.0])
        reduced = fn.invert(partial, fn.lift(6.0))
        assert fn.lower(reduced) == 3.0

    def test_algebraic(self):
        assert Average().kind is AggregationClass.ALGEBRAIC


class TestMinMax:
    def test_min(self):
        assert Min().fold_values(None, [5.0, 1.0, 3.0]) == 1.0

    def test_max(self):
        assert Max().fold_values(None, [5.0, 9.0, 3.0]) == 9.0

    def test_not_invertible(self):
        assert not Min().invertible and not Max().invertible

    def test_min_unaffected_by_removal(self):
        fn = Min()
        assert fn.unaffected_by_removal(1.0, 5.0)
        assert not fn.unaffected_by_removal(1.0, 1.0)

    def test_max_unaffected_by_removal(self):
        fn = Max()
        assert fn.unaffected_by_removal(9.0, 3.0)
        assert not fn.unaffected_by_removal(9.0, 9.0)


class TestMinCountMaxCount:
    def test_mincount_tracks_multiplicity(self):
        fn = MinCount()
        assert fn.fold_values(None, [3.0, 1.0, 1.0, 2.0]) == (1.0, 2)

    def test_maxcount_tracks_multiplicity(self):
        fn = MaxCount()
        assert fn.fold_values(None, [3.0, 3.0, 1.0]) == (3.0, 2)

    def test_mincount_unaffected(self):
        fn = MinCount()
        assert fn.unaffected_by_removal((1.0, 2), fn.lift(5.0))
        assert not fn.unaffected_by_removal((1.0, 2), fn.lift(1.0))

    def test_maxcount_unaffected(self):
        fn = MaxCount()
        assert fn.unaffected_by_removal((9.0, 1), fn.lift(2.0))
        assert not fn.unaffected_by_removal((9.0, 1), fn.lift(9.0))


class TestArgMinArgMax:
    def test_argmin(self):
        fn = ArgMin()
        partial = fn.fold_values(None, [(3.0, "c"), (1.0, "a"), (2.0, "b")])
        assert fn.lower(partial) == "a"

    def test_argmax(self):
        fn = ArgMax()
        partial = fn.fold_values(None, [(3.0, "c"), (9.0, "z"), (2.0, "b")])
        assert fn.lower(partial) == "z"

    def test_argmin_tie_prefers_first(self):
        fn = ArgMin()
        partial = fn.fold_values(None, [(1.0, "first"), (1.0, "second")])
        assert fn.lower(partial) == "first"


class TestGeometricMean:
    def test_value(self):
        fn = GeometricMean()
        partial = fn.fold_values(None, [2.0, 8.0])
        assert fn.lower(partial) == pytest.approx(4.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            GeometricMean().lift(0.0)

    def test_invert(self):
        fn = GeometricMean()
        partial = fn.fold_values(None, [2.0, 8.0, 4.0])
        reduced = fn.invert(partial, fn.lift(4.0))
        assert fn.lower(reduced) == pytest.approx(4.0)


class TestStdDev:
    def test_population_stddev(self):
        fn = PopulationStdDev()
        partial = fn.fold_values(None, [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert fn.lower(partial) == pytest.approx(2.0)

    def test_sample_stddev(self):
        fn = SampleStdDev()
        partial = fn.fold_values(None, [2.0, 4.0, 6.0])
        assert fn.lower(partial) == pytest.approx(2.0)

    def test_sample_stddev_needs_two_values(self):
        fn = SampleStdDev()
        assert fn.lower(fn.lift(5.0)) is None

    def test_invert(self):
        fn = PopulationStdDev()
        partial = fn.fold_values(None, [1.0, 2.0, 3.0])
        reduced = fn.invert(partial, fn.lift(2.0))
        expected = fn.fold_values(None, [1.0, 3.0])
        assert fn.lower(reduced) == pytest.approx(fn.lower(expected))


class TestM4:
    def test_m4_aggregate(self):
        fn = M4()
        partial = fn.fold_values(None, [3.0, 1.0, 4.0, 1.5])
        assert fn.lower(partial) == (1.0, 4.0, 3.0, 1.5)

    def test_m4_not_commutative(self):
        fn = M4()
        a, b = fn.lift(1.0), fn.lift(2.0)
        assert fn.combine(a, b) != fn.combine(b, a)
        assert not fn.commutative

    def test_partial_equality(self):
        assert M4Partial(1, 2, 3, 4) == M4Partial(1, 2, 3, 4)
        assert M4Partial(1, 2, 3, 4) != M4Partial(1, 2, 3, 5)


class TestOrderedAggregations:
    def test_first_and_last(self):
        assert First().fold_values(None, [5, 6, 7]) == 5
        assert Last().fold_values(None, [5, 6, 7]) == 7

    def test_collect_preserves_order(self):
        fn = CollectList()
        assert fn.lower(fn.fold_values(None, [3, 1, 2])) == [3, 1, 2]

    def test_collect_empty_result(self):
        assert CollectList().empty_result() == []

    def test_concat(self):
        fn = ConcatString("-")
        assert fn.lower(fn.fold_values(None, ["a", "b", "c"])) == "a-b-c"

    def test_non_commutative_flags(self):
        for fn in (First(), Last(), CollectList(), ConcatString()):
            assert not fn.commutative


class TestFold:
    def test_fold_empty_returns_none(self):
        assert Sum().fold_values(None, []) is None

    def test_fold_single(self):
        assert Sum().fold_values(None, [4.0]) == 4.0

    def test_lower_or_default_none(self):
        assert Sum().lower_or_default(None) is None
        assert Count().lower_or_default(None) == 0


class TestRegistry:
    def test_registry_names_match_instances(self):
        registry = default_registry()
        assert registry["sum"].name == "sum"
        assert registry["median"].name == "median"
        assert registry["90-percentile"].name == "90-percentile"

    def test_registry_covers_figure13_catalogue(self):
        registry = default_registry()
        for name in ("sum", "sum w/o invert", "min", "max", "mincount",
                     "maxcount", "argmin", "argmax", "geomean", "stddev",
                     "median", "90-percentile", "m4", "avg", "count"):
            assert name in registry
