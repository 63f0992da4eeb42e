"""Tests for the extended aggregations (top-k, distinct, product)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregations import CountDistinct, Product, TopK


class TestTopK:
    def test_basic(self):
        fn = TopK(3)
        assert fn.lower(fn.fold_values(None, [5.0, 1.0, 9.0, 7.0, 3.0])) == [9.0, 7.0, 5.0]

    def test_fewer_values_than_k(self):
        fn = TopK(5)
        assert fn.lower(fn.fold_values(None, [2.0, 1.0])) == [2.0, 1.0]

    def test_duplicates_kept(self):
        fn = TopK(3)
        assert fn.lower(fn.fold_values(None, [4.0, 4.0, 4.0, 1.0])) == [4.0, 4.0, 4.0]

    def test_partial_size_bounded(self):
        fn = TopK(2)
        partial = fn.fold_values(None, [float(i) for i in range(100)])
        assert len(partial) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopK(0)

    def test_signature_includes_k(self):
        assert TopK(2).signature() != TopK(3).signature()
        assert TopK(2).signature() == TopK(2).signature()

    def test_empty_result(self):
        assert TopK(3).empty_result() == []

    @given(values=st.lists(st.integers(-100, 100).map(float), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_matches_sorted_reference(self, values):
        fn = TopK(4)
        assert fn.lower(fn.fold_values(None, values)) == sorted(values, reverse=True)[:4]


class TestCountDistinct:
    def test_basic(self):
        fn = CountDistinct()
        assert fn.lower(fn.fold_values(None, ["a", "b", "a", "c", "b"])) == 3

    def test_empty_result(self):
        assert CountDistinct().empty_result() == 0

    @given(values=st.lists(st.integers(0, 10), min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_matches_set_reference(self, values):
        fn = CountDistinct()
        assert fn.lower(fn.fold_values(None, values)) == len(set(values))

    @given(
        left=st.lists(st.integers(0, 5), max_size=20),
        right=st.lists(st.integers(0, 5), max_size=20),
    )
    @settings(max_examples=40)
    def test_combine_is_union(self, left, right):
        fn = CountDistinct()
        lp = fn.fold_values(None, left) if left else fn.identity()
        rp = fn.fold_values(None, right) if right else fn.identity()
        assert fn.lower(fn.combine(lp, rp)) == len(set(left) | set(right))


class TestProduct:
    def test_basic(self):
        fn = Product()
        assert fn.lower(fn.fold_values(None, [2.0, 3.0, 4.0])) == 24.0

    def test_zero_makes_product_zero(self):
        fn = Product()
        assert fn.lower(fn.fold_values(None, [2.0, 0.0, 4.0])) == 0.0

    def test_invert_regular_value(self):
        fn = Product()
        partial = fn.fold_values(None, [2.0, 3.0, 4.0])
        reduced = fn.invert(partial, fn.lift(4.0))
        assert fn.lower(reduced) == 6.0

    def test_invert_a_zero_recovers_product(self):
        fn = Product()
        partial = fn.fold_values(None, [2.0, 0.0, 4.0])
        reduced = fn.invert(partial, fn.lift(0.0))
        assert fn.lower(reduced) == 8.0

    def test_identity(self):
        fn = Product()
        assert fn.lower(fn.combine(fn.identity(), fn.lift(7.0))) == 7.0

    @given(values=st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=15))
    @settings(max_examples=40)
    def test_matches_direct_product(self, values):
        fn = Product()
        expected = 1.0
        for value in values:
            expected *= value
        assert fn.lower(fn.fold_values(None, values)) == pytest.approx(expected)


class TestInsideOperator:
    def test_topk_over_tumbling_windows(self):
        from repro import GeneralSlicingOperator, Record
        from repro.windows import TumblingWindow

        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), TopK(2))
        results = op.run([Record(t, float(t % 7)) for t in range(25)])
        assert results[0].value == [6.0, 5.0]

    def test_count_distinct_over_sessions(self):
        from repro import GeneralSlicingOperator, Record, Watermark
        from repro.windows import SessionWindow

        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(SessionWindow(5), CountDistinct())
        out = op.run(
            [Record(0, "x"), Record(1, "y"), Record(2, "x"), Watermark(100)]
        )
        assert out[-1].value == 2
