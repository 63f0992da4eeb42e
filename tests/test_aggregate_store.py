"""Tests for the lazy and eager aggregate stores."""

import pytest

from repro.aggregations import M4, CollectList, Median, Sum
from repro.core.aggregate_store import (
    EagerAggregateStore,
    LazyAggregateStore,
    SharedQueryPlan,
)
from repro.core.slice_ import Slice
from repro.core.types import Record


def filled_store(cls, n=10, fn=None, width=10):
    fn = fn if fn is not None else Sum()
    store = cls([fn])
    for index in range(n):
        slice_ = Slice(index * width, (index + 1) * width, 1, store_records=False)
        slice_.add_inorder(Record(index * width + 1, float(index)), [fn])
        store.append_slice(slice_)
    return store, fn


class TestStructure:
    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_append_and_len(self, cls):
        store, _ = filled_store(cls, 5)
        assert len(store) == 5
        assert store.head.start == 40

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_find_index(self, cls):
        store, _ = filled_store(cls, 5)
        assert store.find_index(0) == 0
        assert store.find_index(15) == 1
        assert store.find_index(49) == 4
        assert store.find_index(50) is None

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_find_index_in_gap(self, cls):
        fn = Sum()
        store = cls([fn])
        a = Slice(0, 10, 1, store_records=False)
        b = Slice(20, 30, 1, store_records=False)
        store.append_slice(a)
        store.append_slice(b)
        assert store.find_index(15) is None
        assert store.find_index(25) == 1

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_neighbors(self, cls):
        fn = Sum()
        store = cls([fn])
        store.append_slice(Slice(0, 10, 1, store_records=False))
        store.append_slice(Slice(20, 30, 1, store_records=False))
        before, after = store.neighbors(15)
        assert before == 0 and after == 1
        before, after = store.neighbors(35)
        assert before == 1 and after is None

    def test_append_overlapping_rejected(self):
        store, _ = filled_store(LazyAggregateStore, 2)
        with pytest.raises(ValueError):
            store.append_slice(Slice(15, 25, 1, store_records=False))

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_insert_and_remove(self, cls):
        fn = Sum()
        store = cls([fn])
        store.append_slice(Slice(0, 10, 1, store_records=False))
        store.append_slice(Slice(20, 30, 1, store_records=False))
        gap = Slice(10, 20, 1, store_records=False)
        gap.add_inorder(Record(15, 5.0), [fn])
        store.insert_slice(1, gap)
        assert [s.start for s in store] == [0, 10, 20]
        assert store.query_time(0, 30, 0) == 5.0
        removed = store.remove_slice(1)
        assert removed is gap
        assert store.query_time(0, 30, 0) is None


class TestQueries:
    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_query_time_full(self, cls):
        store, _ = filled_store(cls, 10)
        assert store.query_time(0, 100, 0) == sum(range(10))

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_query_time_subrange(self, cls):
        store, _ = filled_store(cls, 10)
        assert store.query_time(20, 50, 0) == 2 + 3 + 4

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_query_empty_range(self, cls):
        store, _ = filled_store(cls, 10)
        assert store.query_time(20, 20, 0) is None

    def test_lazy_and_eager_agree_on_all_ranges(self):
        lazy, _ = filled_store(LazyAggregateStore, 13)
        eager, _ = filled_store(EagerAggregateStore, 13)
        for lo in range(13):
            for hi in range(lo, 14):
                assert lazy.query_slices(lo, hi, 0) == eager.query_slices(lo, hi, 0)

    def test_noncommutative_order_preserved_in_eager(self):
        fn = M4()
        store = EagerAggregateStore([fn])
        for index in range(6):
            slice_ = Slice(index * 10, (index + 1) * 10, 1, store_records=False)
            slice_.add_inorder(Record(index * 10, float(index)), [fn])
            store.append_slice(slice_)
        partial = store.query_slices(1, 5, 0)
        assert fn.lower(partial) == (1.0, 4.0, 1.0, 4.0)

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_slice_updated_refreshes_eager_tree(self, cls):
        store, fn = filled_store(cls, 4)
        store.slices[1].add_inorder(Record(19, 100.0), [fn])
        store.slice_updated(1)
        assert store.query_time(0, 40, 0) == 0 + 1 + 2 + 3 + 100.0


class CountingMedian(Median):
    """Counts how the store asks for combines."""

    def __init__(self):
        super().__init__()
        self.pairwise = 0
        self.bulk = []  # number of partials handed to each combine_all

    def combine(self, left, right):
        self.pairwise += 1
        return super().combine(left, right)

    def combine_all(self, partials):
        self.bulk.append(len(partials))
        return super().combine_all(partials)


class TestBulkCombine:
    """A range fold is one ``combine_all``, not a chain of ``combine``s."""

    def test_one_hundred_slice_window_is_one_bulk_combine(self):
        store, fn = filled_store(LazyAggregateStore, 100, fn=CountingMedian())
        assert (fn.pairwise, fn.bulk) == (0, [])  # one record per slice: lifts only
        partial = store.query_time(0, 1000, 0)
        assert (fn.pairwise, fn.bulk) == (0, [100])
        assert partial.total == 100 and fn.lower(partial) == 50.0

    def test_five_nested_windows_cost_five_bulk_combines(self):
        """2, 4, 6, 8 and 10 slices ending at the same slice: the plan
        folds the shortest, then per wider window its two extra slices
        plus the cached suffix -- five calls, never a pairwise merge."""
        store, fn = filled_store(LazyAggregateStore, 10, fn=CountingMedian())
        plan = SharedQueryPlan(store)
        tokens = [plan.request(10 - width, 10, 0) for width in (10, 2, 6, 4, 8)]
        plan.execute()
        assert fn.pairwise == 0
        assert fn.bulk == [2, 3, 3, 3, 3]
        for token, width in zip(tokens, (10, 2, 6, 4, 8)):
            assert plan.result(token) == store.query_slices(10 - width, 10, 0)
            assert plan.result(token).total == width

    def test_empty_slices_are_skipped_and_empty_ranges_are_none(self):
        fn = CountingMedian()
        store = LazyAggregateStore([fn])
        for index in range(4):
            slice_ = Slice(index * 10, (index + 1) * 10, 1, store_records=False)
            if index % 2:
                slice_.add_inorder(Record(index * 10, float(index)), [fn])
            store.append_slice(slice_)
        assert store.query_slices(0, 1, 0) is None
        assert store.query_slices(0, 4, 0).runs == [(1.0, 1), (3.0, 1)]
        assert fn.bulk == [0, 2]
        plan = SharedQueryPlan(store)
        outer, inner = plan.request(0, 4, 0), plan.request(2, 4, 0)
        plan.execute()
        assert plan.result(inner).runs == [(3.0, 1)]
        assert plan.result(outer).runs == [(1.0, 1), (3.0, 1)]

    def test_plan_keeps_stream_order_for_noncommutative_functions(self):
        store, fn = filled_store(LazyAggregateStore, 8, fn=CollectList())
        plan = SharedQueryPlan(store)
        tokens = [plan.request(lo, 8, 0) for lo in (5, 0, 3)]
        plan.execute()
        assert [fn.lower(plan.result(t)) for t in tokens] == [
            [5.0, 6.0, 7.0],
            [float(i) for i in range(8)],
            [3.0, 4.0, 5.0, 6.0, 7.0],
        ]


class TestCountQueries:
    def _count_store(self, cls):
        fn = Sum()
        store = cls([fn])
        for index in range(5):
            slice_ = Slice(index * 10, (index + 1) * 10, 1, store_records=True)
            slice_.count_start = index * 2
            slice_.count_end = index * 2 + 2
            for position in range(2):
                slice_.add_inorder(
                    Record(index * 10 + position, float(index * 2 + position)), [fn]
                )
            store.append_slice(slice_)
        return store

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_query_count(self, cls):
        store = self._count_store(cls)
        assert store.query_count(0, 10, 0) == sum(range(10))
        assert store.query_count(2, 6, 0) == 2 + 3 + 4 + 5

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_count_range_indices(self, cls):
        store = self._count_store(cls)
        assert store.count_range_indices(2, 8) == (1, 4)


class TestEviction:
    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_evict_before(self, cls):
        store, _ = filled_store(cls, 10)
        evicted = store.evict_before(35)
        assert evicted == 3
        assert len(store) == 7
        assert store.slices[0].start == 30
        assert store.query_time(30, 100, 0) == sum(range(3, 10))

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_evict_spares_open_slice(self, cls):
        fn = Sum()
        store = cls([fn])
        open_slice = Slice(0, None, 1, store_records=False)
        store.append_slice(open_slice)
        assert store.evict_before(10**9) == 0
        assert len(store) == 1

    @pytest.mark.parametrize("cls", [LazyAggregateStore, EagerAggregateStore])
    def test_evict_nothing(self, cls):
        store, _ = filled_store(cls, 3)
        assert store.evict_before(-1) == 0
        assert len(store) == 3

    def test_total_records(self):
        store, _ = filled_store(LazyAggregateStore, 4)
        assert store.total_records() == 4
