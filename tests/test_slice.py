"""Tests for the Slice data structure and its fundamental operations."""

import pytest

from repro.aggregations import M4, Max, Median, Min, Sum
from repro.core.slice_ import Slice
from repro.core.types import Record


def make_slice(start=0, end=100, store=True, functions=(Sum(),)):
    return Slice(start, end, len(functions), store_records=store)


class TestBasics:
    def test_initial_state(self):
        slice_ = make_slice()
        assert slice_.is_empty()
        assert slice_.aggs == [None]
        assert slice_.first_ts is None and slice_.last_ts is None

    def test_covers_half_open(self):
        slice_ = make_slice(10, 20)
        assert slice_.covers(10)
        assert slice_.covers(19)
        assert not slice_.covers(20)
        assert not slice_.covers(9)

    def test_open_slice_covers_everything_after_start(self):
        slice_ = Slice(10, None, 1, store_records=False)
        assert slice_.covers(10**9)

    def test_end_kind_default_time(self):
        assert make_slice().end_kind == Slice.END_TIME


class TestAddInorder:
    def test_incremental_aggregate(self):
        fn = Sum()
        slice_ = make_slice()
        for ts in range(5):
            slice_.add_inorder(Record(ts, 2.0), [fn])
        assert slice_.aggs[0] == 10.0
        assert slice_.record_count == 5
        assert (slice_.first_ts, slice_.last_ts) == (0, 4)

    def test_records_retained_when_requested(self):
        slice_ = make_slice(store=True)
        slice_.add_inorder(Record(1, 1.0), [Sum()])
        assert [r.ts for r in slice_.records] == [1]

    def test_records_dropped_when_not_needed(self):
        slice_ = make_slice(store=False)
        slice_.add_inorder(Record(1, 1.0), [Sum()])
        assert slice_.records is None
        assert slice_.record_count == 1

    def test_multiple_functions(self):
        functions = [Sum(), Min()]
        slice_ = Slice(0, 10, 2, store_records=False)
        slice_.add_inorder(Record(0, 5.0), functions)
        slice_.add_inorder(Record(1, 3.0), functions)
        assert slice_.aggs == [8.0, 3.0]


class TestAddOutOfOrder:
    def test_commutative_incremental_update(self):
        fn = Sum()
        slice_ = make_slice()
        slice_.add_inorder(Record(5, 1.0), [fn])
        slice_.add_out_of_order(Record(2, 2.0), [fn])
        assert slice_.aggs[0] == 3.0
        assert slice_.first_ts == 2

    def test_records_kept_sorted(self):
        slice_ = make_slice()
        fn = Sum()
        for ts in (5, 2, 8, 3):
            if ts == 5:
                slice_.add_inorder(Record(ts, 1.0), [fn])
            else:
                slice_.add_out_of_order(Record(ts, 1.0), [fn])
        assert [r.ts for r in slice_.records] == [2, 3, 5, 8]

    def test_noncommutative_recomputes_in_ts_order(self):
        fn = M4()
        slice_ = make_slice(functions=(fn,))
        slice_.add_inorder(Record(5, 50.0), [fn])
        slice_.add_inorder(Record(9, 90.0), [fn])
        slice_.add_out_of_order(Record(2, 20.0), [fn])
        # first must be the ts=2 value, last the ts=9 value.
        assert fn.lower(slice_.aggs[0]) == (20.0, 90.0, 20.0, 90.0)


class TestRecompute:
    def test_recompute_from_records(self):
        fn = Sum()
        slice_ = make_slice()
        for ts in range(4):
            slice_.add_inorder(Record(ts, 1.0), [fn])
        slice_.aggs[0] = 999.0
        slice_.recompute([fn])
        assert slice_.aggs[0] == 4.0

    def test_recompute_without_records_raises(self):
        slice_ = make_slice(store=False)
        with pytest.raises(ValueError):
            slice_.recompute([Sum()])


class TestRemoveLast:
    def test_invertible_removal(self):
        fn = Sum()
        slice_ = make_slice()
        for ts in range(3):
            slice_.add_inorder(Record(ts, float(ts)), [fn])
        removed = slice_.remove_last_record([fn])
        assert removed.ts == 2
        assert slice_.aggs[0] == 1.0
        assert slice_.last_ts == 1

    def test_min_removal_skips_recompute_when_unaffected(self):
        fn = Min()
        slice_ = make_slice(functions=(fn,))
        slice_.add_inorder(Record(0, 1.0), [fn])
        slice_.add_inorder(Record(1, 9.0), [fn])
        slice_.remove_last_record([fn])
        assert slice_.aggs[0] == 1.0

    def test_max_removal_recomputes_when_affected(self):
        fn = Max()
        slice_ = make_slice(functions=(fn,))
        slice_.add_inorder(Record(0, 1.0), [fn])
        slice_.add_inorder(Record(1, 9.0), [fn])
        slice_.remove_last_record([fn])
        assert slice_.aggs[0] == 1.0

    def test_removing_only_record_empties_aggregate(self):
        fn = Sum()
        slice_ = make_slice()
        slice_.add_inorder(Record(0, 5.0), [fn])
        slice_.remove_last_record([fn])
        assert slice_.aggs == [None]
        assert slice_.is_empty()
        assert slice_.first_ts is None

    def test_remove_without_records_raises(self):
        slice_ = make_slice(store=False)
        slice_.add_inorder(Record(0, 1.0), [Sum()])
        with pytest.raises(ValueError):
            slice_.remove_last_record([Sum()])


class TestPrepend:
    def test_prepend_preserves_order_for_noncommutative(self):
        fn = M4()
        slice_ = make_slice(functions=(fn,))
        slice_.add_inorder(Record(5, 50.0), [fn])
        slice_.prepend_record(Record(1, 10.0), [fn])
        assert fn.lower(slice_.aggs[0]) == (10.0, 50.0, 10.0, 50.0)
        assert [r.ts for r in slice_.records] == [1, 5]
        assert slice_.first_ts == 1


class TestMerge:
    def test_merge_combines_aggs_and_metadata(self):
        fn = Sum()
        left = make_slice(0, 10)
        right = make_slice(10, 20)
        left.add_inorder(Record(1, 1.0), [fn])
        right.add_inorder(Record(11, 2.0), [fn])
        left.merge_from(right, [fn])
        assert left.end == 20
        assert left.aggs[0] == 3.0
        assert left.record_count == 2
        assert (left.first_ts, left.last_ts) == (1, 11)
        assert [r.ts for r in left.records] == [1, 11]

    def test_merge_with_empty_right(self):
        fn = Sum()
        left = make_slice(0, 10)
        left.add_inorder(Record(1, 1.0), [fn])
        right = make_slice(10, 20)
        left.merge_from(right, [fn])
        assert left.aggs[0] == 1.0
        assert left.last_ts == 1

    def test_merge_into_empty_left(self):
        fn = Sum()
        left = make_slice(0, 10)
        right = make_slice(10, 20)
        right.add_inorder(Record(12, 2.0), [fn])
        left.merge_from(right, [fn])
        assert left.aggs[0] == 2.0
        assert left.first_ts == 12

    @pytest.mark.parametrize("kept", ["left", "right"])
    def test_merge_with_a_record_less_slice_leaves_no_half_filled_list(self, kept):
        fn = Sum()
        left = Slice(0, 10, 1, store_records=kept == "left")
        right = Slice(10, 20, 1, store_records=kept == "right")
        for ts in (1, 2, 3):
            left.add_inorder(Record(ts, 1.0), [fn])
            right.add_inorder(Record(10 + ts, 2.0), [fn])
        left.merge_from(right, [fn])
        assert (left.record_count, left.aggs[0]) == (6, 9.0)
        # Three records of six would fold to a wrong aggregate in silence.
        assert left.records is None
        with pytest.raises(ValueError, match="does not retain records"):
            left.split_at(5, [fn])
        with pytest.raises(ValueError, match="does not retain records"):
            left.recompute([fn])

    def test_merge_rejects_preceding_slice(self):
        left = make_slice(10, 20)
        right = make_slice(0, 10)
        with pytest.raises(ValueError):
            left.merge_from(right, [Sum()])


class TestSplit:
    def _filled(self, fn, n=10):
        slice_ = Slice(0, 100, 1, store_records=True)
        for index in range(n):
            slice_.add_inorder(Record(index * 10, float(index)), [fn])
        return slice_

    def test_split_at_partitions_records(self):
        fn = Sum()
        slice_ = self._filled(fn)
        right = slice_.split_at(50, [fn])
        assert slice_.end == 50 and right.start == 50
        assert [r.ts for r in slice_.records] == [0, 10, 20, 30, 40]
        assert [r.ts for r in right.records] == [50, 60, 70, 80, 90]
        assert slice_.aggs[0] == 0 + 1 + 2 + 3 + 4
        assert right.aggs[0] == 5 + 6 + 7 + 8 + 9

    def test_split_boundary_belongs_to_right(self):
        fn = Sum()
        slice_ = self._filled(fn, 3)  # ts 0, 10, 20
        right = slice_.split_at(10, [fn])
        assert [r.ts for r in slice_.records] == [0]
        assert [r.ts for r in right.records] == [10, 20]

    def test_split_requires_records(self):
        slice_ = Slice(0, 100, 1, store_records=False)
        with pytest.raises(ValueError):
            slice_.split_at(50, [Sum()])

    def test_split_point_outside_raises(self):
        fn = Sum()
        slice_ = self._filled(fn)
        with pytest.raises(ValueError):
            slice_.split_at(0, [fn])
        with pytest.raises(ValueError):
            slice_.split_at(100, [fn])

    def test_split_at_count(self):
        fn = Sum()
        slice_ = self._filled(fn)
        right = slice_.split_at_count(3, [fn])
        assert slice_.record_count == 3
        assert right.record_count == 7
        assert slice_.end == right.start == 30
        assert slice_.end_kind == Slice.END_COUNT

    def test_split_holistic_recomputes(self):
        fn = Median()
        slice_ = Slice(0, 100, 1, store_records=True)
        for index in range(9):
            slice_.add_inorder(Record(index, float(index)), [fn])
        right = slice_.split_at(5, [fn])
        assert fn.lower(slice_.aggs[0]) == 2.0
        assert fn.lower(right.aggs[0]) == 7.0


class TestSplitEmpty:
    def test_split_empty_right_side(self):
        fn = Sum()
        slice_ = Slice(0, 100, 1, store_records=False)
        slice_.add_inorder(Record(70, 7.0), [fn])
        right = slice_.split_empty_at(50, [fn])
        assert slice_.is_empty() and slice_.aggs == [None]
        assert right.aggs[0] == 7.0
        assert right.first_ts == 70
        assert slice_.end == 50 and right.start == 50

    def test_split_empty_left_side(self):
        fn = Sum()
        slice_ = Slice(0, 100, 1, store_records=False)
        slice_.add_inorder(Record(20, 2.0), [fn])
        right = slice_.split_empty_at(50, [fn])
        assert slice_.aggs[0] == 2.0
        assert right.is_empty()

    def test_split_empty_straddling_records_raises(self):
        fn = Sum()
        slice_ = Slice(0, 100, 1, store_records=False)
        slice_.add_inorder(Record(20, 1.0), [fn])
        slice_.add_inorder(Record(80, 1.0), [fn])
        with pytest.raises(ValueError):
            slice_.split_empty_at(50, [fn])

    def test_split_empty_on_empty_slice(self):
        slice_ = Slice(0, 100, 1, store_records=False)
        right = slice_.split_empty_at(50, [Sum()])
        assert slice_.is_empty() and right.is_empty()

    def test_split_empty_keeps_record_lists(self):
        fn = Sum()
        slice_ = Slice(0, 100, 1, store_records=True)
        slice_.add_inorder(Record(70, 7.0), [fn])
        right = slice_.split_empty_at(50, [fn])
        assert slice_.records == []
        assert [r.ts for r in right.records] == [70]
