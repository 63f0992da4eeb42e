"""Tests for the slice manager (Step 2): merge / split / update logic."""

import pytest

from conftest import add_late
from repro.aggregations import M4, Min, Sum
from repro.core.aggregate_store import EagerAggregateStore, LazyAggregateStore
from repro.core.slice_ import Slice
from repro.core.slice_manager import SliceManager
from repro.core.types import Record


def build_store(boundaries, fn=None, store_records=False, counts=None, cls=LazyAggregateStore):
    """Store with slices between consecutive boundaries."""
    fn = fn if fn is not None else Sum()
    store = cls([fn])
    for index in range(len(boundaries) - 1):
        slice_ = Slice(boundaries[index], boundaries[index + 1], 1, store_records=store_records)
        if counts is not None:
            slice_.count_start = counts[index]
            slice_.count_end = counts[index + 1]
        store.append_slice(slice_)
    return store


class TestAddInorder:
    def test_updates_head(self):
        store = build_store([0, 10])
        store.slices[-1].end = None
        manager = SliceManager(store)
        manager.add_inorder(Record(5, 2.0), store.head)
        assert store.head.aggs[0] == 2.0


class TestOutOfOrderRouting:
    def test_routes_to_covering_slice(self):
        store = build_store([0, 10, 20, 30])
        manager = SliceManager(store)
        add_late(manager, Record(15, 3.0))
        assert store.slices[1].aggs[0] == 3.0
        assert store.slices[0].is_empty()

    def test_gap_slice_created(self):
        store = build_store([0, 10])
        late = Slice(30, 40, 1, store_records=False)
        store.append_slice(late)
        manager = SliceManager(store)
        add_late(manager, Record(15, 5.0))
        assert [s.start for s in store] == [0, 10, 30]
        gap = store.slices[1]
        assert gap.start == 10 and gap.end == 30
        assert gap.aggs[0] == 5.0

    def test_gap_slice_respects_window_edges(self):
        store = build_store([0, 10])
        late = Slice(40, 50, 1, store_records=False)
        store.append_slice(late)
        manager = SliceManager(
            store,
            floor_time_edge=lambda ts: (ts // 10) * 10,
            ceil_time_edge=lambda ts: (ts // 10 + 1) * 10,
        )
        add_late(manager, Record(25, 5.0))
        gap = store.slices[1]
        assert (gap.start, gap.end) == (20, 30)

    def test_noncommutative_recompute_on_insert(self):
        fn = M4()
        store = build_store([0, 100], fn=fn, store_records=True)
        manager = SliceManager(store, store_records=True)
        store.slices[0].add_inorder(Record(50, 5.0), [fn])
        add_late(manager, Record(10, 1.0))
        assert fn.lower(store.slices[0].aggs[0]) == (1.0, 5.0, 1.0, 5.0)


class TestSessionPlacement:
    def _manager(self, store, gap=5, edge_region=None):
        return SliceManager(
            store,
            session_gap=gap,
            edge_in_region=edge_region if edge_region else (lambda lo, hi: False),
        )

    def test_within_activity_joins_session(self):
        fn = Sum()
        store = build_store([0, 100], fn=fn)
        store.slices[0].add_inorder(Record(10, 1.0), [fn])
        store.slices[0].add_inorder(Record(20, 1.0), [fn])
        manager = self._manager(store)
        add_late(manager, Record(15, 1.0))
        assert len(store) == 1
        assert store.slices[0].aggs[0] == 3.0

    def test_new_session_after_existing_records_splits(self):
        fn = Sum()
        store = build_store([0, 100], fn=fn)
        store.slices[0].add_inorder(Record(10, 1.0), [fn])
        manager = self._manager(store, gap=5)
        add_late(manager, Record(50, 2.0))
        assert len(store) == 2
        left, right = store.slices
        assert left.end == 15  # split at last_ts + gap
        assert left.aggs[0] == 1.0
        assert right.aggs[0] == 2.0

    def test_new_session_before_existing_records_splits(self):
        fn = Sum()
        store = build_store([0, 100], fn=fn)
        store.slices[0].add_inorder(Record(80, 1.0), [fn])
        manager = self._manager(store, gap=5)
        add_late(manager, Record(10, 2.0))
        assert len(store) == 2
        left, right = store.slices
        assert left.end == 15  # split at record.ts + gap
        assert left.aggs[0] == 2.0
        assert right.aggs[0] == 1.0

    def test_extension_within_gap_no_split(self):
        fn = Sum()
        store = build_store([0, 100], fn=fn)
        store.slices[0].add_inorder(Record(10, 1.0), [fn])
        manager = self._manager(store, gap=5)
        add_late(manager, Record(13, 2.0))
        assert len(store) == 1
        assert store.slices[0].aggs[0] == 3.0

    def test_bridging_merges_adjacent_session_slices(self):
        fn = Sum()
        store = build_store([0, 15, 100], fn=fn)
        store.slices[0].add_inorder(Record(10, 1.0), [fn])
        store.slices[1].add_inorder(Record(18, 1.0), [fn])
        manager = self._manager(store, gap=5)
        # A record at 14 closes both gaps (14-10 < 5 and 18-14 < 5), so the
        # droppable boundary at 15 disappears.
        add_late(manager, Record(14, 1.0))
        assert len(store) == 1
        assert store.slices[0].aggs[0] == 3.0

    def test_bridge_respects_needed_edges(self):
        fn = Sum()
        store = build_store([0, 15, 100], fn=fn)
        store.slices[0].add_inorder(Record(14, 1.0), [fn])
        store.slices[1].add_inorder(Record(16, 1.0), [fn])
        manager = self._manager(
            store, gap=5, edge_region=lambda lo, hi: lo <= 15 <= hi
        )
        add_late(manager, Record(15, 1.0))
        assert len(store) == 2  # boundary kept: another window needs it


class TestSplitTime:
    def test_split_with_records(self):
        fn = Sum()
        store = build_store([0, 100], fn=fn, store_records=True)
        for ts in (10, 20, 30, 40):
            store.slices[0].add_inorder(Record(ts, 1.0), [fn])
        manager = SliceManager(store, store_records=True)
        assert manager.split_time(25)
        assert [s.start for s in store] == [0, 25]
        assert store.slices[0].aggs[0] == 2.0
        assert store.slices[1].aggs[0] == 2.0

    def test_split_at_existing_boundary_is_noop(self):
        store = build_store([0, 10, 20])
        manager = SliceManager(store)
        assert not manager.split_time(10)
        assert len(store) == 2

    def test_split_in_gap_is_noop(self):
        store = build_store([0, 10])
        late = Slice(30, 40, 1, store_records=False)
        store.append_slice(late)
        manager = SliceManager(store)
        assert not manager.split_time(20)

    def test_split_record_free_point_without_records(self):
        fn = Sum()
        store = build_store([0, 100], fn=fn, store_records=False)
        store.slices[0].add_inorder(Record(80, 8.0), [fn])
        manager = SliceManager(store)
        assert manager.split_time(50)
        left, right = store.slices
        assert left.is_empty()
        assert right.aggs[0] == 8.0


class TestCountCascade:
    def _count_workload(self, fn=None, slice_count=3, per_slice=2):
        fn = fn if fn is not None else Sum()
        store = LazyAggregateStore([fn])
        for index in range(slice_count):
            end = (index + 1) * 10 if index < slice_count - 1 else None
            slice_ = Slice(index * 10, end, 1, store_records=True)
            slice_.count_start = index * per_slice
            slice_.count_end = None if end is None else (index + 1) * per_slice
            if end is not None:
                slice_.end_kind = Slice.END_COUNT
            for position in range(per_slice):
                ts = index * 10 + position * 2
                slice_.add_inorder(Record(ts, float(ts)), [fn])
            store.append_slice(slice_)
        manager = SliceManager(store, store_records=True, track_counts=True)
        return store, manager, fn

    def test_insert_shifts_records_across_count_edges(self):
        store, manager, fn = self._count_workload()
        # Records: slice0 ts 0,2; slice1 ts 10,12; slice2 (open) ts 20,22.
        add_late(manager, Record(1, 1.0))
        s0, s1, s2 = store.slices
        assert [r.ts for r in s0.records] == [0, 1]
        assert [r.ts for r in s1.records] == [2, 10]
        assert [r.ts for r in s2.records] == [12, 20, 22]
        assert s0.aggs[0] == 0.0 + 1.0
        assert s1.aggs[0] == 2.0 + 10.0
        assert s2.aggs[0] == 12.0 + 20.0 + 22.0

    def test_count_boundaries_stay_fixed(self):
        store, manager, _ = self._count_workload()
        add_late(manager, Record(1, 1.0))
        assert (store.slices[0].count_start, store.slices[0].count_end) == (0, 2)
        assert (store.slices[1].count_start, store.slices[1].count_end) == (2, 4)

    def test_insert_into_open_head_no_shift(self):
        store, manager, _ = self._count_workload()
        add_late(manager, Record(21, 21.0))
        assert [r.ts for r in store.slices[0].records] == [0, 2]
        assert [r.ts for r in store.slices[2].records] == [20, 21, 22]

    def test_modification_reports_count_position(self):
        store, manager, _ = self._count_workload()
        # Records 0, 2 precede ts=5: zero-based position 2.
        assert add_late(manager, Record(5, 5.0)) == 2

    def test_noninvertible_shift_recomputes_correctly(self):
        store, manager, fn = self._count_workload(fn=Min())
        add_late(manager, Record(1, 1.0))
        # slice1 now holds ts 2 (value 2.0) and ts 10 (10.0): min is 2.0.
        assert store.slices[1].aggs[0] == 2.0


class TestEnsureCountBoundary:
    def test_splits_closed_slice_at_count(self):
        fn = Sum()
        store = LazyAggregateStore([fn])
        slice_ = Slice(0, 100, 1, store_records=True)
        slice_.count_start = 0
        slice_.count_end = 4
        for position in range(4):
            slice_.add_inorder(Record(position * 10, float(position)), [fn])
        store.append_slice(slice_)
        manager = SliceManager(store, store_records=True, track_counts=True)
        assert manager.ensure_count_boundary(2)
        assert len(store) == 2
        assert store.slices[0].record_count == 2
        assert store.slices[1].count_start == 2

    def test_existing_boundary_noop(self):
        fn = Sum()
        store = LazyAggregateStore([fn])
        slice_ = Slice(0, 100, 1, store_records=True)
        slice_.count_start = 0
        store.append_slice(slice_)
        manager = SliceManager(store, track_counts=True)
        assert not manager.ensure_count_boundary(0)


class TestEagerStoreIntegration:
    def test_ooo_update_refreshes_tree(self):
        fn = Sum()
        store = build_store([0, 10, 20, 30], fn=fn, cls=EagerAggregateStore)
        manager = SliceManager(store)
        add_late(manager, Record(15, 7.0))
        assert store.query_slices(0, 3, 0) == 7.0


class TestMergeBoundary:
    def test_merges_adjacent_slices(self):
        fn = Sum()
        store = build_store([0, 10, 20], fn=fn)
        store.slices[0].add_inorder(Record(5, 1.0), [fn])
        store.slices[1].add_inorder(Record(15, 2.0), [fn])
        manager = SliceManager(store)
        assert manager.merge_boundary(10)
        assert len(store) == 1
        assert store.slices[0].aggs[0] == 3.0
        assert (store.slices[0].start, store.slices[0].end) == (0, 20)

    def test_refuses_needed_edge(self):
        store = build_store([0, 10, 20])
        manager = SliceManager(store, edge_in_region=lambda lo, hi: lo <= 10 <= hi)
        assert not manager.merge_boundary(10)
        assert len(store) == 2

    def test_refuses_count_pinned_boundary(self):
        store = build_store([0, 10, 20])
        store.slices[0].end_kind = Slice.END_COUNT
        manager = SliceManager(store)
        assert not manager.merge_boundary(10)

    def test_missing_boundary_is_noop(self):
        store = build_store([0, 10, 20])
        manager = SliceManager(store)
        assert not manager.merge_boundary(5)
        assert not manager.merge_boundary(20)


class TestEmitEmptyOperatorLevel:
    def test_operator_emits_empty_windows_when_enabled(self):
        from repro import GeneralSlicingOperator
        from repro.windows import TumblingWindow
        from repro.aggregations import Count

        operator = GeneralSlicingOperator(stream_in_order=True, emit_empty=True)
        operator.add_query(TumblingWindow(10), Count())
        results = operator.run([Record(5, 1.0), Record(35, 1.0)])
        spans = {(r.start, r.end): r.value for r in results}
        assert spans[(0, 10)] == 1
        assert spans[(10, 20)] == 0
        assert spans[(20, 30)] == 0
