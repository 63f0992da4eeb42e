"""Tests for memory accounting and the Table 1 models."""

import sys

import pytest

from repro.runtime.memory import TABLE1_ROWS, deep_sizeof, memory_model


class TestDeepSizeof:
    def test_atomic_values(self):
        assert deep_sizeof(1) > 0
        assert deep_sizeof("hello") > deep_sizeof("")

    def test_list_includes_elements(self):
        empty = deep_sizeof([])
        filled = deep_sizeof([10**10, 2 * 10**10])
        assert filled > empty

    def test_nested_containers(self):
        flat = deep_sizeof([1, 2, 3])
        nested = deep_sizeof([[1, 2, 3], [4, 5, 6]])
        assert nested > flat

    def test_dict_counts_keys_and_values(self):
        assert deep_sizeof({"key": "value"}) > deep_sizeof({})

    def test_shared_references_counted_once(self):
        shared = list(range(1000))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof(shared)

    def test_cycles_terminate(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_slots_objects(self):
        from repro.core.types import Record

        small = deep_sizeof(Record(1, 1.0))
        large = deep_sizeof(Record(1, tuple(range(100))))
        assert large > small

    def test_a_slotted_subclass_counts_the_slots_of_its_base(self):
        """``LazyAggregateStore`` declares no slot of its own; its slices
        sit in a slot of ``AggregateStore``."""

        class Base:
            __slots__ = ("payload",)

        class Derived(Base):
            __slots__ = ()

        payload = list(range(100))
        derived = Derived()
        derived.payload = payload
        assert deep_sizeof(derived) == sys.getsizeof(derived) + deep_sizeof(payload)

    def test_dict_backed_objects(self):
        class Thing:
            def __init__(self):
                self.payload = list(range(100))

        assert deep_sizeof(Thing()) > deep_sizeof(list(range(100)))


class TestMemoryModels:
    def test_all_rows_defined(self):
        assert set(TABLE1_ROWS) == set(range(1, 9))

    def test_tuple_buffer_scales_with_tuples(self):
        small = memory_model(1, num_tuples=100, num_slices=10, num_windows=10)
        large = memory_model(1, num_tuples=10_000, num_slices=10, num_windows=10)
        assert large == 100 * small

    def test_lazy_slicing_scales_with_slices_only(self):
        base = memory_model(5, num_tuples=100, num_slices=10, num_windows=10)
        more_tuples = memory_model(5, num_tuples=10_000, num_slices=10, num_windows=10)
        more_slices = memory_model(5, num_tuples=100, num_slices=100, num_windows=10)
        assert base == more_tuples
        assert more_slices == 10 * base

    def test_buckets_scale_with_windows(self):
        base = memory_model(3, num_tuples=100, num_slices=10, num_windows=10)
        more = memory_model(3, num_tuples=100, num_slices=10, num_windows=100)
        assert more == 10 * base

    def test_eager_adds_tree_overhead(self):
        lazy = memory_model(5, num_tuples=100, num_slices=50, num_windows=10)
        eager = memory_model(6, num_tuples=100, num_slices=50, num_windows=10)
        assert eager > lazy

    def test_tuple_variants_add_tuple_cost(self):
        aggregate_only = memory_model(5, num_tuples=1000, num_slices=50, num_windows=10)
        with_tuples = memory_model(7, num_tuples=1000, num_slices=50, num_windows=10)
        assert with_tuples > aggregate_only

    def test_tuple_buckets_duplicate_overlapping_tuples(self):
        # With overlap, avg tuples per window times windows > tuples.
        model = memory_model(
            4,
            num_tuples=1000,
            num_slices=50,
            num_windows=10,
            avg_tuples_per_window=500,
        )
        buffer = memory_model(1, num_tuples=1000, num_slices=50, num_windows=10)
        assert model > buffer

    def test_unknown_row_rejected(self):
        with pytest.raises(ValueError):
            memory_model(9, num_tuples=1, num_slices=1, num_windows=1)

    def test_ordering_matches_table1_for_typical_workload(self):
        """Paper shape: slicing <= buckets <= buffers <= trees (time windows)."""
        kwargs = dict(num_tuples=50_000, num_slices=500, num_windows=500)
        lazy = memory_model(5, **kwargs)
        buckets = memory_model(3, **kwargs)
        buffer = memory_model(1, **kwargs)
        tree = memory_model(2, **kwargs)
        assert lazy < buckets < buffer < tree


class TestMeasuredFootprints:
    def test_slicing_memory_independent_of_tuple_rate(self):
        """Figure 10b shape: slicing memory stays flat as tuples grow."""
        from repro.experiments.figures import fill_operator

        small = fill_operator("Lazy Slicing", "time", 50, 1_000, 1_000_000)
        large = fill_operator("Lazy Slicing", "time", 50, 5_000, 1_000_000)
        small_bytes = sum(deep_sizeof(o) for o in small.state_objects())
        large_bytes = sum(deep_sizeof(o) for o in large.state_objects())
        assert large_bytes < small_bytes * 1.5

    def test_tuple_buffer_memory_grows_with_tuples(self):
        from repro.experiments.figures import fill_operator

        small = fill_operator("Tuple Buffer", "time", 50, 1_000, 1_000_000)
        large = fill_operator("Tuple Buffer", "time", 50, 5_000, 1_000_000)
        small_bytes = sum(deep_sizeof(o) for o in small.state_objects())
        large_bytes = sum(deep_sizeof(o) for o in large.state_objects())
        assert large_bytes > small_bytes * 3
