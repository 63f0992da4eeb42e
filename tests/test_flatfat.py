"""Tests for the FlatFAT aggregate tree."""

import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flatfat import FlatFAT
from repro.core.tracing import Tracer


def naive_range(leaves, lo, hi):
    slice_ = [x for x in leaves[lo:hi] if x is not None]
    if not slice_:
        return None
    total = slice_[0]
    for value in slice_[1:]:
        total = total + value
    return total


class TestConstruction:
    def test_empty(self):
        tree = FlatFAT(operator.add)
        assert len(tree) == 0
        assert tree.root() is None

    def test_from_leaves(self):
        tree = FlatFAT(operator.add, [1, 2, 3])
        assert len(tree) == 3
        assert tree.root() == 6

    def test_capacity_is_power_of_two(self):
        tree = FlatFAT(operator.add, [1, 2, 3, 4, 5])
        assert tree.capacity == 8

    def test_leaves_roundtrip(self):
        tree = FlatFAT(operator.add, [4, 5, 6])
        assert tree.leaves() == [4, 5, 6]


class TestUpdate:
    def test_point_update(self):
        tree = FlatFAT(operator.add, [1, 2, 3, 4])
        tree.update(2, 30)
        assert tree.root() == 37
        assert tree.leaf(2) == 30

    def test_update_to_none(self):
        tree = FlatFAT(operator.add, [1, 2, 3])
        tree.update(1, None)
        assert tree.root() == 4

    def test_update_out_of_range(self):
        tree = FlatFAT(operator.add, [1])
        with pytest.raises(IndexError):
            tree.update(1, 5)


class TestAppend:
    def test_append_grows(self):
        tree = FlatFAT(operator.add)
        for value in range(10):
            tree.append(value)
        assert len(tree) == 10
        assert tree.root() == sum(range(10))

    def test_append_beyond_capacity(self):
        tree = FlatFAT(operator.add, [1])
        assert tree.capacity == 1
        tree.append(2)
        assert tree.capacity == 2
        tree.append(3)
        assert tree.capacity == 4
        assert tree.root() == 6


class TestInsertRemove:
    def test_middle_insert(self):
        tree = FlatFAT(operator.add, [1, 3])
        tree.insert(1, 2)
        assert tree.leaves() == [1, 2, 3]
        assert tree.root() == 6

    def test_insert_at_end_is_append(self):
        tree = FlatFAT(operator.add, [1])
        tree.insert(1, 2)
        assert tree.leaves() == [1, 2]

    def test_insert_invalid_index(self):
        tree = FlatFAT(operator.add, [1])
        with pytest.raises(IndexError):
            tree.insert(5, 0)

    def test_remove(self):
        tree = FlatFAT(operator.add, [1, 2, 3])
        assert tree.remove(1) == 2
        assert tree.leaves() == [1, 3]
        assert tree.root() == 4

    def test_remove_front(self):
        tree = FlatFAT(operator.add, list(range(10)))
        tree.remove_front(4)
        assert tree.leaves() == list(range(4, 10))
        assert tree.root() == sum(range(4, 10))

    def test_remove_front_all(self):
        tree = FlatFAT(operator.add, [1, 2])
        tree.remove_front(2)
        assert len(tree) == 0
        assert tree.root() is None

    def test_remove_front_too_many(self):
        tree = FlatFAT(operator.add, [1])
        with pytest.raises(IndexError):
            tree.remove_front(2)


def assert_consistent(tree):
    """Every inner node is the merge of its children, and no position
    outside the live leaves holds anything."""
    capacity, arr = tree.capacity, tree._arr
    live = range(capacity + tree._front, capacity + tree._front + len(tree))
    for position in range(capacity, 2 * capacity):
        if position not in live:
            assert arr[position] is None, f"dead position {position - capacity} holds {arr[position]!r}"
    for node in range(1, capacity):
        assert arr[node] == tree._merge(arr[2 * node], arr[2 * node + 1]), f"inner node {node}"


class TestFrontEviction:
    """``remove_front`` moves an offset; the dead positions are reclaimed
    by the append that finds no room behind the last leaf."""

    def test_leaves_stay_in_place_and_indices_follow_the_offset(self):
        tree = FlatFAT(operator.add, list(range(1, 9)))
        tree.tracer = tracer = Tracer()
        tree.remove_front(3)
        assert tracer.value("flatfat.rebuilds") == 0
        assert tree._arr[tree.capacity :] == [None, None, None, 4, 5, 6, 7, 8]
        assert (len(tree), tree.leaf(0), tree.leaves()) == (5, 4, [4, 5, 6, 7, 8])
        assert tree.root() == 30 and tree.query(1, 3) == 11
        tree.update(0, 40)
        assert tree.root() == 66 and tree.query(0, 2) == 45
        assert_consistent(tree)

    def test_a_sliding_tree_relayouts_once_per_half_capacity_of_appends(self):
        """Three live leaves, one appended and one evicted per step.

        Filling: c=1 -> 2 -> 4, two relayouts.  Step 1 fills position 3.
        Step 2 finds the tree full with 1 of 4 positions dead -- fewer
        than half -- and doubles to c=8 (third relayout).  From then on
        the live leaves walk right by one position per step; the append
        of step 7 finds them at positions 5..7, more than half of the
        tree dead, and reclaims it in place, as do steps 12, 17, 22 and
        27: one relayout per five evictions, at the same capacity.
        """
        tree = FlatFAT(operator.add)
        tree.tracer = tracer = Tracer()
        model = []
        for value in range(3):
            tree.append(value)
            model.append(value)
        assert tracer.value("flatfat.rebuilds") == 2
        relayouts = []
        for step in range(1, 28):
            before = tracer.value("flatfat.rebuilds")
            tree.append(step + 2)
            model.append(step + 2)
            if tracer.value("flatfat.rebuilds") > before:
                relayouts.append(step)
            tree.remove_front(1)
            del model[0]
            assert tree.leaves() == model and tree.root() == sum(model)
            assert_consistent(tree)
        assert relayouts == [2, 7, 12, 17, 22, 27]
        assert tree.capacity == 8

    def test_middle_insert_and_remove_after_an_eviction(self):
        tree = FlatFAT(operator.add, [1, 2, 3, 4, 5])
        tree.remove_front(2)
        tree.insert(1, 10)
        assert tree.leaves() == [3, 10, 4, 5] and tree.root() == 22
        assert tree.remove(2) == 4
        assert tree.leaves() == [3, 10, 5] and tree.root() == 18
        tree.extend([6, 7, 8, 9, 10, 11])
        assert tree.leaves() == [3, 10, 5, 6, 7, 8, 9, 10, 11]
        assert tree.query(2, 5) == 18
        assert_consistent(tree)

    def test_evicting_everything_leaves_an_empty_tree_that_fills_again(self):
        tree = FlatFAT(operator.add, [1, 2, 3])
        tree.remove_front(3)
        assert len(tree) == 0 and tree.root() is None and tree.leaves() == []
        tree.append(7)
        assert tree.leaves() == [7] and tree.root() == 7
        assert_consistent(tree)

    def test_a_pickle_after_an_eviction_keeps_the_offset(self):
        tree = FlatFAT(operator.add, [1, 2, 3, 4, 5])
        tree.remove_front(2)
        tree.append(6)
        again = pickle.loads(pickle.dumps(tree))
        assert again.leaves() == [3, 4, 5, 6] and again._front == 2
        assert again.query(1, 3) == 9
        assert_consistent(again)
        again.append(7)
        assert again.leaves() == [3, 4, 5, 6, 7] and again.root() == 25
        assert_consistent(again)


class TestQuery:
    def test_full_range(self):
        tree = FlatFAT(operator.add, list(range(1, 9)))
        assert tree.query(0, 8) == 36

    def test_subranges(self):
        leaves = list(range(1, 12))
        tree = FlatFAT(operator.add, leaves)
        for lo in range(len(leaves)):
            for hi in range(lo, len(leaves) + 1):
                assert tree.query(lo, hi) == naive_range(leaves, lo, hi)

    def test_empty_range(self):
        tree = FlatFAT(operator.add, [1, 2])
        assert tree.query(1, 1) is None

    def test_out_of_bounds(self):
        tree = FlatFAT(operator.add, [1, 2])
        with pytest.raises(IndexError):
            tree.query(0, 3)

    def test_none_leaves_skipped(self):
        tree = FlatFAT(operator.add, [1, None, 3])
        assert tree.query(0, 3) == 4

    def test_non_commutative_order_preserved(self):
        concat = lambda a, b: a + b  # noqa: E731
        tree = FlatFAT(concat, ["a", "b", "c", "d", "e"])
        assert tree.query(1, 4) == "bcd"
        assert tree.query(0, 5) == "abcde"


@given(
    leaves=st.lists(st.integers(-100, 100), min_size=0, max_size=64),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["append", "append", "update", "insert", "remove", "evict", "evict", "extend"]),
            st.integers(0, 63),
            st.integers(-100, 100),
        ),
        max_size=40,
    ),
)
@settings(max_examples=120)
def test_flatfat_matches_naive_model(leaves, operations):
    """Random op sequences keep FlatFAT consistent with a plain list."""
    tree = FlatFAT(operator.add, leaves)
    model = list(leaves)
    for name, index, value in operations:
        if name == "append":
            tree.append(value)
            model.append(value)
        elif name == "update" and model:
            position = index % len(model)
            tree.update(position, value)
            model[position] = value
        elif name == "insert":
            position = index % (len(model) + 1)
            tree.insert(position, value)
            model.insert(position, value)
        elif name == "remove" and model:
            position = index % len(model)
            assert tree.remove(position) == model.pop(position)
        elif name == "evict":
            count = index % (len(model) + 1)
            tree.remove_front(count)
            del model[:count]
        elif name == "extend":
            more = [value + offset for offset in range(index % 5)]
            tree.extend(more)
            model.extend(more)
        assert_consistent(tree)
    assert tree.leaves() == model
    assert tree.root() == (sum(model) if model else None)
    if len(model) >= 2:
        assert tree.query(1, len(model)) == sum(model[1:])
