"""Property suite for the eager store's deferred head write.

:class:`~repro.core.aggregate_store.EagerAggregateStore` keeps kernel
leaf ``i`` equal to ``slices[i].aggs`` for every slice but the last; the
last slice's leaf may lag behind (``head_dirty``) and is written right
before it can be observed or moved.  This suite drives one store per
kernel through seeded random sequences of everything that touches that
invariant -- in-order adds (both ways the hot paths mark the head), late
adds into the head and into older slices, slice cuts with and without
gaps, gap inserts, head splits, merges (including one that swallows the head),
evictions, index and time range queries, and pickle round trips taken
while the head is dirty -- and compares every query with the lazy
store's left-to-right fold over the same slices.

``check_invariants()`` refreshes the head, so it runs on a pickled copy:
the store under test keeps its dirty mark and a missing refresh cannot
hide behind the check.

Seeds follow ``tests/test_kernel_properties.py``: ``REPRO_KERNEL_SEED``
is the base, ``REPRO_FUZZ_SCALE`` multiplies the cases.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.aggregations import M4, Count, Max, Sum
from repro.core.aggregate_store import AggregateStore, EagerAggregateStore
from repro.core.slice_ import Slice
from repro.core.tracing import Tracer
from repro.core.types import Record

pytestmark = pytest.mark.fuzz

BASE_SEED = int(os.environ.get("REPRO_KERNEL_SEED", "20150831"))
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))
STEPS = 400
CHECK_EVERY = 7

#: Functions each kernel may legally back.  M4 is non-commutative, so a
#: wrong leaf order shows; subtract-on-evict needs exact inverts.
FUNCTIONS = {
    "flatfat": (Sum, Max, M4),
    "finger_tree": (Sum, Max, M4),
    "two_stacks": (Sum, Max, M4),
    "subtract_on_evict": (Sum, Count),
}

OPS = (
    ("add", 10),
    ("cut", 4),
    ("late_head", 2),
    ("late_old", 3),
    ("gap_insert", 1),
    ("split_head", 1),
    ("merge", 1),
    ("evict", 1),
    ("query", 4),
    ("pickle", 1),
)
_WEIGHTED = [name for name, weight in OPS for _ in range(weight)]


class _Driver:
    """Applies one random op at a time to an eager store."""

    def __init__(self, kernel: str, rng: random.Random) -> None:
        self.functions = [cls() for cls in FUNCTIONS[kernel]]
        self.store = EagerAggregateStore(
            self.functions, kernel_kinds=[kernel] * len(self.functions)
        )
        self.rng = rng
        self.now = 0
        self.queries = 0
        self.dirty_pickles = 0

    def _value(self) -> float:
        return float(self.rng.randint(1, 50))

    def _slice(self, start, end) -> Slice:
        return Slice(start, end, len(self.functions), store_records=True)

    def _open_head(self) -> Slice:
        store = self.store
        if not store.slices or store.head.end is not None:
            store.append_slice(self._slice(self.now, None))
        return store.head

    # -- ops -----------------------------------------------------------

    def add(self) -> None:
        head = self._open_head()
        self.now += self.rng.randint(0, 3)
        head.add_inorder(Record(self.now, self._value()), self.functions)
        if self.rng.random() < 0.5:
            self.store.head_dirty = True  # the operator's hot path
        else:
            self.store.slice_updated(len(self.store.slices) - 1)  # SliceManager.add_inorder

    def cut(self) -> None:
        head = self._open_head()
        self.now += 1
        head.end = self.now
        if self.rng.random() < 0.3:
            self.now += self.rng.randint(1, 5)  # leave a gap
        self.store.append_slice(self._slice(self.now, None))

    def _late_into(self, index: int) -> None:
        slice_ = self.store.slices[index]
        last = slice_.end - 1 if slice_.end is not None else self.now
        ts = self.rng.randint(slice_.start, max(slice_.start, last))
        slice_.add_out_of_order(Record(ts, self._value()), self.functions)
        self.store.slice_updated(index)

    def late_head(self) -> None:
        self._open_head()
        self._late_into(len(self.store.slices) - 1)

    def late_old(self) -> None:
        if len(self.store.slices) >= 2:
            self._late_into(self.rng.randrange(len(self.store.slices) - 1))

    def gap_insert(self) -> None:
        slices = self.store.slices
        gaps = [
            index
            for index in range(len(slices) - 1)
            if slices[index].end < slices[index + 1].start
        ]
        if not gaps:
            return
        index = self.rng.choice(gaps)
        gap = self._slice(slices[index].end, slices[index + 1].start)
        gap.add_inorder(Record(gap.start, self._value()), self.functions)
        self.store.insert_slice(index + 1, gap)

    def split_head(self) -> None:
        """Session-style split past the head's records: the (possibly
        dirty) head stops being the last slice."""
        head = self._open_head()
        self.now += 2
        right = head.split_empty_at(self.now, self.functions)
        index = len(self.store.slices) - 1
        self.store.insert_slice(index + 1, right)
        self.store.slice_updated(index)
        self.store.slice_updated(index + 1)

    def merge(self) -> None:
        slices = self.store.slices
        if len(slices) < 2:
            return
        left_index = self.rng.randrange(len(slices) - 1)  # the last pair swallows the head
        slices[left_index].merge_from(slices[left_index + 1], self.functions)
        self.store.remove_slice(left_index + 1)
        self.store.slice_updated(left_index)

    def evict(self) -> None:
        slices = self.store.slices
        if slices:
            self.store.evict_before(self.rng.randint(slices[0].start, self.now + 1))

    def query(self) -> None:
        store = self.store
        size = len(store.slices)
        if not size:
            return
        hi = size if self.rng.random() < 0.5 else self.rng.randint(0, size)
        lo = self.rng.randint(0, hi)
        # By time: closed slices only (the open head has no end yet).
        start, end = store.slices[lo].start if lo < size else self.now, self.now + 1
        t_lo, t_hi = store.range_indices(start, end)
        for fn_index in range(len(self.functions)):
            expected = AggregateStore.query_slices(store, lo, hi, fn_index)
            assert store.query_slices(lo, hi, fn_index) == expected, (lo, hi, fn_index)
            assert store.query_time(start, end, fn_index) == AggregateStore.query_slices(
                store, t_lo, t_hi, fn_index
            )
        self.queries += 1

    def pickle(self) -> None:
        self.dirty_pickles += self.store.head_dirty
        self.store = pickle.loads(pickle.dumps(self.store))

    def check(self) -> None:
        was_dirty = self.store.head_dirty
        pickle.loads(pickle.dumps(self.store)).check_invariants()
        assert self.store.head_dirty == was_dirty


@pytest.mark.parametrize("seed_index", range(3 * FUZZ_SCALE))
@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_random_ops_keep_kernels_and_slices_in_step(kernel, seed_index):
    seed = random.Random(f"{BASE_SEED}:eager-store:{kernel}:{seed_index}").randrange(2**63)
    driver = _Driver(kernel, random.Random(seed))
    for step in range(STEPS):
        op = driver.rng.choice(_WEIGHTED)
        try:
            getattr(driver, op)()
            if step % CHECK_EVERY == 0:
                driver.check()
        except AssertionError as exc:
            raise AssertionError(
                f"kernel={kernel} seed={seed} step={step} op={op}: {exc}"
            ) from exc
    driver.store.check_invariants()
    assert not driver.store.head_dirty
    # The sequences must reach what they are for.
    assert driver.queries > 20 and driver.dirty_pickles > 0


def test_check_invariants_reports_a_stale_leaf():
    """A non-head leaf that misses its write-through is caught."""
    functions = [Sum()]
    store = EagerAggregateStore(functions)
    for start in (0, 10, 20):
        slice_ = Slice(start, start + 10, 1, store_records=False)
        slice_.add_inorder(Record(start, 1.0), functions)
        store.append_slice(slice_)
    store.check_invariants()
    store.slices[0].add_inorder(Record(5, 2.0), functions)  # no slice_updated(0)
    with pytest.raises(AssertionError, match="differ from the slice partials"):
        store.check_invariants()
    store.kernels[0].remove_front(1)
    with pytest.raises(AssertionError, match="2 leaves for 3 slices"):
        store.check_invariants()


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_dirty_last_slice_can_be_evicted_removed_or_displaced(kernel):
    """The mark never outlives the slice it belongs to, nor moves to
    another slice."""
    functions = [cls() for cls in FUNCTIONS[kernel]]

    def dirty_store():
        store = EagerAggregateStore(functions, kernel_kinds=[kernel] * len(functions))
        for start in (0, 10):
            store.append_slice(Slice(start, start + 10, len(functions), store_records=True))
        store.slices[1].add_inorder(Record(12, 3.0), functions)
        store.slice_updated(1)
        assert store.head_dirty
        return store

    store = dirty_store()
    assert store.evict_before(20) == 2
    assert not store.head_dirty and [len(kernel) for kernel in store.kernels] == [0] * len(functions)
    store.append_slice(Slice(20, None, len(functions), store_records=True))
    store.check_invariants()

    store = dirty_store()
    store.insert_slice(2, Slice(20, None, len(functions), store_records=True))
    store.check_invariants()

    store = dirty_store()
    store.remove_slice(1)
    assert not store.head_dirty
    store.check_invariants()
    assert store.query_slices(0, 1, 0) is None


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_front_eviction_writes_no_head_and_the_late_write_finds_its_index(kernel):
    """Dropping a prefix moves every leaf index alike: the dirty head
    stays dirty, its leaf stays stale, and the deferred write lands on
    the slice's new index when a query reaches it."""
    functions = [cls() for cls in FUNCTIONS[kernel]]
    store = EagerAggregateStore(functions, kernel_kinds=[kernel] * len(functions))
    for start, end in ((0, 10), (10, 20), (20, None)):
        store.append_slice(Slice(start, end, len(functions), store_records=True))
    for index, ts in enumerate((5, 15)):
        store.slices[index].add_inorder(Record(ts, 2.0), functions)
        store.slice_updated(index)
    store.slices[2].add_inorder(Record(25, 3.0), functions)
    store.head_dirty = True  # the operator's hot path
    store.tracer = tracer = Tracer()

    assert store.evict_before(10) == 1
    assert store.head_dirty and tracer.value("kernel.head_syncs") == 0
    assert [kernel.leaf(1) for kernel in store.kernels] == [None] * len(functions)
    pickle.loads(pickle.dumps(store)).check_invariants()

    reference = AggregateStore(functions)
    reference.slices = store.slices
    assert store.query_slices(0, 2, 0) == reference.query_slices(0, 2, 0) == 5.0
    assert not store.head_dirty and tracer.value("kernel.head_syncs") == 1
    store.check_invariants()
