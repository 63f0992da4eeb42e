"""Property suite for the eager store's deferred kernel writes.

:class:`~repro.core.aggregate_store.EagerAggregateStore` keeps kernel
leaf ``i`` equal to ``slices[i].aggs`` for every ``i < lag_from`` but
the last slice; the leaves from ``lag_from`` on, and the last slice's
always, may lag and are written when a query reads them or an insert or
removal would move them.  This suite drives one store per kernel through
seeded random sequences of everything that touches that invariant --
in-order adds (both ways the hot paths reach the head), late adds into
the head and into closed slices, updates announced on closed slices that
did not change, slice cuts with and without gaps, gap inserts, head
splits, merges (including one that swallows the head), evictions, index
and time range queries, sweeps that query every ``(lo, hi)``, and pickle
round trips taken while leaves lag -- and compares every query with the
lazy store's left-to-right fold over the same slices.

``check_invariants()`` writes every lagging leaf, so it runs on a
pickled copy: the store under test keeps its lag and a missing write
cannot hide behind the check.

Seeds follow ``tests/test_kernel_properties.py``: ``REPRO_KERNEL_SEED``
is the base, ``REPRO_FUZZ_SCALE`` multiplies the cases.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.aggregations import M4, Count, Max, Median, Sum
from repro.core.aggregate_store import AggregateStore, EagerAggregateStore
from repro.core.kernels import make_kernel
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
    ("mark_closed", 2),
    ("gap_insert", 1),
    ("split_head", 1),
    ("merge", 1),
    ("evict", 1),
    ("query", 4),
    ("sweep", 1),
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
        self.lagging_pickles = 0

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
            # SliceManager.add_inorder; the operator's hot path says nothing.
            self.store.slice_updated(len(self.store.slices) - 1)

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

    def mark_closed(self) -> None:
        """An update announced on a closed slice that did not change."""
        if len(self.store.slices) >= 2:
            self.store.slice_updated(self.rng.randrange(len(self.store.slices) - 1))

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

    def sweep(self) -> None:
        """Every ``(lo, hi)`` of one function, in random order."""
        store = self.store
        size = len(store.slices)
        fn_index = self.rng.randrange(len(self.functions))
        ranges = [(lo, hi) for hi in range(size + 1) for lo in range(hi + 1)]
        self.rng.shuffle(ranges)
        for lo, hi in ranges:
            expected = AggregateStore.query_slices(store, lo, hi, fn_index)
            assert store.query_slices(lo, hi, fn_index) == expected, (lo, hi, fn_index)
        self.queries += 1

    def pickle(self) -> None:
        self.lagging_pickles += self.store.lag_from is not None
        self.store = pickle.loads(pickle.dumps(self.store))

    def check(self) -> None:
        lag_from = self.store.lag_from
        pickle.loads(pickle.dumps(self.store)).check_invariants()
        assert self.store.lag_from == lag_from


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
    assert driver.store.lag_from is None
    # The sequences must reach what they are for.
    assert driver.queries > 20 and driver.lagging_pickles > 0


def test_check_invariants_reports_a_stale_leaf():
    """A closed leaf below ``lag_from`` that misses its write is caught
    by name; one at or past ``lag_from`` may lag, and gets written."""
    functions = [Sum()]
    store = EagerAggregateStore(functions)
    for start in (0, 10, 20):
        slice_ = Slice(start, start + 10, 1, store_records=False)
        slice_.add_inorder(Record(start, 1.0), functions)
        store.append_slice(slice_)
    store.check_invariants()
    assert store.lag_from is None
    store.slices[0].add_inorder(Record(5, 2.0), functions)  # no slice_updated(0)
    with pytest.raises(AssertionError, match="kernel 0 leaf 0 1.0 lags .* below lag_from None"):
        store.check_invariants()

    store.slice_updated(0)
    store.check_invariants()  # announced: it lags legitimately, and is written
    store.slices[1].add_inorder(Record(15, 2.0), functions)
    store.slice_updated(1)
    store.slices[0].add_inorder(Record(6, 2.0), functions)  # unannounced again
    assert store.lag_from == 1
    with pytest.raises(AssertionError, match="kernel 0 leaf 0 3.0 lags .* below lag_from 1"):
        store.check_invariants()

    store.lag_from = 2
    with pytest.raises(AssertionError, match="lag_from 2 is not a closed slice of 3"):
        store.check_invariants()
    store.kernels[0].remove_front(1)
    store.lag_from = None
    with pytest.raises(AssertionError, match="2 leaves for 3 slices"):
        store.check_invariants()


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_dirty_last_slice_can_be_evicted_removed_or_displaced(kernel):
    """The lag never outlives the slices it covers, nor moves to another
    slice: eviction shifts it, an insert or removal writes it first."""
    functions = [cls() for cls in FUNCTIONS[kernel]]

    def lagging_store():
        store = EagerAggregateStore(functions, kernel_kinds=[kernel] * len(functions))
        for start in (0, 10):
            store.append_slice(Slice(start, start + 10, len(functions), store_records=True))
        store.slices[1].add_inorder(Record(12, 3.0), functions)
        store.slice_updated(1)  # the last slice: nothing to record
        assert store.lag_from == 0  # the cut closed [0, 10)
        return store

    store = lagging_store()
    assert store.evict_before(10) == 1
    assert store.lag_from is None  # only the last slice is left
    store.check_invariants()

    store = lagging_store()
    assert store.evict_before(20) == 2
    assert store.lag_from is None and [len(kernel) for kernel in store.kernels] == [0] * len(functions)
    store.append_slice(Slice(20, None, len(functions), store_records=True))
    store.check_invariants()

    store = lagging_store()
    store.insert_slice(2, Slice(20, None, len(functions), store_records=True))
    assert store.lag_from is None
    store.check_invariants()

    store = lagging_store()
    store.remove_slice(1)
    assert store.lag_from is None
    store.check_invariants()
    assert store.query_slices(0, 1, 0) is None


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_front_eviction_writes_no_head_and_the_late_write_finds_its_index(kernel):
    """Dropping a prefix moves every leaf index alike: ``lag_from``
    shifts with it, nothing is written, and the deferred writes land on
    the slices' new indices when a query reaches them."""
    functions = [cls() for cls in FUNCTIONS[kernel]]
    store = EagerAggregateStore(functions, kernel_kinds=[kernel] * len(functions))
    for start, end in ((0, 10), (10, 20), (20, None)):
        store.append_slice(Slice(start, end, len(functions), store_records=True))
    for index, ts in enumerate((5, 15)):
        store.slices[index].add_inorder(Record(ts, 2.0), functions)
        store.slice_updated(index)
    store.slices[2].add_inorder(Record(25, 3.0), functions)  # the operator's hot path
    store.tracer = tracer = Tracer()
    assert store.lag_from == 0

    assert store.evict_before(10) == 1
    assert store.lag_from == 0
    assert tracer.value("kernel.head_syncs") == tracer.value("kernel.lag_writes") == 0
    assert [kernel.leaf(index) for kernel in store.kernels for index in (0, 1)] == [None] * (
        2 * len(functions)
    )
    pickle.loads(pickle.dumps(store)).check_invariants()

    reference = AggregateStore(functions)
    reference.slices = store.slices
    assert store.query_slices(0, 2, 0) == reference.query_slices(0, 2, 0) == 5.0
    assert store.lag_from is None
    assert tracer.value("kernel.lag_writes") == tracer.value("kernel.head_syncs") == 1
    store.check_invariants()


def _count_kernel_updates(monkeypatch, kernel):
    """Patch the kernel class's ``update`` to append to a list."""
    updates = []
    cls = type(make_kernel(kernel, FUNCTIONS[kernel][0]()))
    original = cls.update

    def counting(self, index, partial):
        updates.append(index)
        return original(self, index, partial)

    monkeypatch.setattr(cls, "update", counting)
    return updates


def _written_store(kernel, closed):
    """``closed`` closed slices with one record each and an open head,
    every leaf written."""
    functions = [cls() for cls in FUNCTIONS[kernel]]
    store = EagerAggregateStore(functions, kernel_kinds=[kernel] * len(functions))
    for start in range(0, 10 * closed + 1, 10):
        slice_ = Slice(start, start + 10 if start < 10 * closed else None, len(functions), True)
        slice_.add_inorder(Record(start, 1.0), functions)
        store.append_slice(slice_)
    store.check_invariants()
    return store, functions


def _late(store, functions, ts):
    index = store.find_index(ts)
    store.slices[index].add_out_of_order(Record(ts, 2.0), functions)
    store.slice_updated(index)


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_late_records_write_each_slice_once_per_reader(kernel, monkeypatch):
    """Three late records into two closed slices, then one query across
    them per function: each slice is written once, ``2 x F`` updates
    for F functions.  Writing every late record through would cost
    ``3 x F``."""
    store, functions = _written_store(kernel, closed=4)
    updates = _count_kernel_updates(monkeypatch, kernel)
    for ts in (3, 7, 14):
        _late(store, functions, ts)
    assert updates == [] and store.lag_from == 0
    reference = AggregateStore(functions)
    reference.slices = store.slices
    for fn_index in range(len(functions)):
        assert store.query_slices(0, 2, fn_index) == reference.query_slices(0, 2, fn_index)
    assert len(updates) == 2 * len(functions)
    assert store.lag_from == 2
    store.check_invariants()


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_one_far_late_record_writes_up_to_the_window_end(kernel, monkeypatch):
    """The cost model's other side: one index marks where lagging
    starts, so a flush writes every closed slice from the earliest late
    record to the furthest window end read, touched or not.  One record
    late into slice 0 and a window over slices 6..8 write 9 x F leaves;
    a later query behind them writes none."""
    store, functions = _written_store(kernel, closed=10)
    updates = _count_kernel_updates(monkeypatch, kernel)
    _late(store, functions, 4)
    store.query_slices(6, 9, 0)
    assert len(updates) == 9 * len(functions)
    assert store.lag_from == 9
    store.query_slices(0, 9, 0)
    assert len(updates) == 9 * len(functions)
    store.check_invariants()


@pytest.mark.parametrize("kernel", list(FUNCTIONS))
def test_a_head_edited_in_place_between_two_reads_is_written_again(kernel):
    """``Median`` writes an in-order record into the open head's partial
    in place, so the kernel leaf written at the first read still holds
    the very object the head holds after the edit.  The second read that
    reaches the head answers with the edited fold, on every kernel."""
    median = Median()
    store = EagerAggregateStore([median], kernel_kinds=[kernel])

    def write(value):
        """The operator's in-order write into the open head."""
        head = store.head
        head.aggs[0] = median.accumulate_in_place(head.aggs[0], value)
        head.record_count += 1

    # Four slices: on FlatFAT the head shares an inner node with the
    # slice before it, which a read that reaches the head uses.
    for start, values in ((0, (4.0, 2.0)), (10, (7.0,)), (20, (6.0,)), (30, (5.0, 5.0))):
        if store.slices:
            store.head.end = start
        store.append_slice(Slice(start, None, 1, store_records=False))
        for value in values:
            write(value)
    assert median.lower(store.query_slices(0, 4, 0)) == 5.0
    edited = store.head.aggs[0]
    for value in (9.0, 8.0, 9.0):
        write(value)
    assert store.head.aggs[0] is edited
    assert store.query_slices(0, 4, 0) == AggregateStore.query_slices(store, 0, 4, 0)
    assert median.lower(store.query_slices(0, 4, 0)) == 6.0
    assert median.lower(store.query_slices(2, 4, 0)) == 8.0
