"""FlatFAT: a flat fixed-size binary aggregation tree.

Reimplementation of the aggregate-tree data structure of Tangwongsan et
al. (PVLDB 2015), which the paper uses twice:

* as the **Aggregate Tree** baseline (Section 3.2) with individual
  records as leaves, and
* inside **eager slicing** (Section 3.4) with *slices* as leaves, which
  keeps the tree tiny and makes out-of-order updates cheap.

The tree is stored as a flat array of ``2 * capacity`` partial
aggregates: leaves occupy ``arr[capacity + i]``, inner node ``k`` holds
``combine(arr[2k], arr[2k+1])``.  Empty positions hold ``None`` and are
skipped by the combiner, so the structure needs no identity element and
supports non-commutative functions (range queries accumulate strictly
left-to-right).

Leaves are evicted from the front by moving an offset: the dead
positions are cleared and reclaimed, by one O(n) relayout, when an append
finds no room behind the last leaf and at least half of the tree is dead
(otherwise the tree doubles, as it does without evictions).

Complexities: point update O(log n); append amortized O(log n) (array
doubling / relayout); range query O(log n); front eviction O(evicted +
log n); middle insert/remove O(n) (leaf shift plus subtree recomputation
-- exactly the cost that makes aggregate trees collapse under
out-of-order input in Figure 9).
"""

from __future__ import annotations

from typing import Callable, Generic, List, Optional, Sequence, TypeVar

P = TypeVar("P")

__all__ = ["FlatFAT"]


class FlatFAT(Generic[P]):
    """Flat binary aggregation tree over an ordered sequence of partials."""

    __slots__ = ("_combine", "_capacity", "_size", "_front", "_arr", "tracer")

    def __init__(
        self,
        combine: Callable[[P, P], P],
        leaves: Optional[Sequence[Optional[P]]] = None,
    ) -> None:
        self._combine = combine
        #: Observability sink (``flatfat.*`` counters); ``None`` is the
        #: no-op fast path.  Node-update counts are computed analytically
        #: from the affected index ranges, so the enabled path adds no
        #: per-node bookkeeping either.
        self.tracer = None
        initial = list(leaves) if leaves else []
        self._relayout(initial, self._pow2_at_least(max(1, len(initial))))

    # ------------------------------------------------------------------
    # internal helpers

    @staticmethod
    def _pow2_at_least(n: int) -> int:
        capacity = 1
        while capacity < n:
            capacity *= 2
        return capacity

    def _merge(self, left: Optional[P], right: Optional[P]) -> Optional[P]:
        if left is None:
            return right
        if right is None:
            return left
        return self._combine(left, right)

    def _relayout(self, leaves: List[Optional[P]], capacity: int) -> None:
        """Lay ``leaves`` out from position 0 of a tree of ``capacity``
        leaves and recompute every inner node: O(capacity)."""
        self._capacity = capacity
        self._front = 0
        self._size = len(leaves)
        self._arr = arr = [None] * (2 * capacity)
        arr[capacity : capacity + len(leaves)] = leaves
        for node in range(capacity - 1, 0, -1):
            arr[node] = self._merge(arr[2 * node], arr[2 * node + 1])
        if self.tracer is not None:
            self.tracer.count("flatfat.rebuilds")
            self.tracer.count("flatfat.node_updates", capacity - 1)

    def _repair_levels(self, first: int, last: int) -> None:
        """Recompute the ancestors of positions ``first .. last``, each
        once, level by level up to the root."""
        arr = self._arr
        tracer = self.tracer
        lo = (self._capacity + first) // 2
        hi = (self._capacity + last) // 2
        while lo >= 1:
            if tracer is not None:
                tracer.count("flatfat.node_updates", hi - lo + 1)
            for node in range(lo, hi + 1):
                arr[node] = self._merge(arr[2 * node], arr[2 * node + 1])
            lo //= 2
            hi //= 2

    def _update_path(self, position: int) -> None:
        node = (self._capacity + position) // 2
        if self.tracer is not None:
            # Path length to the root == bit length of the start node.
            self.tracer.count("flatfat.node_updates", node.bit_length())
        arr = self._arr
        while node >= 1:
            arr[node] = self._merge(arr[2 * node], arr[2 * node + 1])
            node //= 2

    def _make_room(self, count: int) -> None:
        """Ensure ``count`` free positions behind the last leaf.

        Dead positions are reclaimed in place only when they are at least
        half of the tree; a tree with fewer doubles.  Either way the
        relayout pays for capacity / 2 appends.
        """
        capacity = self._capacity
        if self._front + self._size + count <= capacity:
            return
        needed = self._pow2_at_least(self._size + count)
        if needed <= capacity:
            needed = capacity if self._front * 2 >= capacity else 2 * capacity
        self._relayout(self.leaves(), needed)

    # ------------------------------------------------------------------
    # public API

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Current leaf capacity (a power of two)."""
        return self._capacity

    def leaf(self, index: int) -> Optional[P]:
        """Return the partial aggregate stored at leaf ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"leaf index {index} out of range (size {self._size})")
        return self._arr[self._capacity + self._front + index]

    def leaves(self) -> List[Optional[P]]:
        """A copy of all leaf partials in order."""
        first = self._capacity + self._front
        return self._arr[first : first + self._size]

    def update(self, index: int, partial: Optional[P]) -> None:
        """Replace leaf ``index`` and repair the path to the root: O(log n)."""
        if not 0 <= index < self._size:
            raise IndexError(f"leaf index {index} out of range (size {self._size})")
        position = self._front + index
        self._arr[self._capacity + position] = partial
        self._update_path(position)

    def append(self, partial: Optional[P]) -> None:
        """Append a leaf at the end: amortized O(log n)."""
        self._make_room(1)
        position = self._front + self._size
        self._arr[self._capacity + position] = partial
        self._size += 1
        self._update_path(position)

    def extend(self, partials: Sequence[Optional[P]]) -> None:
        """Append several leaves at once: one growth, one repair pass.

        Equivalent to repeated :meth:`append`, but the array grows at
        most once and each affected inner node is recomputed exactly
        once (level-by-level over the appended range) instead of once
        per appended leaf.
        """
        count = len(partials)
        if count == 0:
            return
        self._make_room(count)
        start = self._front + self._size
        self._arr[self._capacity + start : self._capacity + start + count] = list(partials)
        self._size += count
        self._repair_levels(start, start + count - 1)

    def insert(self, index: int, partial: Optional[P]) -> None:
        """Insert a leaf in the middle: O(n) (leaf shift + rebuild).

        This models the expensive out-of-order leaf insert (with the
        associated "rebalancing") of aggregate trees on records.
        """
        if not 0 <= index <= self._size:
            raise IndexError(f"insert index {index} out of range (size {self._size})")
        if index == self._size:
            self.append(partial)
            return
        leaves = self.leaves()
        leaves.insert(index, partial)
        self._relayout(leaves, max(self._capacity, self._pow2_at_least(len(leaves))))

    def remove(self, index: int) -> Optional[P]:
        """Remove the leaf at ``index``: O(n)."""
        if not 0 <= index < self._size:
            raise IndexError(f"leaf index {index} out of range (size {self._size})")
        leaves = self.leaves()
        removed = leaves.pop(index)
        self._relayout(leaves, self._capacity)
        return removed

    def remove_front(self, count: int) -> None:
        """Drop the first ``count`` leaves (eviction): O(count + log n).

        The leaves stay where they are and the offset moves past the
        dropped ones, whose positions are cleared and whose ancestors are
        repaired; :meth:`_make_room` reclaims them.
        """
        if count <= 0:
            return
        if count > self._size:
            raise IndexError(f"cannot remove {count} of {self._size} leaves")
        first = self._front
        self._arr[self._capacity + first : self._capacity + first + count] = [None] * count
        self._front += count
        self._size -= count
        self._repair_levels(first, first + count - 1)

    def query(self, lo: int, hi: int) -> Optional[P]:
        """Combine leaves ``[lo, hi)`` left-to-right: O(log n).

        Returns ``None`` when the range is empty or contains only empty
        leaves.  Order is preserved, so non-commutative combiners work.
        """
        if lo < 0 or hi > self._size:
            raise IndexError(f"query range [{lo}, {hi}) out of bounds (size {self._size})")
        if lo >= hi:
            return None
        if self.tracer is not None:
            self.tracer.count("flatfat.queries")
        arr = self._arr
        left_acc: Optional[P] = None
        right_acc: Optional[P] = None
        first = self._capacity + self._front
        lo += first
        hi += first
        while lo < hi:
            if lo & 1:
                left_acc = self._merge(left_acc, arr[lo])
                lo += 1
            if hi & 1:
                hi -= 1
                right_acc = self._merge(arr[hi], right_acc)
            lo //= 2
            hi //= 2
        return self._merge(left_acc, right_acc)

    def root(self) -> Optional[P]:
        """The aggregate over all leaves."""
        if self._size == 0:
            return None
        return self.query(0, self._size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlatFAT(size={self._size}, evicted={self._front}, capacity={self._capacity})"
