"""Pluggable slice-aggregation kernels for the eager store.

The eager aggregate store maintains one incremental structure per
distinct aggregate function over the slice partials.  The paper uses a
FlatFAT aggregate tree (O(log s) per operation) because it supports
every workload; this module adds two specialised kernels that exploit
workload characteristics (Section 4) for O(1) amortised work on the
in-order hot path:

* :class:`TwoStacksKernel` -- the two-stacks sliding-window algorithm of
  Tangwongsan et al. (*In-Order Sliding-Window Aggregation in Worst-Case
  Constant Time*): a *front* stack of suffix aggregates (popped on
  eviction) and a *back* stack of prefix aggregates (pushed on append).
  Append, evict, update-last, and boundary-straddling range queries are
  all amortised O(1); only associativity is required, so it covers
  non-commutative functions too.
* :class:`SubtractOnEvictKernel` -- for invertible functions: absolute
  prefix aggregates plus an eviction offset, answering any range query
  in O(1) via one ``invert``.  Restricted to functions whose inversion
  is exact on the partial domain (``exact_invert``) so results stay
  bit-identical to recomputation.
* :class:`FingerTreeKernel` -- a FiBA-style finger B-tree (Tangwongsan
  et al., *Out-of-Order Sliding-Window Aggregation with Efficient Bulk
  Evictions and Insertions*) for associative functions on out-of-order
  streams: positional inserts cost O(log d) for distance ``d`` from the
  nearer end, in-order appends and front evictions touch only a spine,
  subtree aggregates are cached with lazy up-propagation (updates mark
  the root path dirty and queries repair it), and an expired prefix is
  evicted in a single top-down walk that drops whole subtrees.

All kernels implement the same surface as
:class:`~repro.core.flatfat.FlatFAT` (which remains the general-purpose
kernel): ``append`` / ``extend`` / ``insert`` / ``remove`` /
``remove_front`` / ``update`` / ``query`` / ``root`` / ``leaf`` /
``leaves`` / ``__len__`` plus a ``tracer`` attribute.  Structural middle
operations (``insert`` / ``remove``) degrade to O(n) rebuilds on the
specialised kernels -- legal but slow, which is why
:func:`~repro.core.characteristics.select_kernel` only picks them for
workloads that never split slices.

Range queries accumulate strictly left-to-right on every kernel, so all
kernels return bit-identical partials for exact (integer-valued)
arithmetic regardless of which one the characteristics select.
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..aggregations.base import AggregateFunction
from .flatfat import FlatFAT

__all__ = [
    "KernelKind",
    "TwoStacksKernel",
    "SubtractOnEvictKernel",
    "FingerTreeKernel",
    "make_kernel",
]


class KernelKind(enum.Enum):
    """Which incremental structure backs one function's slice partials."""

    #: FlatFAT aggregate tree: O(log s) everything, any workload.
    FLAT_FAT = "flatfat"
    #: Two-stacks: amortised O(1) append/evict/query, in-order only.
    TWO_STACKS = "two_stacks"
    #: Prefix aggregates + invert: O(1) everything, invertible functions.
    SUBTRACT_ON_EVICT = "subtract_on_evict"
    #: Finger B-tree: O(log d) positional inserts, bulk prefix eviction.
    FINGER_TREE = "finger_tree"

    @classmethod
    def coerce(cls, value: Union["KernelKind", str]) -> "KernelKind":
        """Accept both enum members and their string values (CLI/tests)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(sorted(k.value for k in cls))
            raise ValueError(
                f"unknown kernel {value!r}; expected one of: {names}"
            ) from None


class TwoStacksKernel:
    """Two-stacks sliding-window aggregation over slice partials.

    The logical leaf sequence is split into a *front* region (evicted
    first) and a *back* region (appended to).  ``_front[k]`` stores
    ``(value, agg)`` for leaf ``m-1-k`` (``m`` = front length) where
    ``agg`` combines leaves ``m-1-k .. m-1`` left-to-right; ``_back[j]``
    stores ``(value, agg)`` for leaf ``m+j`` where ``agg`` combines
    leaves ``m .. m+j``.  Evicting with an empty front *flips* the back
    stack -- every element but the newest moves to the front with suffix
    aggregates -- so each element is moved at most once (amortised O(1))
    and the newest element stays in the back, keeping the eager store's
    head write (``update(size-1)``, once per slice) O(1) as well.

    Range queries are O(1) whenever the range touches or spans the
    front/back boundary (every emission query on a sliding window does);
    ranges strictly inside one region fall back to an exact
    left-to-right scan of the stored values.
    """

    __slots__ = ("_combine", "_front", "_back", "tracer")

    def __init__(self, combine) -> None:
        self._combine = combine
        self._front: List[Tuple[Any, Any]] = []
        self._back: List[Tuple[Any, Any]] = []
        #: Observability sink (``two_stacks.*`` counters); ``None`` off.
        self.tracer = None

    # ------------------------------------------------------------------
    # internal helpers

    def _merge(self, left: Any, right: Any) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        return self._combine(left, right)

    def _flip(self) -> None:
        """Move all back elements but the newest onto the empty front."""
        back = self._back
        newest = back[-1]
        front = self._front
        agg: Any = None
        for value, _ in reversed(back[:-1]):
            agg = self._merge(value, agg)
            front.append((value, agg))
        self._back = [(newest[0], newest[0])]
        if self.tracer is not None:
            self.tracer.count("two_stacks.flips")

    def _rebuild(self, leaves: Sequence[Any]) -> None:
        """Reset from a full leaf list (middle insert/remove): O(n)."""
        self._front = []
        back: List[Tuple[Any, Any]] = []
        agg: Any = None
        for value in leaves:
            agg = self._merge(agg, value)
            back.append((value, agg))
        self._back = back
        if self.tracer is not None:
            self.tracer.count("two_stacks.rebuilds")

    # ------------------------------------------------------------------
    # public API (FlatFAT-compatible)

    def __len__(self) -> int:
        return len(self._front) + len(self._back)

    def leaf(self, index: int) -> Any:
        size = len(self)
        if not 0 <= index < size:
            raise IndexError(f"leaf index {index} out of range (size {size})")
        m = len(self._front)
        if index < m:
            return self._front[m - 1 - index][0]
        return self._back[index - m][0]

    def leaves(self) -> List[Any]:
        return [entry[0] for entry in reversed(self._front)] + [
            entry[0] for entry in self._back
        ]

    def append(self, partial: Any) -> None:
        back = self._back
        agg = self._merge(back[-1][1] if back else None, partial)
        back.append((partial, agg))

    def extend(self, partials: Sequence[Any]) -> None:
        for partial in partials:
            self.append(partial)

    def update(self, index: int, partial: Any) -> None:
        size = len(self)
        if not 0 <= index < size:
            raise IndexError(f"leaf index {index} out of range (size {size})")
        m = len(self._front)
        if index >= m:
            # Back region: repair prefix aggregates from the changed
            # element on.  The head write updates the newest leaf -- O(1).
            back = self._back
            j = index - m
            agg = back[j - 1][1] if j > 0 else None
            back[j] = (partial, self._merge(agg, partial))
            for jj in range(j + 1, len(back)):
                value = back[jj][0]
                back[jj] = (value, self._merge(back[jj - 1][1], value))
        else:
            # Front region: repair suffix aggregates from the changed
            # element toward older entries (only forced out-of-order
            # usage reaches this branch).
            front = self._front
            k = m - 1 - index
            front[k] = (partial, self._merge(partial, front[k - 1][1] if k > 0 else None))
            for kk in range(k + 1, m):
                value = front[kk][0]
                front[kk] = (value, self._merge(value, front[kk - 1][1]))

    def insert(self, index: int, partial: Any) -> None:
        size = len(self)
        if not 0 <= index <= size:
            raise IndexError(f"insert index {index} out of range (size {size})")
        if index == size:
            self.append(partial)
            return
        leaves = self.leaves()
        leaves.insert(index, partial)
        self._rebuild(leaves)

    def remove(self, index: int) -> Any:
        size = len(self)
        if not 0 <= index < size:
            raise IndexError(f"leaf index {index} out of range (size {size})")
        if index == 0:
            removed = self.leaf(0)
            self.remove_front(1)
            return removed
        leaves = self.leaves()
        removed = leaves.pop(index)
        self._rebuild(leaves)
        return removed

    def remove_front(self, count: int) -> None:
        if count <= 0:
            return
        size = len(self)
        if count > size:
            raise IndexError(f"cannot remove {count} of {size} leaves")
        front, back = self._front, self._back
        for _ in range(count):
            if not front:
                if len(back) == 1:
                    back.pop()
                    continue
                self._flip()
                front = self._front
                back = self._back
            front.pop()

    def query(self, lo: int, hi: int) -> Any:
        """Combine leaves ``[lo, hi)`` left-to-right.

        O(1) when the range touches or spans the front/back boundary;
        exact linear scan otherwise.
        """
        size = len(self)
        if lo < 0 or hi > size:
            raise IndexError(f"query range [{lo}, {hi}) out of bounds (size {size})")
        if lo >= hi:
            return None
        if self.tracer is not None:
            self.tracer.count("two_stacks.queries")
        m = len(self._front)
        front_part: Any = None
        if lo < m:
            front_hi = min(hi, m)
            if front_hi == m:
                # Suffix of the front region: precomputed aggregate.
                front_part = self._front[m - 1 - lo][1]
            else:
                for i in range(lo, front_hi):
                    front_part = self._merge(front_part, self._front[m - 1 - i][0])
        back_part: Any = None
        if hi > m:
            a = max(lo, m) - m
            b = hi - m
            if a == 0:
                # Prefix of the back region: precomputed aggregate.
                back_part = self._back[b - 1][1]
            else:
                for j in range(a, b):
                    back_part = self._merge(back_part, self._back[j][0])
        return self._merge(front_part, back_part)

    def root(self) -> Any:
        if len(self) == 0:
            return None
        return self.query(0, len(self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TwoStacksKernel(front={len(self._front)}, back={len(self._back)})"


class SubtractOnEvictKernel:
    """Prefix-aggregate kernel for invertible functions.

    Keeps the physical leaf list plus *absolute* prefix aggregates
    (``_prefix[p]`` combines physical leaves ``0..p-1``, skipping
    ``None``) and prefix counts of non-``None`` leaves.  Eviction just
    advances ``_start``; a range query combines in O(1) as
    ``invert(prefix[b], prefix[a])``, with the counts distinguishing a
    genuinely empty range (result ``None``) from a zero-valued
    aggregate.  The physical arrays are compacted once the evicted
    prefix outgrows the live suffix, keeping memory proportional to the
    live slice count.

    Only safe for commutative invertible functions whose ``invert``
    reverses ``combine`` exactly on the partial domain
    (:attr:`~repro.aggregations.base.AggregateFunction.exact_invert`).
    """

    __slots__ = ("_function", "_leaves", "_prefix", "_counts", "_start", "tracer")

    #: Keep at least this many evicted physical leaves before compacting.
    _COMPACT_MIN = 32

    def __init__(self, function: AggregateFunction) -> None:
        if not function.invertible:
            raise ValueError(
                f"SubtractOnEvictKernel requires an invertible function, "
                f"got {function.name!r}"
            )
        self._function = function
        self._leaves: List[Any] = []
        self._prefix: List[Any] = [None]
        self._counts: List[int] = [0]
        self._start = 0
        #: Observability sink (``subtract_on_evict.*`` counters).
        self.tracer = None

    # ------------------------------------------------------------------
    # internal helpers

    def _merge(self, left: Any, right: Any) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        return self._function.combine(left, right)

    def _recompute_from(self, physical: int) -> None:
        """Repair prefixes/counts for physical indices ``>= physical``."""
        leaves, prefix, counts = self._leaves, self._prefix, self._counts
        del prefix[physical + 1 :]
        del counts[physical + 1 :]
        agg = prefix[physical]
        n = counts[physical]
        for value in leaves[physical:]:
            agg = self._merge(agg, value)
            n += 0 if value is None else 1
            prefix.append(agg)
            counts.append(n)

    def _compact(self) -> None:
        self._leaves = self._leaves[self._start :]
        self._start = 0
        self._prefix = [None]
        self._counts = [0]
        self._recompute_from(0)
        if self.tracer is not None:
            self.tracer.count("subtract_on_evict.compactions")

    # ------------------------------------------------------------------
    # public API (FlatFAT-compatible)

    def __len__(self) -> int:
        return len(self._leaves) - self._start

    def leaf(self, index: int) -> Any:
        if not 0 <= index < len(self):
            raise IndexError(f"leaf index {index} out of range (size {len(self)})")
        return self._leaves[self._start + index]

    def leaves(self) -> List[Any]:
        return self._leaves[self._start :]

    def append(self, partial: Any) -> None:
        self._leaves.append(partial)
        self._prefix.append(self._merge(self._prefix[-1], partial))
        self._counts.append(self._counts[-1] + (0 if partial is None else 1))

    def extend(self, partials: Sequence[Any]) -> None:
        for partial in partials:
            self.append(partial)

    def update(self, index: int, partial: Any) -> None:
        if not 0 <= index < len(self):
            raise IndexError(f"leaf index {index} out of range (size {len(self)})")
        physical = self._start + index
        self._leaves[physical] = partial
        # O(1) for the head write (the newest leaf); O(suffix)
        # otherwise (only forced out-of-order usage reaches the middle).
        self._recompute_from(physical)

    def insert(self, index: int, partial: Any) -> None:
        if not 0 <= index <= len(self):
            raise IndexError(f"insert index {index} out of range (size {len(self)})")
        physical = self._start + index
        self._leaves.insert(physical, partial)
        self._recompute_from(physical)

    def remove(self, index: int) -> Any:
        if not 0 <= index < len(self):
            raise IndexError(f"leaf index {index} out of range (size {len(self)})")
        physical = self._start + index
        removed = self._leaves.pop(physical)
        self._recompute_from(physical)
        return removed

    def remove_front(self, count: int) -> None:
        if count <= 0:
            return
        if count > len(self):
            raise IndexError(f"cannot remove {count} of {len(self)} leaves")
        self._start += count
        if self._start >= self._COMPACT_MIN and self._start * 2 >= len(self._leaves):
            self._compact()

    def query(self, lo: int, hi: int) -> Any:
        size = len(self)
        if lo < 0 or hi > size:
            raise IndexError(f"query range [{lo}, {hi}) out of bounds (size {size})")
        if lo >= hi:
            return None
        if self.tracer is not None:
            self.tracer.count("subtract_on_evict.queries")
        a = self._start + lo
        b = self._start + hi
        counts = self._counts
        if counts[b] == counts[a]:
            return None  # only empty leaves in range
        prefix_b = self._prefix[b]
        if counts[a] == 0:
            return prefix_b
        return self._function.invert(prefix_b, self._prefix[a])

    def root(self) -> Any:
        if len(self) == 0:
            return None
        return self.query(0, len(self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SubtractOnEvictKernel(size={len(self)}, "
            f"evicted={self._start}, fn={self._function.name})"
        )


class _FingerNode:
    """One finger-tree node: a leaf bucket of partials or an inner fan-out.

    ``sizes[i]`` mirrors ``items[i].size`` on inner nodes so positional
    descent never touches grandchildren; ``agg`` caches the merged
    aggregate of all non-``None`` partials below and is repaired lazily
    (``dirty``) so bursts of point updates between queries cost zero
    combines.
    """

    __slots__ = ("leaf", "items", "sizes", "size", "agg", "dirty")

    def __init__(self, leaf: bool, items: list, sizes: Optional[List[int]] = None) -> None:
        self.leaf = leaf
        self.items = items
        self.sizes = sizes
        self.size = len(items) if leaf else sum(sizes or ())
        self.agg: Any = None
        self.dirty = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self.leaf else f"inner×{len(self.items)}"
        return f"_FingerNode({kind}, size={self.size})"


class FingerTreeKernel:
    """Finger B-tree over slice partials for out-of-order workloads.

    A counted B-tree keyed by *position*: every inner node stores its
    children's subtree sizes, so ``insert(index, ...)`` descends directly
    to the owning leaf bucket in O(height) with no per-leaf shifting --
    the FiBA regime where a late record at distance ``d`` from the tail
    costs O(log d) instead of FlatFAT's O(s) leaf shift + full rebuild.
    Three properties carry the out-of-order hot path:

    * **Lazy up-propagation**: mutations only invalidate the cached
      aggregates on the root path (``dirty`` flags, zero combines);
      the next range query repairs exactly the still-dirty nodes it
      touches (counted as ``finger_tree.spine_repairs``).  A burst of k
      point updates between two watermarks therefore costs k spine
      *markings* but at most one spine *repair*.
    * **Bulk eviction**: ``remove_front(count)`` drops the expired
      prefix in one top-down walk, unlinking whole subtrees instead of
      popping leaves one by one -- O(height + dropped nodes), against
      FlatFAT's full O(s) rebuild per watermark.
    * **Finger appends**: in-order appends descend the right spine only
      and fill the tail bucket in place; a bucket split touches just
      that spine, so sustained in-order load is amortised O(1) combines
      (none -- aggregates stay lazy) plus an O(height) size walk.

    Deletions never rebalance (they only unlink emptied nodes and
    collapse single-child roots): tree height is bounded by the insert
    history, which keeps ``remove`` simple and safe for the slice
    manager's merge traffic while preserving balance under the
    grow-at-the-tail / evict-at-the-head streaming lifecycle.

    Only associativity is required; combine order is preserved
    everywhere, so non-commutative functions are legal.
    """

    __slots__ = ("_combine", "_root", "tracer")

    #: Leaf buckets split above this many partials.
    _LEAF_MAX = 32
    #: Inner nodes split above this many children.
    _NODE_MAX = 16

    def __init__(self, combine) -> None:
        self._combine = combine
        self._root = _FingerNode(True, [])
        #: Observability sink (``finger_tree.*`` counters); ``None`` off.
        self.tracer = None

    # ------------------------------------------------------------------
    # internal helpers

    def _merge(self, left: Any, right: Any) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        return self._combine(left, right)

    def _node_agg(self, node: _FingerNode) -> Any:
        """The node's cached aggregate, repairing it if stale."""
        if not node.dirty:
            return node.agg
        agg: Any = None
        if node.leaf:
            for value in node.items:
                agg = self._merge(agg, value)
        else:
            for child in node.items:
                agg = self._merge(agg, self._node_agg(child))
        node.agg = agg
        node.dirty = False
        if self.tracer is not None:
            self.tracer.count("finger_tree.spine_repairs")
        return agg

    @staticmethod
    def _locate(node: _FingerNode, index: int) -> Tuple[int, int]:
        """Child position owning leaf ``index`` (index < node.size)."""
        sizes = node.sizes
        i = 0
        while index >= sizes[i]:
            index -= sizes[i]
            i += 1
        return i, index

    def _split(self, node: _FingerNode) -> _FingerNode:
        """Split an overfull node in half; returns the new right sibling."""
        half = len(node.items) // 2
        if node.leaf:
            right = _FingerNode(True, node.items[half:])
        else:
            right = _FingerNode(False, node.items[half:], node.sizes[half:])
            del node.sizes[half:]
        del node.items[half:]
        node.size = len(node.items) if node.leaf else sum(node.sizes)
        node.dirty = True
        return right

    def _insert_into(self, node: _FingerNode, index: int, partial: Any) -> Optional[_FingerNode]:
        """Recursive positional insert; returns a split-off right sibling."""
        node.dirty = True
        if node.leaf:
            node.items.insert(index, partial)
            node.size += 1
            if len(node.items) > self._LEAF_MAX:
                return self._split(node)
            return None
        sizes = node.sizes
        # index == node.size (append) must land at the tail of the last
        # child, so the strict scan stops at the final position.
        i = 0
        last = len(sizes) - 1
        while i < last and index > sizes[i]:
            index -= sizes[i]
            i += 1
        child = node.items[i]
        sibling = self._insert_into(child, index, partial)
        node.size += 1
        sizes[i] = child.size
        if sibling is not None:
            node.items.insert(i + 1, sibling)
            sizes.insert(i + 1, sibling.size)
            if len(node.items) > self._NODE_MAX:
                return self._split(node)
        return None

    def _insert_at(self, index: int, partial: Any) -> None:
        sibling = self._insert_into(self._root, index, partial)
        if sibling is not None:
            old = self._root
            self._root = _FingerNode(False, [old, sibling], [old.size, sibling.size])

    def _collapse_root(self) -> None:
        """Shrink the root while it is an inner node with a single child."""
        while not self._root.leaf and len(self._root.items) == 1:
            self._root = self._root.items[0]
        if self._root.size == 0 and not self._root.leaf:  # pragma: no cover - guard
            self._root = _FingerNode(True, [])

    # ------------------------------------------------------------------
    # public API (FlatFAT-compatible)

    def __len__(self) -> int:
        return self._root.size

    @property
    def height(self) -> int:
        """Tree height in levels (1 = a single leaf bucket)."""
        levels = 1
        node = self._root
        while not node.leaf:
            levels += 1
            node = node.items[0]
        return levels

    def leaf(self, index: int) -> Any:
        if not 0 <= index < self._root.size:
            raise IndexError(f"leaf index {index} out of range (size {self._root.size})")
        node = self._root
        while not node.leaf:
            i, index = self._locate(node, index)
            node = node.items[i]
        return node.items[index]

    def leaves(self) -> List[Any]:
        out: List[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(node.items)
            else:
                stack.extend(reversed(node.items))
        return out

    def append(self, partial: Any) -> None:
        self._insert_at(self._root.size, partial)

    def extend(self, partials: Sequence[Any]) -> None:
        for partial in partials:
            self._insert_at(self._root.size, partial)

    def insert(self, index: int, partial: Any) -> None:
        size = self._root.size
        if not 0 <= index <= size:
            raise IndexError(f"insert index {index} out of range (size {size})")
        if index < size and self.tracer is not None:
            self.tracer.count("finger_tree.ooo_inserts")
        self._insert_at(index, partial)

    def update(self, index: int, partial: Any) -> None:
        if not 0 <= index < self._root.size:
            raise IndexError(f"leaf index {index} out of range (size {self._root.size})")
        node = self._root
        while not node.leaf:
            node.dirty = True
            i, index = self._locate(node, index)
            node = node.items[i]
        node.dirty = True
        node.items[index] = partial

    def _remove_from(self, node: _FingerNode, index: int) -> Any:
        node.dirty = True
        if node.leaf:
            removed = node.items.pop(index)
            node.size -= 1
            return removed
        i, inner = self._locate(node, index)
        child = node.items[i]
        removed = self._remove_from(child, inner)
        node.size -= 1
        if child.size == 0:
            node.items.pop(i)
            node.sizes.pop(i)
        else:
            node.sizes[i] = child.size
        return removed

    def remove(self, index: int) -> Any:
        if not 0 <= index < self._root.size:
            raise IndexError(f"leaf index {index} out of range (size {self._root.size})")
        removed = self._remove_from(self._root, index)
        self._collapse_root()
        return removed

    def remove_front(self, count: int) -> None:
        """Evict the oldest ``count`` leaves in one top-down walk.

        Whole subtrees covered by the expired prefix are unlinked
        without visiting their leaves; only the one boundary path is
        descended.  This is the FiBA bulk-eviction result: cost
        O(height + unlinked children), independent of the kernel size.
        """
        size = self._root.size
        if count <= 0:
            return
        if count > size:
            raise IndexError(f"cannot remove {count} of {size} leaves")
        if self.tracer is not None:
            self.tracer.count("finger_tree.bulk_evictions")
        if count == size:
            self._root = _FingerNode(True, [])
            return
        node = self._root
        remaining = count
        while True:
            node.dirty = True
            node.size -= remaining
            if node.leaf:
                del node.items[:remaining]
                break
            drop = 0
            while node.sizes[drop] <= remaining:
                remaining -= node.sizes[drop]
                drop += 1
            if drop:
                del node.items[:drop]
                del node.sizes[:drop]
            if remaining == 0:
                break
            node.sizes[0] -= remaining
            node = node.items[0]
        self._collapse_root()

    def _query_node(self, node: _FingerNode, lo: int, hi: int) -> Any:
        """Combine leaves ``[lo, hi)`` below ``node``, left-to-right."""
        if lo <= 0 and hi >= node.size:
            return self._node_agg(node)
        if node.leaf:
            acc: Any = None
            for value in node.items[lo:hi]:
                acc = self._merge(acc, value)
            return acc
        acc = None
        for child, child_size in zip(node.items, node.sizes):
            if hi <= 0:
                break
            if lo < child_size:
                part = self._query_node(child, max(lo, 0), min(hi, child_size))
                acc = self._merge(acc, part)
            lo -= child_size
            hi -= child_size
        return acc

    def query(self, lo: int, hi: int) -> Any:
        size = self._root.size
        if lo < 0 or hi > size:
            raise IndexError(f"query range [{lo}, {hi}) out of bounds (size {size})")
        if lo >= hi:
            return None
        if self.tracer is not None:
            self.tracer.count("finger_tree.queries")
        return self._query_node(self._root, lo, hi)

    def root(self) -> Any:
        if self._root.size == 0:
            return None
        return self._node_agg(self._root)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FingerTreeKernel(size={self._root.size}, height={self.height})"


def make_kernel(kind: Union[KernelKind, str], function: AggregateFunction):
    """Instantiate the kernel backing one function's slice partials.

    Raises :class:`ValueError` for combinations that cannot be correct
    (subtract-on-evict without an ``invert``); combinations that are
    merely slow (two-stacks under splits) are allowed, so forced
    overrides can exercise every kernel on every stream.
    """
    kind = KernelKind.coerce(kind)
    if kind is KernelKind.FLAT_FAT:
        return FlatFAT(function.combine)
    if kind is KernelKind.TWO_STACKS:
        return TwoStacksKernel(function.combine)
    if kind is KernelKind.FINGER_TREE:
        if not function.associative:
            raise ValueError(
                f"kernel {kind.value!r} requires an associative aggregation "
                f"(its cached subtree aggregates regroup the combines), "
                f"got {function.name!r}"
            )
        return FingerTreeKernel(function.combine)
    if not function.invertible:
        raise ValueError(
            f"kernel {kind.value!r} requires an invertible aggregation, "
            f"got {function.name!r}"
        )
    return SubtractOnEvictKernel(function)
