"""Holistic aggregations: medians and arbitrary percentiles.

Holistic functions have unbounded partial-aggregate size (Section 4.2).
Following Section 5.4.1 of the paper, we keep the values of a slice
*sorted* and apply *run-length encoding* so that

* merging two slices is a linear merge of sorted runs instead of a
  re-sort, and merging (or subtracting) a few runs into many is one
  bisect per run plus block copies -- what a record added to a
  high-cardinality slice, or the one slice a sliding window gains or
  loses, costs,
* merging a whole window's slices is one pass that adds up the counts
  per value and sorts the distinct values once
  (:meth:`RleRuns.merge_all`), and
* memory shrinks with the number of distinct values -- the effect that
  makes the low-cardinality machine dataset faster than the football
  dataset in Figure 14.

:class:`RleRuns` is the shared partial-aggregate representation; the
ablation benchmark ``test_ablation_rle`` compares it against plain
sorted lists (:class:`SortedValues`).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple

from .base import AggregateFunction, AggregationClass

__all__ = ["RleRuns", "SortedValues", "Median", "Percentile", "PlainMedian"]

#: ``merge`` / ``subtract`` bisect the smaller operand's k runs into the
#: larger one's d (O(k log d) plus block copies) instead of walking both
#: lists when ``k * _BISECT_IN_RATIO <= d``.  Measured on this host
#: (median of 5 random operand pairs, d = 36 and 1 024, time relative to
#: the walk): merge 0.14-0.45 at k = d/8, 0.7-0.8 at d/4, 0.95-1.3 at
#: d/2, 1.3-2.3 at k = d; subtract 0.5-0.65 at d/8, 0.9-1.15 at d/4,
#: 2.0-3.4 at k = d.  Results are identical either way.
_BISECT_IN_RATIO = 4


class RleRuns:
    """A sorted multiset encoded as run-length ``(value, count)`` pairs.

    ``total`` is the sum of the counts; builders that already know it
    pass it along instead of having it re-summed.
    """

    __slots__ = ("runs", "total")

    def __init__(
        self,
        runs: Optional[List[Tuple[float, int]]] = None,
        total: Optional[int] = None,
    ) -> None:
        self.runs: List[Tuple[float, int]] = runs if runs is not None else []
        self.total = sum(count for _, count in self.runs) if total is None else total

    @classmethod
    def of(cls, value: float) -> "RleRuns":
        """Build a single-value multiset."""
        return cls([(value, 1)], 1)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "RleRuns":
        """Build a multiset from an arbitrary (unsorted) sequence."""
        runs: List[Tuple[float, int]] = []
        for value in sorted(values):
            if runs and runs[-1][0] == value:
                # The first of equal values stays the representative,
                # as in a left fold of merges (the sort is stable).
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((value, 1))
        return cls(runs, len(values))

    @classmethod
    def merge_all(cls, parts: Iterable["RleRuns"]) -> "RleRuns":
        """Merge any number of multisets, given in stream order, at once.

        Equal to folding :meth:`merge` over ``parts`` from the left --
        of values that compare equal (``1`` / ``1.0``, ``0.0`` /
        ``-0.0``) the first one seen represents the run on both paths --
        but each run is touched once and the distinct values are sorted
        once, instead of re-walking a growing list per part.
        """
        counts: Dict[float, int] = {}
        total = 0
        for part in parts:
            total += part.total
            for value, count in part.runs:
                counts[value] = counts.get(value, 0) + count
        return cls(sorted(counts.items()), total)

    def merge(self, other: "RleRuns") -> "RleRuns":
        """Merge of two sorted run lists, coalescing equal values (of
        which the left one represents the run)."""
        left, right = self.runs, other.runs
        left_size, right_size = len(left), len(right)
        merged: List[Tuple[float, int]] = []
        if right_size * _BISECT_IN_RATIO <= left_size:
            large, small, small_is_left = left, right, False
        elif left_size * _BISECT_IN_RATIO <= right_size:
            large, small, small_is_left = right, left, True
        else:
            i = j = 0
            while i < left_size and j < right_size:
                lv, lc = left[i]
                rv, rc = right[j]
                if lv < rv:
                    value, count = lv, lc
                    i += 1
                elif rv < lv:
                    value, count = rv, rc
                    j += 1
                else:
                    value, count = lv, lc + rc
                    i += 1
                    j += 1
                if merged and merged[-1][0] == value:
                    merged[-1] = (value, merged[-1][1] + count)
                else:
                    merged.append((value, count))
            merged.extend(left[i:])
            merged.extend(right[j:])
            return RleRuns(merged, self.total + other.total)
        # One bisect per run of the small side; the runs of the large
        # side between two hits are copied as a block.  ``(value,)``
        # sorts right before ``(value, count)``, so the run list is
        # bisected as it is.
        size = len(large)
        position = 0
        for run in small:
            value = run[0]
            at = bisect.bisect_left(large, (value,), position)
            merged.extend(large[position:at])
            if at < size and large[at][0] == value:
                present_value, present = large[at]
                merged.append((value if small_is_left else present_value, run[1] + present))
                position = at + 1
            else:
                merged.append(run)
                position = at
        merged.extend(large[position:])
        return RleRuns(merged, self.total + other.total)

    def subtract(self, other: "RleRuns") -> "RleRuns":
        """Multiset difference ``self - other`` (``other`` must be contained)."""
        runs = self.runs
        result: List[Tuple[float, int]] = []
        if len(other.runs) * _BISECT_IN_RATIO > len(runs):
            removal = {value: count for value, count in other.runs}
            for value, count in runs:
                remaining = count - removal.pop(value, 0)
                if remaining < 0:
                    raise ValueError(
                        f"cannot remove {count - remaining}x {value}: only {count} present"
                    )
                if remaining:
                    result.append((value, remaining))
            if removal:
                missing = next(iter(removal))
                raise ValueError(f"cannot remove value {missing}: not present")
            return RleRuns(result, self.total - other.total)
        # As in :meth:`merge`, with the errors of the walk above: an
        # overdrawn run is reported before a missing value, each the
        # first of its kind.
        size = len(runs)
        position = 0
        absent: List[float] = []
        for value, count in other.runs:
            at = bisect.bisect_left(runs, (value,), position)
            if at < size and runs[at][0] == value:
                present_value, present = runs[at]
                if count > present:
                    raise ValueError(
                        f"cannot remove {count}x {present_value}: only {present} present"
                    )
                result.extend(runs[position:at])
                if present > count:
                    result.append((present_value, present - count))
                position = at + 1
            else:
                absent.append(value)
        if absent:
            raise ValueError(f"cannot remove value {absent[0]}: not present")
        result.extend(runs[position:])
        return RleRuns(result, self.total - other.total)

    def slide(self, left: Sequence["RleRuns"], entered: Sequence["RleRuns"]) -> "RleRuns":
        """Subtract every multiset of ``left``, then merge every one of
        ``entered``, editing this one in place; returns ``self``.

        Equal to ``self.subtract(l0).subtract(l1)...merge(e0)...``: the
        same runs and representatives.  Each changed run costs one
        bisect, and a count set, a ``del`` or an ``insert`` (memmove)
        instead of a new run list.  The whole removal is checked before
        anything is edited: a removal the chain of :meth:`subtract`
        refuses is handed to that chain, on the untouched runs, to raise
        its own ``ValueError``.
        """
        runs = self.runs
        size = len(runs)
        total = self.total
        # What the removal leaves of each run it reaches, by index.  The
        # counts are positive, so the chain refuses a removal exactly
        # when the sum over all parts overdraws a run or misses a value.
        remaining: Dict[int, int] = {}
        for removed in left:
            total -= removed.total
            for value, count in removed.runs:
                at = bisect.bisect_left(runs, (value,))
                if at == size or runs[at][0] != value:
                    self._refuse(left)
                count = remaining.get(at, runs[at][1]) - count
                if count < 0:
                    self._refuse(left)
                remaining[at] = count
        # From the back, so a ``del`` moves no index still to be read.
        for at in sorted(remaining, reverse=True):
            count = remaining[at]
            if count:
                runs[at] = (runs[at][0], count)
            else:
                del runs[at]
        for added in entered:
            total += added.total
            position = 0
            for run in added.runs:
                value = run[0]
                at = bisect.bisect_left(runs, (value,), position)
                if at < len(runs) and runs[at][0] == value:
                    present_value, present = runs[at]
                    runs[at] = (present_value, present + run[1])
                else:
                    runs.insert(at, run)
                position = at + 1
        self.total = total
        return self

    def _refuse(self, left: Sequence["RleRuns"]) -> NoReturn:
        """Raise what subtracting ``left`` part by part raises."""
        partial = self
        for removed in left:
            partial = partial.subtract(removed)
        raise AssertionError(f"the subtract chain accepted a removal the slide refused: {left!r}")

    def select(self, index: int) -> float:
        """Return the ``index``-th smallest value (zero-based)."""
        if index < 0 or index >= self.total:
            raise IndexError(f"rank {index} out of range for {self.total} values")
        seen = 0
        for value, count in self.runs:
            seen += count
            if index < seen:
                return value
        raise AssertionError("unreachable: run totals inconsistent")

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            raise ValueError("quantile of an empty multiset")
        rank = min(self.total - 1, max(0, int(q * self.total)))
        return self.select(rank)

    def distinct(self) -> int:
        """Number of distinct values (RLE run count)."""
        return len(self.runs)

    def __len__(self) -> int:
        return self.total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RleRuns) and self.runs == other.runs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RleRuns(total={self.total}, distinct={len(self.runs)})"


class SortedValues:
    """Plain sorted-list multiset -- the non-RLE ablation baseline."""

    __slots__ = ("values",)

    def __init__(self, values: Optional[List[float]] = None) -> None:
        self.values: List[float] = values if values is not None else []

    @classmethod
    def of(cls, value: float) -> "SortedValues":
        """Build a single-value multiset."""
        return cls([value])

    def merge(self, other: "SortedValues") -> "SortedValues":
        """Linear merge of two sorted lists."""
        merged: List[float] = []
        left, right = self.values, other.values
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return SortedValues(merged)

    def subtract(self, other: "SortedValues") -> "SortedValues":
        """Multiset difference (every removed value must be present)."""
        result = list(self.values)
        for value in other.values:
            position = bisect.bisect_left(result, value)
            if position >= len(result) or result[position] != value:
                raise ValueError(f"cannot remove value {value}: not present")
            result.pop(position)
        return SortedValues(result)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1]."""
        if not self.values:
            raise ValueError("quantile of an empty multiset")
        rank = min(len(self.values) - 1, max(0, int(q * len(self.values))))
        return self.values[rank]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortedValues) and self.values == other.values


class Percentile(AggregateFunction[float, RleRuns, float]):
    """Nearest-rank percentile over RLE-encoded sorted runs.

    Invertible in the multiset sense (runs can be subtracted), which the
    count-shift path and the window manager's sliding emit exploit.  The
    partial holds every value of its slice, so a holistic query adds no
    record store of its own (Figure 4 decides that from the window,
    the measure and the stream order).

    A multiset is exact in any grouping, so the bulk hooks are real
    shortcuts here: :meth:`fold_values` sorts a run of values once and
    :meth:`combine_all` merges a window's slices in one pass, both equal
    to the sequential fold.  NaN is outside the contract on every path:
    it is unordered, so the pairwise merge treats it as equal to any
    value and the bulk merge as equal to none.

    A partial is a value that slices, kernel leaves and shared plans
    hold alike, with one exception: a sliding window's carry keeps a
    :meth:`private_copy` (a new run list) and :meth:`slide_in_place`
    edits it, one bisect per run that left or entered
    (:meth:`RleRuns.slide`) instead of a ``subtract`` and a ``merge``
    that each build a new list.

    Values that compare equal (``1`` / ``1.0`` / ``True``, ``0.0`` /
    ``-0.0``) are one run, represented by the first of them the
    multiset saw.  A window folded from its slices has seen its own
    records only; a window slid from the previous one has seen
    everything since its carry was seeded, so an equal value that has
    left the window can still represent the run.  The two results
    always compare equal and can differ in type or sign; compare
    results with ``==``, not by ``repr``.
    """

    __slots__ = ("q", "name")

    commutative = True
    invertible = True
    kind = AggregationClass.HOLISTIC

    def __init__(self, q: float) -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self.q = q
        self.name = f"{int(round(q * 100))}-percentile"

    def lift(self, value: float) -> RleRuns:
        return RleRuns.of(value)

    def combine(self, left: RleRuns, right: RleRuns) -> RleRuns:
        return left.merge(right)

    def lower(self, partial: RleRuns) -> Optional[float]:
        total = partial.total
        if total == 0:
            return None
        # The nearest rank of RleRuns.quantile; ``q`` was checked at construction.
        return partial.select(min(total - 1, int(self.q * total)))

    def invert(self, partial: RleRuns, removed: RleRuns) -> RleRuns:
        return partial.subtract(removed)

    def private_copy(self, partial: RleRuns) -> RleRuns:
        # The runs are tuples: a new list shares nothing mutable.
        return RleRuns(partial.runs.copy(), partial.total)

    def slide_in_place(
        self, partial: RleRuns, left: Sequence[RleRuns], entered: Sequence[RleRuns]
    ) -> RleRuns:
        return partial.slide(left, entered)

    def identity(self) -> RleRuns:
        return RleRuns()

    def signature(self) -> tuple:
        return (type(self), self.q)

    def accumulate(self, partial: Optional[RleRuns], value: float) -> RleRuns:
        # ``partial.merge(RleRuns.of(value))`` without the second
        # multiset: one bisect into a copy of the run list.
        if partial is None:
            return RleRuns.of(value)
        runs = partial.runs.copy()
        at = bisect.bisect_left(runs, (value,))
        if at < len(runs) and runs[at][0] == value:
            present_value, present = runs[at]
            runs[at] = (present_value, present + 1)
        else:
            runs.insert(at, (value, 1))
        return RleRuns(runs, partial.total + 1)

    def fold_values(self, partial: Optional[RleRuns], values: Sequence[float]) -> Optional[RleRuns]:
        if not values:
            return partial
        runs = RleRuns.from_values(values)
        return runs if partial is None else partial.merge(runs)

    def combine_all(self, partials: Sequence[RleRuns]) -> Optional[RleRuns]:
        if len(partials) < 2:
            return partials[0] if partials else None
        return RleRuns.merge_all(partials)


class Median(Percentile):
    """The 50th percentile, the paper's canonical holistic function."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(0.5)
        self.name = "median"


class PlainMedian(AggregateFunction[float, SortedValues, float]):
    """Median over plain sorted lists (ablation: no run-length encoding)."""

    __slots__ = ()

    name = "median (no RLE)"
    commutative = True
    invertible = True
    kind = AggregationClass.HOLISTIC

    def lift(self, value: float) -> SortedValues:
        return SortedValues.of(value)

    def combine(self, left: SortedValues, right: SortedValues) -> SortedValues:
        return left.merge(right)

    def lower(self, partial: SortedValues) -> Optional[float]:
        if not len(partial):
            return None
        return partial.quantile(0.5)

    def invert(self, partial: SortedValues, removed: SortedValues) -> SortedValues:
        return partial.subtract(removed)

    def identity(self) -> SortedValues:
        return SortedValues()
