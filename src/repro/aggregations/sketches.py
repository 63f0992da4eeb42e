"""Additional aggregations: top-k, distinct counting, products.

These extend the Tangwongsan catalogue with functions common in
monitoring workloads.  They slot into the same lift/combine/lower
framework and demonstrate Section 5.4.1's extension point: adding an
aggregation requires no change to the slicing core.
"""

from __future__ import annotations

import heapq
from typing import Any, FrozenSet, List, Tuple

from .base import AggregateFunction, AggregationClass

__all__ = ["TopK", "CountDistinct", "Product"]


class TopK(AggregateFunction[float, Tuple[float, ...], List[float]]):
    """The k largest values of the window (holistic).

    Partials are descending-sorted tuples of at most ``k`` values, so a
    combine is a bounded merge: memory stays O(k) per slice even though
    the function is classified holistic (its partial depends on
    individual input values, not a fixed-size summary of them).
    """

    __slots__ = ("k", "name")

    commutative = True
    invertible = False
    kind = AggregationClass.HOLISTIC

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.name = f"top-{k}"

    def signature(self) -> tuple:
        return (type(self), self.k)

    def lift(self, value: float) -> Tuple[float, ...]:
        return (value,)

    def combine(self, left: Tuple[float, ...], right: Tuple[float, ...]) -> Tuple[float, ...]:
        merged = heapq.nlargest(self.k, left + right)
        return tuple(merged)

    def lower(self, partial: Tuple[float, ...]) -> List[float]:
        return list(partial)

    def identity(self) -> Tuple[float, ...]:
        return ()

    def empty_result(self) -> List[float]:
        return []


class CountDistinct(AggregateFunction[Any, FrozenSet[Any], int]):
    """Exact distinct count via frozen sets (holistic).

    Useful as a workload with partial-aggregate size proportional to
    the value cardinality -- the property the Figure 14 datasets vary.
    """

    __slots__ = ()

    name = "count distinct"
    commutative = True
    invertible = False
    kind = AggregationClass.HOLISTIC

    def lift(self, value: Any) -> FrozenSet[Any]:
        return frozenset((value,))

    def combine(self, left: FrozenSet[Any], right: FrozenSet[Any]) -> FrozenSet[Any]:
        return left | right

    def lower(self, partial: FrozenSet[Any]) -> int:
        return len(partial)

    def identity(self) -> FrozenSet[Any]:
        return frozenset()

    def empty_result(self) -> int:
        return 0


class Product(AggregateFunction[float, Tuple[float, int], float]):
    """Product of all values, invertible despite zeros.

    Plain division breaks on zero inputs, so the partial tracks the
    product of the *non-zero* values plus a zero counter -- a classic
    trick to keep an "almost invertible" function invertible.
    """

    __slots__ = ()

    name = "product"
    commutative = True
    invertible = True
    #: Division does not exactly reverse multiplication in floats, so
    #: subtract-based eviction drifts from recomputation.
    exact_invert = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> Tuple[float, int]:
        if value == 0:
            return (1.0, 1)
        return (float(value), 0)

    def combine(self, left: Tuple[float, int], right: Tuple[float, int]) -> Tuple[float, int]:
        return (left[0] * right[0], left[1] + right[1])

    def lower(self, partial: Tuple[float, int]) -> float:
        nonzero, zeros = partial
        return 0.0 if zeros > 0 else nonzero

    def invert(self, partial: Tuple[float, int], removed: Tuple[float, int]) -> Tuple[float, int]:
        nonzero, zeros = partial
        removed_nonzero, removed_zeros = removed
        return (nonzero / removed_nonzero, zeros - removed_zeros)

    def identity(self) -> Tuple[float, int]:
        return (1.0, 0)
