"""Distributive and simple algebraic aggregations.

These correspond to the aggregation catalogue of Tangwongsan et al.
(PVLDB 2015) that the paper benchmarks in Figure 13: Sum, Count, Average,
Min, Max, and the deliberately crippled ``SumWithoutInvert`` used in the
paper to show the cost of losing invertibility on count-based windows.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any, Optional, Tuple

from .base import AggregateFunction, AggregationClass

__all__ = [
    "Sum",
    "SumWithoutInvert",
    "Count",
    "Average",
    "Min",
    "Max",
]


class Sum(AggregateFunction[float, float, float]):
    """Invertible, commutative, distributive sum."""

    __slots__ = ()

    name = "sum"
    commutative = True
    invertible = True
    kind = AggregationClass.DISTRIBUTIVE

    def lift(self, value: float) -> float:
        return value

    def combine(self, left: float, right: float) -> float:
        return left + right

    def lower(self, partial: float) -> float:
        return partial

    def invert(self, partial: float, removed: float) -> float:
        return partial - removed

    def identity(self) -> float:
        return 0

    def accumulate(self, partial, value):
        return value if partial is None else partial + value

    def fold_values(self, partial, values):
        # ``reduce(add, ...)`` is the same left-to-right addition chain
        # as repeated ``combine``.  The builtin ``sum`` is not: since
        # Python 3.12 it compensates float rounding.  Seeding from the
        # first value avoids a spurious ``0 + v`` step.
        if partial is None:
            return reduce(add, values) if values else None
        return reduce(add, values, partial)


class SumWithoutInvert(Sum):
    """Sum with invertibility disabled (the paper's "sum w/o invert").

    Used to measure the recomputation cost incurred by non-invertible
    aggregations whose invert would *always* change the aggregate
    (Figure 13): every record shift between count-based slices forces a
    full recomputation of the slice aggregate.
    """

    __slots__ = ()

    name = "sum w/o invert"
    invertible = False

    def invert(self, partial: float, removed: float) -> float:
        raise NotImplementedError("sum w/o invert deliberately lacks invert")


class Count(AggregateFunction[Any, int, int]):
    """Invertible, commutative, distributive count."""

    __slots__ = ()

    name = "count"
    commutative = True
    invertible = True
    kind = AggregationClass.DISTRIBUTIVE

    def lift(self, value: Any) -> int:
        return 1

    def combine(self, left: int, right: int) -> int:
        return left + right

    def lower(self, partial: int) -> int:
        return partial

    def invert(self, partial: int, removed: int) -> int:
        return partial - removed

    def identity(self) -> int:
        return 0

    def empty_result(self) -> int:
        return 0

    def accumulate(self, partial, value):
        return 1 if partial is None else partial + 1

    def fold_values(self, partial, values):
        if not values:
            return partial
        return len(values) if partial is None else partial + len(values)


class Average(AggregateFunction[float, Tuple[float, int], float]):
    """Algebraic average: the partial is a ``(sum, count)`` pair."""

    __slots__ = ()

    name = "avg"
    commutative = True
    invertible = True
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> Tuple[float, int]:
        return (value, 1)

    def combine(self, left: Tuple[float, int], right: Tuple[float, int]) -> Tuple[float, int]:
        return (left[0] + right[0], left[1] + right[1])

    def lower(self, partial: Tuple[float, int]) -> Optional[float]:
        total, count = partial
        if count == 0:
            return None
        return total / count

    def invert(self, partial: Tuple[float, int], removed: Tuple[float, int]) -> Tuple[float, int]:
        return (partial[0] - removed[0], partial[1] - removed[1])

    def identity(self) -> Tuple[float, int]:
        return (0.0, 0)

    def accumulate(self, partial, value):
        return (value, 1) if partial is None else (partial[0] + value, partial[1] + 1)

    def fold_values(self, partial, values):
        if not values:
            return partial
        if partial is None:
            return (reduce(add, values), len(values))
        return (reduce(add, values, partial[0]), partial[1] + len(values))


class Min(AggregateFunction[float, float, float]):
    """Non-invertible, commutative, distributive minimum.

    Although min has no invert, removals rarely change the aggregate:
    the slice manager first checks whether the removed value *is* the
    current minimum and only then recomputes (Section 6.3.2, "impact of
    invertibility").  That check is :meth:`unaffected_by_removal`.
    """

    __slots__ = ()

    name = "min"
    commutative = True
    invertible = False
    kind = AggregationClass.DISTRIBUTIVE

    def lift(self, value: float) -> float:
        return value

    def combine(self, left: float, right: float) -> float:
        return left if left <= right else right

    def lower(self, partial: float) -> float:
        return partial

    def unaffected_by_removal(self, partial: float, removed_value: float) -> bool:
        """True when removing ``removed_value`` cannot change ``partial``."""
        return removed_value > partial

    def accumulate(self, partial, value):
        return partial if partial is not None and partial <= value else value

    def fold_values(self, partial, values):
        # Builtin ``min`` keeps the first minimal element, matching the
        # sequential combine's tie-break toward the earlier operand.
        if not values:
            return partial
        low = min(values)
        return low if partial is None else self.combine(partial, low)


class Max(AggregateFunction[float, float, float]):
    """Non-invertible, commutative, distributive maximum."""

    __slots__ = ()

    name = "max"
    commutative = True
    invertible = False
    kind = AggregationClass.DISTRIBUTIVE

    def lift(self, value: float) -> float:
        return value

    def combine(self, left: float, right: float) -> float:
        return left if left >= right else right

    def lower(self, partial: float) -> float:
        return partial

    def unaffected_by_removal(self, partial: float, removed_value: float) -> bool:
        """True when removing ``removed_value`` cannot change ``partial``."""
        return removed_value < partial

    def accumulate(self, partial, value):
        return partial if partial is not None and partial >= value else value

    def fold_values(self, partial, values):
        if not values:
            return partial
        high = max(values)
        return high if partial is None else self.combine(partial, high)
