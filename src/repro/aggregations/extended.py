"""Extended algebraic aggregations from Tangwongsan et al.'s catalogue.

Covers the remaining functions the paper benchmarks in Figure 13
(MinCount, MaxCount, ArgMin, ArgMax, GeoMean, StdDev) plus the M4
aggregation (Jugel et al., PVLDB 2014) that drives the dashboard
workload of Section 6.4.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

from .base import AggregateFunction, AggregationClass

__all__ = [
    "MinCount",
    "MaxCount",
    "ArgMin",
    "ArgMax",
    "GeometricMean",
    "PopulationStdDev",
    "SampleStdDev",
    "M4",
    "M4Partial",
]


class MinCount(AggregateFunction[float, Tuple[float, int], Tuple[float, int]]):
    """Minimum together with its multiplicity: ``(min, count_of_min)``."""

    __slots__ = ()

    name = "mincount"
    commutative = True
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> Tuple[float, int]:
        return (value, 1)

    def combine(self, left: Tuple[float, int], right: Tuple[float, int]) -> Tuple[float, int]:
        if left[0] < right[0]:
            return left
        if right[0] < left[0]:
            return right
        return (left[0], left[1] + right[1])

    def lower(self, partial: Tuple[float, int]) -> Tuple[float, int]:
        return partial

    def unaffected_by_removal(self, partial: Tuple[float, int], removed: Tuple[float, int]) -> bool:
        return removed[0] > partial[0]


class MaxCount(AggregateFunction[float, Tuple[float, int], Tuple[float, int]]):
    """Maximum together with its multiplicity: ``(max, count_of_max)``."""

    __slots__ = ()

    name = "maxcount"
    commutative = True
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> Tuple[float, int]:
        return (value, 1)

    def combine(self, left: Tuple[float, int], right: Tuple[float, int]) -> Tuple[float, int]:
        if left[0] > right[0]:
            return left
        if right[0] > left[0]:
            return right
        return (left[0], left[1] + right[1])

    def lower(self, partial: Tuple[float, int]) -> Tuple[float, int]:
        return partial

    def unaffected_by_removal(self, partial: Tuple[float, int], removed: Tuple[float, int]) -> bool:
        return removed[0] < partial[0]


class ArgMin(AggregateFunction[Tuple[float, Any], Tuple[float, Any], Any]):
    """Argument of the minimum.

    Input values are ``(sort_key, payload)`` pairs; the result is the
    payload of the smallest key (earliest wins on ties, which keeps the
    function associative but makes it order-sensitive only on exact
    ties -- we treat it as commutative like the original catalogue).
    """

    __slots__ = ()

    name = "argmin"
    commutative = True
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: Tuple[float, Any]) -> Tuple[float, Any]:
        key, payload = value
        return (key, payload)

    def combine(self, left: Tuple[float, Any], right: Tuple[float, Any]) -> Tuple[float, Any]:
        return left if left[0] <= right[0] else right

    def lower(self, partial: Tuple[float, Any]) -> Any:
        return partial[1]

    def unaffected_by_removal(self, partial: Tuple[float, Any], removed_value: Tuple[float, Any]) -> bool:
        return removed_value[0] > partial[0]


class ArgMax(AggregateFunction[Tuple[float, Any], Tuple[float, Any], Any]):
    """Argument of the maximum (see :class:`ArgMin`)."""

    __slots__ = ()

    name = "argmax"
    commutative = True
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: Tuple[float, Any]) -> Tuple[float, Any]:
        key, payload = value
        return (key, payload)

    def combine(self, left: Tuple[float, Any], right: Tuple[float, Any]) -> Tuple[float, Any]:
        return left if left[0] >= right[0] else right

    def lower(self, partial: Tuple[float, Any]) -> Any:
        return partial[1]

    def unaffected_by_removal(self, partial: Tuple[float, Any], removed_value: Tuple[float, Any]) -> bool:
        return removed_value[0] < partial[0]


class GeometricMean(AggregateFunction[float, Tuple[float, int], float]):
    """Geometric mean via a ``(sum_of_logs, count)`` partial.

    Requires strictly positive inputs.  Invertible (subtract the log).
    """

    __slots__ = ()

    name = "geomean"
    commutative = True
    invertible = True
    #: Log-sum partials are non-integral floats even for integer inputs,
    #: so subtracting a log back out drifts from recomputation.
    exact_invert = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> Tuple[float, int]:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        return (math.log(value), 1)

    def combine(self, left: Tuple[float, int], right: Tuple[float, int]) -> Tuple[float, int]:
        return (left[0] + right[0], left[1] + right[1])

    def lower(self, partial: Tuple[float, int]) -> Optional[float]:
        log_sum, count = partial
        if count == 0:
            return None
        return math.exp(log_sum / count)

    def invert(self, partial: Tuple[float, int], removed: Tuple[float, int]) -> Tuple[float, int]:
        return (partial[0] - removed[0], partial[1] - removed[1])

    def identity(self) -> Tuple[float, int]:
        return (0.0, 0)


class PopulationStdDev(AggregateFunction[float, Tuple[float, float, int], float]):
    """Population standard deviation via ``(sum, sum_of_squares, count)``."""

    __slots__ = ()

    name = "stddev"
    commutative = True
    invertible = True
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> Tuple[float, float, int]:
        return (value, value * value, 1)

    def combine(
        self, left: Tuple[float, float, int], right: Tuple[float, float, int]
    ) -> Tuple[float, float, int]:
        return (left[0] + right[0], left[1] + right[1], left[2] + right[2])

    def lower(self, partial: Tuple[float, float, int]) -> Optional[float]:
        total, squares, count = partial
        if count == 0:
            return None
        mean = total / count
        variance = max(squares / count - mean * mean, 0.0)
        return math.sqrt(variance)

    def invert(
        self, partial: Tuple[float, float, int], removed: Tuple[float, float, int]
    ) -> Tuple[float, float, int]:
        return (partial[0] - removed[0], partial[1] - removed[1], partial[2] - removed[2])

    def identity(self) -> Tuple[float, float, int]:
        return (0.0, 0.0, 0)


class SampleStdDev(PopulationStdDev):
    """Sample (Bessel-corrected) standard deviation."""

    __slots__ = ()

    name = "sample stddev"

    def lower(self, partial: Tuple[float, float, int]) -> Optional[float]:
        total, squares, count = partial
        if count < 2:
            return None
        mean = total / count
        variance = max((squares - count * mean * mean) / (count - 1), 0.0)
        return math.sqrt(variance)


class M4Partial:
    """Partial aggregate of the M4 visualization aggregation.

    Tracks minimum, maximum, first, and last value of the covered stream
    segment; ``first``/``last`` are ordered by stream position, which the
    combine order supplies (M4 is *not* commutative).
    """

    __slots__ = ("min", "max", "first", "last")

    def __init__(self, minimum: float, maximum: float, first: float, last: float) -> None:
        self.min = minimum
        self.max = maximum
        self.first = first
        self.last = last

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, M4Partial)
            and (self.min, self.max, self.first, self.last)
            == (other.min, other.max, other.first, other.last)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"M4Partial(min={self.min}, max={self.max}, first={self.first}, last={self.last})"

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.min, self.max, self.first, self.last)


class M4(AggregateFunction[float, M4Partial, Tuple[float, float, float, float]]):
    """M4 time-series compression: (min, max, first, last) per window.

    The aggregation behind the live-dashboard workload (Section 6.4).
    ``first`` and ``last`` depend on stream order, so M4 is
    non-commutative: out-of-order streams force the general slicer to
    retain records (Figure 4, branch 1).
    """

    __slots__ = ()

    name = "m4"
    commutative = False
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: float) -> M4Partial:
        return M4Partial(value, value, value, value)

    def combine(self, left: M4Partial, right: M4Partial) -> M4Partial:
        return M4Partial(
            left.min if left.min <= right.min else right.min,
            left.max if left.max >= right.max else right.max,
            left.first,
            right.last,
        )

    def lower(self, partial: M4Partial) -> Tuple[float, float, float, float]:
        return partial.as_tuple()
