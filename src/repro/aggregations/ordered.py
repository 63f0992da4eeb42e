"""Order-sensitive (non-commutative) aggregations.

These exercise branch (1) of the decision tree in Figure 4: on
out-of-order streams a non-commutative aggregation forces the slicer to
retain raw records so slice aggregates can be recomputed in event-time
order when a late record lands in the middle of a slice.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from .base import AggregateFunction, AggregationClass

__all__ = ["First", "Last", "CollectList", "ConcatString"]


class First(AggregateFunction[Any, Any, Any]):
    """The first value in stream order."""

    __slots__ = ()

    name = "first"
    commutative = False
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: Any) -> Any:
        return value

    def combine(self, left: Any, right: Any) -> Any:
        return left

    def lower(self, partial: Any) -> Any:
        return partial


class Last(AggregateFunction[Any, Any, Any]):
    """The last value in stream order."""

    __slots__ = ()

    name = "last"
    commutative = False
    invertible = False
    kind = AggregationClass.ALGEBRAIC

    def lift(self, value: Any) -> Any:
        return value

    def combine(self, left: Any, right: Any) -> Any:
        return right

    def lower(self, partial: Any) -> Any:
        return partial


class CollectList(AggregateFunction[Any, Tuple[Any, ...], List[Any]]):
    """Collect all values in stream order (holistic and non-commutative).

    Partials are tuples so they stay immutable under sharing.
    """

    __slots__ = ()

    name = "collect"
    commutative = False
    invertible = False
    kind = AggregationClass.HOLISTIC

    def lift(self, value: Any) -> Tuple[Any, ...]:
        return (value,)

    def combine(self, left: Tuple[Any, ...], right: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return left + right

    def lower(self, partial: Tuple[Any, ...]) -> List[Any]:
        return list(partial)

    def identity(self) -> Tuple[Any, ...]:
        return ()

    def empty_result(self) -> List[Any]:
        return []


class ConcatString(AggregateFunction[str, str, str]):
    """Concatenate string values in stream order."""

    __slots__ = ("separator",)

    name = "concat"
    commutative = False
    invertible = False
    kind = AggregationClass.HOLISTIC

    def __init__(self, separator: str = "") -> None:
        self.separator = separator

    def signature(self) -> tuple:
        return (type(self), self.separator)

    def lift(self, value: str) -> str:
        return str(value)

    def combine(self, left: str, right: str) -> str:
        return left + self.separator + right

    def lower(self, partial: str) -> str:
        return partial

    def empty_result(self) -> str:
        return ""
