"""Workload characterization and the paper's decision logic.

Section 4 identifies four workload characteristics -- stream order,
aggregate function properties, windowing measure, and window type --
that determine both the applicability and the cost profile of window
aggregation techniques.  This module derives those characteristics from
a set of registered queries and encodes the paper's three decision
figures:

* **Figure 4** -- :func:`requires_tuple_storage`: when must the slicer
  keep raw records in addition to partial aggregates?
* **Figure 5** -- :func:`requires_splits`: which workloads can trigger
  slice splits?
* **Figure 6** -- :func:`removal_strategy`: when records must be removed
  from slices (count measures + out-of-order input), is an incremental
  invert possible or is a recomputation needed?
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Sequence

from ..aggregations.base import AggregateFunction, AggregationClass
from ..windows.base import ContextClass, WindowType
from .kernels import KernelKind
from .measures import MeasureKind

__all__ = [
    "Query",
    "WorkloadCharacteristics",
    "RemovalStrategy",
    "requires_tuple_storage",
    "requires_splits",
    "removal_strategy",
    "select_kernel",
]


class Query:
    """A registered window-aggregation query: window type + aggregation.

    Queries are the unit of sharing: every query registered with one
    operator instance shares the same slice chain, so adding a query
    never duplicates per-record work.
    """

    __slots__ = ("window", "aggregation", "query_id", "name")

    def __init__(
        self,
        window: WindowType,
        aggregation: AggregateFunction,
        query_id: int = -1,
        name: str = "",
    ) -> None:
        self.window = window
        self.aggregation = aggregation
        self.query_id = query_id
        self.name = name or f"{type(window).__name__}/{aggregation.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Query(id={self.query_id}, {self.name})"


class RemovalStrategy(enum.Enum):
    """How records are removed from slice aggregates (Figure 6)."""

    #: No removals ever happen for this workload.
    NOT_NEEDED = "not needed"
    #: Remove via the aggregation's incremental invert (cheap).
    INVERT = "invert"
    #: Recompute the slice aggregate from stored records (expensive).
    RECOMPUTE = "recompute"


def requires_tuple_storage(
    queries: Sequence[Query], stream_in_order: bool
) -> bool:
    """Figure 4: must raw records be kept in memory for this workload?

    In-order streams: records are needed only for forward context aware
    windows (future context can reveal past edges, forcing splits whose
    aggregates must be recomputed from records).

    Out-of-order streams: records are needed when (1) any aggregation is
    non-commutative, (2) any window is context aware but not a session
    window, or (3) any query uses a count-based measure.

    The aggregation class is not part of the decision.  A holistic
    partial already holds every value of its slice (Section 5.4.1), a
    context-free window never splits a slice, and every window that can
    split one keeps its records through the branches above.
    """
    for query in queries:
        if query.window.context is ContextClass.FORWARD_CONTEXT_AWARE and not query.window.is_session:
            return True
    if stream_in_order:
        return False
    for query in queries:
        if not query.aggregation.commutative:
            return True
        window = query.window
        context_aware = window.context is not ContextClass.CONTEXT_FREE
        if context_aware and not window.is_session:
            return True
        if window.measure_kind is MeasureKind.COUNT:
            return True
    return False


def requires_splits(queries: Sequence[Query], stream_in_order: bool) -> bool:
    """Figure 5: can this workload trigger slice splits?

    In-order streams: only forward context aware windows split slices.
    Out-of-order streams: every context aware window type except
    sessions can split (late records change backward context).  Context
    free windows never split.
    """
    for query in queries:
        window = query.window
        if window.context is ContextClass.FORWARD_CONTEXT_AWARE and not window.is_session:
            return True
        if not stream_in_order:
            if window.context is not ContextClass.CONTEXT_FREE and not window.is_session:
                return True
    return False


def removal_strategy(query: Query, stream_in_order: bool) -> RemovalStrategy:
    """Figure 6: how are records removed from this query's slices?

    Removals happen only for count-based measures on out-of-order
    streams (a late record shifts the count of all later records, so the
    last record of every affected slice moves to the next slice).
    Invertible aggregations remove incrementally; everything else
    recomputes -- although functions like min/max first check whether
    the removed value can affect the aggregate at all
    (``unaffected_by_removal``), which is why the paper measures only a
    small decay for them in Figure 13.
    """
    if stream_in_order or query.window.measure_kind is not MeasureKind.COUNT:
        return RemovalStrategy.NOT_NEEDED
    if query.aggregation.invertible:
        return RemovalStrategy.INVERT
    return RemovalStrategy.RECOMPUTE


def select_kernel(
    function: AggregateFunction, *, stream_in_order: bool, needs_splits: bool
) -> KernelKind:
    """Pick the eager-store kernel for one aggregate function.

    Extends the paper's decision figures with the kernel dimension:

    * Non-associative functions need order-exact point updates over a
      materialised leaf list, and holistic partials grow with the data,
      so prefix/suffix aggregates (the specialised in-order kernels
      precompute them) would hold the whole history per entry -- both
      go to the FlatFAT tree, which keeps per-node state bounded and
      repairs one root path per update.
    * Split-capable workloads (context-aware windows under disorder,
      forward-context windows) also stay on FlatFAT: splits land as
      insert+update+update bursts whose random point writes are the
      tree's native operation.
    * Remaining out-of-order associative workloads -- the former FlatFAT
      fallback -- get the finger B-tree: O(log d) positional inserts for
      a late record at distance ``d``, lazy aggregate repair instead of
      a combine per update, and whole-prefix bulk eviction per watermark
      instead of FlatFAT's O(s) rebuild (the FiBA result).
    * Invertible, commutative functions with an exact invert on in-order
      streams get the subtract-on-evict kernel: O(1) for every
      operation.
    * Everything else associative and in-order gets two-stacks:
      amortised O(1) append/evict/query without needing an invert, and
      order-preserving for non-commutative functions.
    """
    if not function.associative or function.kind is AggregationClass.HOLISTIC:
        return KernelKind.FLAT_FAT
    if needs_splits:
        return KernelKind.FLAT_FAT
    if not stream_in_order:
        return KernelKind.FINGER_TREE
    if function.invertible and function.commutative and function.exact_invert:
        return KernelKind.SUBTRACT_ON_EVICT
    return KernelKind.TWO_STACKS


class WorkloadCharacteristics:
    """The aggregated characteristics of a query set on one stream.

    This is what the operator's adaptivity consumes: it is recomputed
    whenever queries are added or removed (Section 5, "Approach
    Overview") -- never on data changes, because the storage decision
    depends only on workload characteristics.
    """

    __slots__ = (
        "queries",
        "stream_in_order",
        "store_tuples",
        "needs_splits",
        "has_count_measure",
        "has_sessions",
        "has_context_aware",
        "all_commutative",
        "removal_strategies",
    )

    def __init__(self, queries: Sequence[Query], stream_in_order: bool) -> None:
        self.queries: List[Query] = list(queries)
        self.stream_in_order = stream_in_order
        self.store_tuples = requires_tuple_storage(self.queries, stream_in_order)
        self.needs_splits = requires_splits(self.queries, stream_in_order)
        self.has_count_measure = any(
            q.window.measure_kind is MeasureKind.COUNT for q in self.queries
        )
        self.has_sessions = any(q.window.is_session for q in self.queries)
        self.has_context_aware = any(
            q.window.context is not ContextClass.CONTEXT_FREE for q in self.queries
        )
        self.all_commutative = all(q.aggregation.commutative for q in self.queries)
        self.removal_strategies = {
            q.query_id: removal_strategy(q, stream_in_order) for q in self.queries
        }

    def kernel_for(self, function: AggregateFunction) -> KernelKind:
        """Eager-store kernel choice for one shared aggregate function."""
        return select_kernel(
            function,
            stream_in_order=self.stream_in_order,
            needs_splits=self.needs_splits,
        )

    @classmethod
    def of(
        cls, queries: Iterable[Query], stream_in_order: bool
    ) -> "WorkloadCharacteristics":
        return cls(list(queries), stream_in_order)

    def describe(self) -> str:
        """Human-readable summary (used by examples and debug output)."""
        lines = [
            f"stream order      : {'in-order' if self.stream_in_order else 'out-of-order'}",
            f"store raw records : {self.store_tuples}",
            f"splits possible   : {self.needs_splits}",
            f"count measures    : {self.has_count_measure}",
            f"session windows   : {self.has_sessions}",
            f"context aware     : {self.has_context_aware}",
            f"all commutative   : {self.all_commutative}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkloadCharacteristics(queries={len(self.queries)}, "
            f"in_order={self.stream_in_order}, store_tuples={self.store_tuples})"
        )
