"""The shared aggregate store: ordered slices + optional aggregate tree.

The Aggregate Store (Figure 7) is the data structure shared by the
stream slicer (creates slices), the slice manager (updates slices), and
the window manager (computes window aggregates).

Two variants correspond to the paper's lazy and eager slicing:

* :class:`LazyAggregateStore` keeps only the ordered slice list; window
  aggregates are combined on demand from the covered slices -- highest
  throughput, latency linear in the slice count (Figure 11).
* :class:`EagerAggregateStore` additionally maintains one incremental
  *kernel* per aggregate function over the slice partials -- a
  :class:`~repro.core.flatfat.FlatFAT` tree in the general case, or one
  of the O(1) kernels from :mod:`repro.core.kernels` when the workload
  characteristics allow (in-order stream, no splits).

:class:`SharedQueryPlan` batches the window manager's per-watermark
range queries so concurrently-open windows over the same slice chain
reuse each other's partials: queries ending at the same slice differ
only in how far left they reach, so the longest shared suffix is folded
once and shorter windows extend it leftward (Factor-Windows-style
sharing, counted as ``share.hits``).

Slices are kept sorted by their start timestamp and never overlap, but
gaps between slices are legal (empty stream regions get no slice).
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..aggregations.base import AggregateFunction
from .flatfat import FlatFAT
from .kernels import KernelKind, make_kernel
from .slice_ import Slice
from .tracing import Tracer

__all__ = [
    "AggregateStore",
    "LazyAggregateStore",
    "EagerAggregateStore",
    "SharedQueryPlan",
]


#: Bisect key over the slice list (sorted by start); shared with the slice manager.
slice_start = attrgetter("start")
_OPEN_END = float("inf")


def _slice_end(slice_: Slice) -> float:
    """Bisect key over slice ends; the open head (``end is None``) sorts last."""
    end = slice_.end
    return _OPEN_END if end is None else end


class AggregateStore:
    """Base class: an ordered, gap-tolerant collection of slices."""

    #: Whether the window manager batches a watermark's range queries
    #: through a :class:`SharedQueryPlan`, which folds shared suffixes
    #: once and extends them leftward.  True where a range query costs
    #: O(range) (lazy); the eager kernels answer each in O(1)/O(log s),
    #: so an eager store's windows are resolved directly.
    shared_suffix_folding = True

    __slots__ = ("functions", "slices", "_tracer")

    def __init__(self, functions: Sequence[AggregateFunction]) -> None:
        self.functions = list(functions)
        self.slices: List[Slice] = []
        self._tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------
    # observability

    @property
    def tracer(self) -> Optional[Tracer]:
        """Observability sink; ``None`` (default) is the no-op fast path."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[Tracer]) -> None:
        self._tracer = value

    # ------------------------------------------------------------------
    # structure queries

    def __len__(self) -> int:
        return len(self.slices)

    def __iter__(self) -> Iterator[Slice]:
        return iter(self.slices)

    @property
    def head(self) -> Optional[Slice]:
        """The open (most recent) slice, if any."""
        return self.slices[-1] if self.slices else None

    def find_index(self, ts: int) -> Optional[int]:
        """Index of the slice covering ``ts``, or ``None`` (gap / before)."""
        position = bisect.bisect_right(self.slices, ts, key=slice_start) - 1
        if position < 0:
            return None
        candidate = self.slices[position]
        return position if candidate.covers(ts) else None

    def neighbors(self, ts: int) -> tuple[Optional[int], Optional[int]]:
        """Indices of the last slice ending at/before ``ts`` and the first
        slice starting after ``ts`` (for gap insertion)."""
        position = bisect.bisect_right(self.slices, ts, key=slice_start)
        before = position - 1 if position > 0 else None
        after = position if position < len(self.slices) else None
        return before, after

    def index_of(self, slice_: Slice) -> int:
        """Index of a slice known to be in the store."""
        position = bisect.bisect_left(self.slices, slice_.start, key=slice_start)
        while position < len(self.slices):
            if self.slices[position] is slice_:
                return position
            position += 1
        raise ValueError("slice not found in store")

    # ------------------------------------------------------------------
    # structural mutation (overridden by the eager variant)

    def append_slice(self, slice_: Slice) -> None:
        """Append a new head slice (the common, cheap path)."""
        if self.slices and self.slices[-1].end is not None and slice_.start < self.slices[-1].end:
            raise ValueError("appended slice overlaps the current head")
        self.slices.append(slice_)

    def insert_slice(self, index: int, slice_: Slice) -> None:
        """Insert a slice at ``index`` (gap fill or split result)."""
        self.slices.insert(index, slice_)

    def remove_slice(self, index: int) -> Slice:
        """Remove and return the slice at ``index`` (merge cleanup)."""
        return self.slices.pop(index)

    def slice_updated(self, index: int) -> None:
        """Notification that the slice at ``index`` changed its aggregates."""

    def evict_before(self, ts: int) -> int:
        """Drop the leading slices that end at or before ``ts`` -- closed
        ones only, so an open head stays; return the count.  O(dropped)."""
        keep = 0
        while keep < len(self.slices):
            end = self.slices[keep].end
            if end is None or end > ts:
                break
            keep += 1
        if keep:
            del self.slices[:keep]
            if self._tracer is not None:
                self._tracer.count("store.slices_evicted", keep)
        return keep

    # ------------------------------------------------------------------
    # aggregate queries

    def _range_partials(self, lo: int, hi: int, fn_index: int) -> List[Any]:
        """The non-empty partials of slices ``[lo, hi)``, in stream order
        (counted as one range query)."""
        if self._tracer is not None and hi > lo:
            self._tracer.count("store.range_queries")
            self._tracer.count("store.slices_combined", hi - lo)
        return [
            agg
            for slice_ in self.slices[lo:hi]
            if (agg := slice_.aggs[fn_index]) is not None
        ]

    def range_indices(self, start: int, end: int) -> tuple[int, int]:
        """Slice index range fully contained in time interval ``[start, end)``."""
        slices = self.slices
        lo = bisect.bisect_left(slices, start, key=slice_start)
        # Slice ends are monotone, so the first slice from ``lo`` that
        # ends after ``end`` (or is still open) bounds the range.
        hi = bisect.bisect_right(slices, end, lo=lo, key=_slice_end)
        return lo, hi

    def query_time(self, start: int, end: int, fn_index: int) -> Any:
        """Combine all slices inside the time interval ``[start, end)``.

        Assumes slice edges align with ``start``/``end`` (the slicer
        guarantees this for registered window types).
        """
        lo, hi = self.range_indices(start, end)
        return self.query_slices(lo, hi, fn_index)

    def query_slices(self, lo: int, hi: int, fn_index: int) -> Any:
        """Combine slices ``[lo, hi)`` by index -- lazy: one bulk combine
        over the range's partials, O(hi - lo)."""
        return self.functions[fn_index].combine_all(self._range_partials(lo, hi, fn_index))

    def count_range_indices(self, count_start: int, count_end: int) -> tuple[int, int]:
        """Slice index range fully contained in a count interval."""
        lo = 0
        while lo < len(self.slices):
            cs = self.slices[lo].count_start
            if cs is not None and cs >= count_start:
                break
            lo += 1
        hi = lo
        while hi < len(self.slices):
            ce = self.slices[hi].count_end
            if ce is None or ce > count_end:
                break
            hi += 1
        return lo, hi

    def query_count(self, count_start: int, count_end: int, fn_index: int) -> Any:
        """Combine all slices inside the count interval ``[start, end)``."""
        lo, hi = self.count_range_indices(count_start, count_end)
        return self.query_slices(lo, hi, fn_index)

    def total_records(self) -> int:
        """Total number of records across all slices."""
        return sum(slice_.record_count for slice_ in self.slices)

    def check_invariants(self) -> None:
        """Assert the slice chain's shape (test and fuzz hook).

        Slices are sorted by start and never overlap, only the last one
        may be open, and a slice that retains records holds as many as
        it counts.  Raises ``AssertionError`` naming the first violation.
        """
        slices = self.slices
        for index, slice_ in enumerate(slices):
            where = f"slice {index} {slice_!r}"
            if slice_.records is not None and len(slice_.records) != slice_.record_count:
                raise AssertionError(
                    f"{where} retains {len(slice_.records)} records but counts "
                    f"{slice_.record_count}"
                )
            if index + 1 == len(slices):
                break
            following = slices[index + 1]
            if slice_.end is None:
                raise AssertionError(f"{where} is open but not the last slice")
            if slice_.start > following.start or slice_.end > following.start:
                raise AssertionError(f"{where} overlaps or follows {following!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(slices={len(self.slices)})"


class LazyAggregateStore(AggregateStore):
    """Slice list only; window aggregates combined on demand (lazy slicing)."""

    __slots__ = ()


class EagerAggregateStore(AggregateStore):
    """Slice list plus one incremental kernel per function.

    Each kernel maintains the slice partials of one shared aggregate
    function: a FlatFAT tree in the general case (O(log s) everything),
    or a two-stacks / subtract-on-evict kernel (amortised O(1)) when the
    workload characteristics permit (:func:`~repro.core.characteristics.
    select_kernel`).  The kernels are small -- one leaf per *slice*,
    not per record -- which is why eager slicing rarely suffers from
    out-of-order input (Section 6.2.2).

    Invariant: kernel leaf ``i`` equals ``slices[i].aggs`` for every
    ``i < lag_from`` except the last slice (every closed slice when
    :attr:`lag_from` is ``None``).  Writes are deferred to the reader:
    an update to a closed slice only lowers :attr:`lag_from` to its
    index, an update to the last slice (the open head, which absorbs
    every in-order record) does nothing, and a slice cut folds the
    closing head into the lagging range.  A query over ``[lo, hi)``
    writes the lagging closed slices below ``hi`` once, one ``update``
    per function each, and the last slice's partial of its own function
    only when ``hi`` reaches it and the leaf does not hold that partial
    already, or the function edits the head's partial in place
    (:meth:`~repro.aggregations.base.AggregateFunction.edits_in_place`)
    -- so a slice's leaf is written once per reader, not once per
    record.  Inserts and removals, which move indices, write
    everything that lags first; evicting a prefix moves every index
    alike and only shifts :attr:`lag_from`.
    """

    shared_suffix_folding = False

    __slots__ = ("kernel_kinds", "kernels", "lag_from")

    def __init__(
        self,
        functions: Sequence[AggregateFunction],
        kernel_kinds: Optional[Sequence[Union[KernelKind, str]]] = None,
    ) -> None:
        super().__init__(functions)
        if kernel_kinds is None:
            kinds = [KernelKind.FLAT_FAT] * len(self.functions)
        else:
            kinds = [KernelKind.coerce(kind) for kind in kernel_kinds]
            if len(kinds) != len(self.functions):
                raise ValueError(
                    f"got {len(kinds)} kernel kinds for {len(self.functions)} functions"
                )
        self.kernel_kinds: Tuple[KernelKind, ...] = tuple(kinds)
        self.kernels = [
            make_kernel(kind, fn) for kind, fn in zip(kinds, self.functions)
        ]
        #: The first closed slice whose kernel leaves may lag its
        #: partials, or ``None`` when none does.  Always below the last
        #: slice, whose leaves are treated as lagging anyway.
        self.lag_from: Optional[int] = None

    @AggregateStore.tracer.setter
    def tracer(self, value: Optional[Tracer]) -> None:
        self._tracer = value
        for kernel in self.kernels:
            kernel.tracer = value

    def _write_lagging(self, hi: int) -> None:
        """Write the lagging closed slices below ``hi`` into every kernel."""
        lag_from = self.lag_from
        last = len(self.slices) - 1
        stop = hi if hi < last else last
        if lag_from is None or lag_from >= stop:
            return
        slices = self.slices
        for fn_index, kernel in enumerate(self.kernels):
            update = kernel.update
            for index in range(lag_from, stop):
                update(index, slices[index].aggs[fn_index])
        self.lag_from = stop if stop < last else None
        if self._tracer is not None:
            self._tracer.count("kernel.lag_writes", stop - lag_from)

    def _write_all(self) -> None:
        """Write every lagging leaf, the last slice's included."""
        if not self.slices:
            return
        self._write_lagging(len(self.slices))
        index = len(self.slices) - 1
        aggs = self.slices[index].aggs
        for fn_index, kernel in enumerate(self.kernels):
            kernel.update(index, aggs[fn_index])
        if self._tracer is not None:
            self._tracer.count("kernel.head_syncs")

    def append_slice(self, slice_: Slice) -> None:
        super().append_slice(slice_)
        # The closing head joins the lagging range; no leaf moves.
        if self.lag_from is None and len(self.slices) > 1:
            self.lag_from = len(self.slices) - 2
        for fn_index, kernel in enumerate(self.kernels):
            kernel.append(slice_.aggs[fn_index])
        if self._tracer is not None:
            self._tracer.count("kernel.appends")

    def insert_slice(self, index: int, slice_: Slice) -> None:
        self._write_all()
        super().insert_slice(index, slice_)
        for fn_index, kernel in enumerate(self.kernels):
            kernel.insert(index, slice_.aggs[fn_index])

    def remove_slice(self, index: int) -> Slice:
        self._write_all()
        removed = super().remove_slice(index)
        for kernel in self.kernels:
            kernel.remove(index)
        return removed

    def slice_updated(self, index: int) -> None:
        if index < len(self.slices) - 1 and (self.lag_from is None or index < self.lag_from):
            self.lag_from = index

    def evict_before(self, ts: int) -> int:
        # No write: dropping a prefix moves every leaf index alike.
        evicted = super().evict_before(ts)
        if evicted:
            lag_from = self.lag_from
            if lag_from is not None:
                lag_from = max(lag_from - evicted, 0)
                self.lag_from = lag_from if lag_from < len(self.slices) - 1 else None
            for kernel in self.kernels:
                kernel.remove_front(evicted)
            if self._tracer is not None:
                self._tracer.count("kernel.evictions", evicted)
        return evicted

    def query_slices(self, lo: int, hi: int, fn_index: int) -> Any:
        """Combine slices ``[lo, hi)`` via the function's kernel."""
        if lo >= hi:
            return None
        lag_from = self.lag_from
        if lag_from is not None and lag_from < hi:
            self._write_lagging(hi)
        kernel = self.kernels[fn_index]
        last = len(self.slices) - 1
        if hi > last:
            # A leaf that holds the very object the head holds is up to
            # date, unless the function edits the head in place.
            partial = self.slices[last].aggs[fn_index]
            if kernel.leaf(last) is not partial or self.functions[fn_index].edits_in_place():
                kernel.update(last, partial)
                if self._tracer is not None:
                    self._tracer.count("kernel.head_syncs")
        if self._tracer is not None:
            self._tracer.count("store.range_queries")
        return kernel.query(lo, hi)

    def check_invariants(self) -> None:
        """Assert the store/kernel agreement (test and fuzz hook).

        Beyond the chain's shape: :attr:`lag_from` lies below the last
        slice, every kernel holds one leaf per slice, the leaves of the
        closed slices below :attr:`lag_from` equal their partials
        already, and -- once every lagging leaf is written -- all leaves
        do.  Writing is observably a no-op (any read of a lagging leaf
        would have done it).
        """
        super().check_invariants()
        slices = self.slices
        lag_from = self.lag_from
        if lag_from is not None and not 0 <= lag_from < len(slices) - 1:
            raise AssertionError(
                f"lag_from {lag_from} is not a closed slice of {len(slices)}"
            )
        written = len(slices) - 1 if lag_from is None else lag_from
        for fn_index, kernel in enumerate(self.kernels):
            if len(kernel) != len(slices):
                raise AssertionError(
                    f"kernel {fn_index} holds {len(kernel)} leaves for "
                    f"{len(slices)} slices"
                )
            for index in range(written):
                if kernel.leaf(index) != slices[index].aggs[fn_index]:
                    raise AssertionError(
                        f"kernel {fn_index} leaf {index} {kernel.leaf(index)!r} lags "
                        f"its slice's partial {slices[index].aggs[fn_index]!r} below "
                        f"lag_from {lag_from}"
                    )
        self._write_all()
        for fn_index, kernel in enumerate(self.kernels):
            leaves = kernel.leaves()
            expected = [slice_.aggs[fn_index] for slice_ in slices]
            if leaves != expected:
                raise AssertionError(
                    f"kernel {fn_index} leaves {leaves!r} differ from "
                    f"the slice partials {expected!r}"
                )


class SharedQueryPlan:
    """One watermark's batch of slice-range queries with partial reuse.

    The window manager collects every time-window query triggered by a
    watermark advance over a lazy store as ``(lo, hi, fn_index)``
    requests, then calls :meth:`execute` once.  Requests over the same
    function ending at the same slice index share their suffix: the
    shortest range is folded first, and each wider range is one bulk
    combine (:meth:`~repro.aggregations.base.AggregateFunction.
    combine_all`) over its extra leftward slices followed by the cached
    suffix, preserving stream order for non-commutative functions.  An
    eager store builds no plan (:attr:`AggregateStore.
    shared_suffix_folding`): its kernels answer each range in O(1) or
    O(log s) already.

    Counters: ``share.requests`` (batched queries), ``share.hits``
    (queries answered from a shared partial instead of a full fold).
    """

    __slots__ = ("_store", "_requests", "_results")

    def __init__(self, store: AggregateStore) -> None:
        self._store = store
        self._requests: List[Tuple[int, int, int]] = []
        self._results: List[Any] = []

    def request(self, lo: int, hi: int, fn_index: int) -> int:
        """Enqueue a query over slices ``[lo, hi)``; returns its token."""
        self._requests.append((lo, hi, fn_index))
        return len(self._requests) - 1

    def result(self, token: int) -> Any:
        return self._results[token]

    def execute(self) -> None:
        """Answer all enqueued requests (in one pass per share group)."""
        store = self._store
        tracer = store.tracer
        requests = self._requests
        self._results = results = [None] * len(requests)
        if not requests:
            return
        if tracer is not None:
            tracer.count("share.requests", len(requests))
        # Group by (function, right edge); nested ranges share suffixes.
        groups: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
        for token, (lo, hi, fn_index) in enumerate(requests):
            groups.setdefault((fn_index, hi), {}).setdefault(lo, []).append(token)
        for (fn_index, hi), by_lo in groups.items():
            combine_all = store.functions[fn_index].combine_all
            partial: Any = None
            prev_lo = hi
            first = True
            for lo in sorted(by_lo, reverse=True):
                # One bulk combine over the extension's slices (strictly
                # earlier than the cached suffix) and the suffix itself.
                parts = store._range_partials(lo, prev_lo, fn_index)
                if partial is not None:
                    parts.append(partial)
                partial = combine_all(parts)
                if tracer is not None and not first:
                    tracer.count("share.hits", len(by_lo[lo]))
                elif tracer is not None and len(by_lo[lo]) > 1:
                    tracer.count("share.hits", len(by_lo[lo]) - 1)
                first = False
                prev_lo = lo
                for token in by_lo[lo]:
                    results[token] = partial
