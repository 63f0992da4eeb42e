"""General stream slicing -- the paper's core contribution (Section 5).

:class:`GeneralSlicingOperator` is the drop-in window operator that
assembles the slicing pipeline of Figure 7 (Stream Slicer → Slice
Manager → Window Manager over a shared Aggregate Store) and adapts to
the workload characteristics of Section 4 via the Figure 4-6 decision
logic:

* records are retained only when the workload requires it;
* the aggregate store is lazy (slice list) or eager (FlatFAT over
  slices), selectable via ``eager=``;
* queries can be added and removed at runtime; characteristics are
  re-derived on every change (never on data properties);
* all queries share one slice chain per windowing measure.  Time-based
  and count-based queries use separate chains because out-of-order
  count shifts move records across *count* boundaries, which must not
  disturb time-aligned partials (this replaces the paper's
  vector-timestamp slicing with an equivalent per-dimension chain; see
  DESIGN.md).

The operator understands in-order and out-of-order streams.  On
in-order streams every record that cuts a slice doubles as a watermark:
windows are emitted immediately and the slices no window can reach any
more are evicted behind it; on out-of-order streams, emission and
eviction follow explicit watermarks and late records within the allowed
lateness yield update results.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence

from ..aggregations.base import AggregateFunction
from ..windows.base import WindowType
from ..windows.multimeasure import LastNEveryWindow
from ..windows.punctuation import PunctuationWindow
from ..windows.session import SessionWindow
from .aggregate_store import AggregateStore, EagerAggregateStore, LazyAggregateStore, slice_start
from .characteristics import Query, WorkloadCharacteristics
from .kernels import KernelKind
from .measures import MeasureKind
from .operator_base import StreamOrderViolation, WindowOperator
from .slice_manager import SliceManager
from .slots import set_slot_state, slot_state
from .stream_slicer import StreamSlicer
from .types import Punctuation, Record, StreamElement, Watermark, WindowResult
from .window_manager import ManagedQuery, WindowManager

__all__ = ["GeneralSlicingOperator"]

_TS_KEY = lambda record: record.ts  # noqa: E731 - bisect key

#: What :meth:`_Chain._derive_read_per_record` sets: never pickled.
_DERIVED = ("_fixed_edge_windows", "_session_gaps", "accumulators", "refolds", "structured")


class _Chain:
    """One slicing pipeline serving all queries of a single measure."""

    __slots__ = (
        "measure_kind",
        "queries",
        "functions",
        "_fn_index",
        "_fn_index_of_query",
        "_share_aggregates",
        "characteristics",
        "kernel_kinds",
        "store",
        "_windows",
        "session_windows",
        "manager",
        "edges_move",
        "slicer",
        "window_manager",
    ) + _DERIVED

    def __init__(
        self,
        queries: List[Query],
        *,
        measure_kind: MeasureKind,
        in_order: bool,
        eager: bool,
        emit_empty: bool,
        share_aggregates: bool = True,
        share_windows: bool = True,
        kernel: Optional[KernelKind] = None,
    ) -> None:
        self.measure_kind = measure_kind
        self.queries = queries
        # Deduplicate aggregate functions by signature so equivalent
        # queries share one partial per slice (the aggregate-sharing core
        # of the paper: one ⊕ per record regardless of the query count).
        # ``share_aggregates=False`` disables the dedup for ablations.
        self.functions: List[AggregateFunction] = []
        self._fn_index: Dict[tuple, int] = {}
        self._fn_index_of_query: List[int] = []
        for index, query in enumerate(queries):
            key = (
                query.aggregation.signature()
                if share_aggregates
                else (index, query.aggregation.signature())
            )
            if key not in self._fn_index:
                self._fn_index[key] = len(self.functions)
                self.functions.append(query.aggregation)
            self._fn_index_of_query.append(self._fn_index[key])
        self._share_aggregates = share_aggregates

        characteristics = WorkloadCharacteristics(queries, in_order)
        self.characteristics = characteristics
        #: Eager-store kernel per shared function: auto-selected from
        #: the workload characteristics, or forced by the override.
        self.kernel_kinds: tuple = ()
        if eager:
            if kernel is not None:
                kinds = [kernel] * len(self.functions)
            else:
                kinds = [characteristics.kernel_for(fn) for fn in self.functions]
            self.store: AggregateStore = EagerAggregateStore(
                self.functions, kernel_kinds=kinds
            )
            self.kernel_kinds = tuple(kinds)
        else:
            self.store = LazyAggregateStore(self.functions)

        self._windows = [query.window for query in queries]
        self.session_windows = [w for w in self._windows if isinstance(w, SessionWindow)]
        self._derive_read_per_record()
        track_counts = measure_kind is MeasureKind.COUNT

        self.manager = SliceManager(
            self.store,
            store_records=characteristics.store_tuples,
            track_counts=track_counts,
            session_gap=self._session_gaps[0] if self._session_gaps else None,
            floor_time_edge=self.floor_time_edge,
            ceil_time_edge=self.next_time_edge,
            edge_in_region=self.edge_in_region,
            is_count_edge=self.is_count_edge,
        )
        self.edges_move = bool(self._session_gaps) or any(
            isinstance(w, PunctuationWindow) for w in self._windows
        )
        self.slicer = StreamSlicer(
            self.store,
            next_time_edge=self.next_time_edge,
            floor_time_edge=self.floor_time_edge,
            next_count_edge=self.next_count_edge if track_counts else None,
            store_records=characteristics.store_tuples,
            track_counts=track_counts,
            edges_move=self.edges_move,
        )
        self.window_manager = WindowManager(
            self.store, self.manager, emit_empty=emit_empty, share_windows=share_windows
        )
        for query_pos, query in enumerate(queries):
            self.window_manager.add_query(
                ManagedQuery(
                    query.query_id,
                    query.window,
                    query.aggregation,
                    self._fn_index_of_query[query_pos],
                )
            )

    def __getstate__(self) -> dict:
        return slot_state(self, leave_out=_DERIVED)

    def __setstate__(self, state: dict) -> None:
        set_slot_state(self, state)
        self._derive_read_per_record()

    # ------------------------------------------------------------------
    # edge callbacks (aggregate over all windows of this chain)

    def _time_edge_windows(self) -> List[WindowType]:
        if self.measure_kind is MeasureKind.TIME:
            return self._windows
        # Count chains cut at the trigger (time) edges of FCA windows only.
        return [w for w in self._windows if isinstance(w, LastNEveryWindow)]

    def _count_edge_windows(self) -> List[WindowType]:
        return [
            w
            for w in self._windows
            if w.measure_kind is MeasureKind.COUNT and not isinstance(w, LastNEveryWindow)
        ]

    def _derive_read_per_record(self) -> None:
        """What the per-record paths read, derived from the queries and
        never pickled.  For :meth:`next_time_edge`: the windows that know
        their edges in advance, and the session gaps, smallest first.
        For the operator's writes into a slice: per shared function, its
        partial's index and its bound ``accumulate``; the non-commutative
        ones, whose partial a late record refolds from the slice's
        records; and whether a late record needs the slice manager's
        structure (sessions or a count measure) before and after its
        write."""
        windows = self._time_edge_windows()
        self._fixed_edge_windows = [w for w in windows if not isinstance(w, SessionWindow)]
        self._session_gaps = sorted(window.gap for window in self.session_windows)
        self.accumulators = tuple(
            (index, function.accumulate) for index, function in enumerate(self.functions)
        )
        self.refolds = tuple(
            (index, function)
            for index, function in enumerate(self.functions)
            if not function.commutative
        )
        self.structured = bool(self._session_gaps) or self.measure_kind is MeasureKind.COUNT

    def next_time_edge(self, ts: int) -> Optional[int]:
        """The smallest window edge after ``ts``.  Sessions add their
        tentative ones: the newest retained record plus a gap."""
        best: Optional[int] = None
        for window in self._fixed_edge_windows:
            edge = window.get_next_edge(ts)
            if edge is not None and (best is None or edge < best):
                best = edge
        if self._session_gaps:
            newest = self.window_manager.newest_record_ts()
            if newest is not None:
                for gap in self._session_gaps:
                    edge = newest + gap
                    if edge > ts:
                        return edge if best is None or edge < best else best
        return best

    def floor_time_edge(self, ts: int) -> Optional[int]:
        best: Optional[int] = None
        for window in self._time_edge_windows():
            edge = window.get_floor_edge(ts)
            if edge is not None and (best is None or edge > best):
                best = edge
        return best

    def next_count_edge(self, count: int) -> Optional[int]:
        best: Optional[int] = None
        for window in self._count_edge_windows():
            edge = window.get_next_edge(count)
            if edge is not None and (best is None or edge < best):
                best = edge
        return best

    def edge_in_region(self, lo: int, hi: int) -> bool:
        """Whether any window has an edge in the closed interval [lo, hi].

        Session tentative edges are excluded (``get_floor_edge`` is None
        for sessions): only fixed edges forbid slice merges.
        """
        for window in self._time_edge_windows():
            floor = window.get_floor_edge(hi)
            if floor is not None and floor >= lo:
                return True
        return False

    def is_count_edge(self, count: int) -> bool:
        return any(window.is_edge(count) for window in self._count_edge_windows())

    # ------------------------------------------------------------------

    def retention_start(self, settled: int) -> int:
        """The earliest position, in this chain's measure (a timestamp on
        a time chain, a record count on a count chain), that a window not
        yet final at ``settled`` can still cover."""
        return min(window.retention_start(settled) for window in self._windows)

    def eviction_horizon(self, settled_ts: int) -> int:
        """Timestamp at or before which a slice may end and be dropped.

        ``settled_ts`` is the watermark minus the allowed lateness, or
        the timestamp of the in-order record that cut a slice: the
        stream before it can no longer change.  A time chain keeps what
        its windows can still reach back to from that point
        (:meth:`~repro.windows.base.WindowType.retention_start`).  A
        count chain's windows reach back a number of *records*, so its
        horizon is found in the count domain -- slices whose counts end
        at or before the retention start of
        ``completed_count(settled_ts)`` -- and translated back to the
        time a slice must end before, because records can be
        arbitrarily sparse or dense in time.
        """
        if self.measure_kind is MeasureKind.TIME:
            return self.retention_start(settled_ts)
        count_horizon = self.retention_start(self.window_manager.completed_count(settled_ts))
        slices = self.store.slices
        if not slices:
            return settled_ts
        horizon = slices[0].start  # drops nothing unless a slice qualifies
        for slice_ in slices:
            if slice_.count_end is None or slice_.count_end > count_horizon:
                break
            horizon = slice_.end
        # Count-cut slices can share an end timestamp with their
        # successors; stopping one short keeps every slice past the
        # count horizon.
        return horizon - 1

    def evict(self, settled: int) -> int:
        """Drop the slices no window can reach any more once the stream
        is final up to ``settled``; returns how many.

        Runs behind every watermark and behind every in-order record
        that cut a slice, so it costs one horizon (a ``retention_start``
        per window) when the first slice stays and O(slices dropped)
        otherwise.  Only closed slices in front of the open head go:
        nothing an armed slicer guard vouches for.
        """
        slices = self.store.slices
        if not slices:
            return 0
        first_end = slices[0].end
        if first_end is None:
            return 0
        horizon = self.eviction_horizon(settled)
        if first_end > horizon:
            return 0
        # Sessions by the largest gap contain those of every smaller one.
        largest_gap = self._session_gaps[-1] if self._session_gaps else None
        horizon = self.window_manager.pin_horizon(horizon, largest_gap)
        if first_end > horizon:
            return 0
        evicted = self.store.evict_before(horizon)
        self.window_manager.prune_emitted(horizon, evicted)
        return evicted

    def check_invariants(self) -> None:
        """Assert the slice chain's shape (and, eagerly, its kernels), the
        slicer's guard, the window manager's carries and the Fig. 4
        record rule: the slicer, the slice manager and every slice keep
        records exactly when the characteristics say so.  Raises
        ``AssertionError`` naming the violation."""
        self.store.check_invariants()
        self.slicer.check_invariants()
        self.window_manager.check_invariants()
        keep = self.characteristics.store_tuples
        if self.slicer.store_records != keep or self.manager.store_records != keep:
            raise AssertionError(
                f"store_tuples is {keep} but the slicer's store_records is "
                f"{self.slicer.store_records} and the slice manager's "
                f"{self.manager.store_records}"
            )
        for index, slice_ in enumerate(self.store.slices):
            if (slice_.records is not None) != keep:
                raise AssertionError(
                    f"slice {index} {slice_!r} {'keeps no' if keep else 'keeps'} "
                    f"records but store_tuples is {keep}"
                )


class GeneralSlicingOperator(WindowOperator):
    """General stream slicing window operator (lazy or eager).

    Parameters
    ----------
    stream_in_order:
        Declare the input stream as guaranteed in-order.  In-order
        operators emit windows immediately (no watermarks needed) and
        raise :class:`StreamOrderViolation` on a late record.
    eager:
        Maintain an incremental kernel per function over slice partials
        (eager slicing): lower output latency, slightly lower throughput
        (Figure 11 vs 8/9).  The kernel is auto-selected from the
        workload characteristics (FlatFAT / finger-tree / two-stacks /
        subtract-on-evict); ``kernel=`` forces one for ablations.
    allowed_lateness:
        How long after the watermark late records still produce update
        results.  Records later than this are dropped.
    emit_empty:
        Emit results for windows containing no records (off by default,
        matching Flink's behaviour).
    kernel:
        Force one eager-store kernel for every function instead of the
        characteristics-driven selection.  Accepts a
        :class:`~repro.core.kernels.KernelKind` or its string value
        (``"flatfat"``, ``"finger_tree"``, ``"two_stacks"``,
        ``"subtract_on_evict"``).
        Requires ``eager=True``; illegal combinations (subtract without
        an invert) raise on query registration.
    share_windows:
        Batch each watermark's time-window queries so concurrently-open
        windows reuse each other's slice-range partials (on by
        default; off for ablations).
    """

    __slots__ = (
        "stream_in_order",
        "eager",
        "allowed_lateness",
        "emit_empty",
        "share_aggregates",
        "share_windows",
        "kernel",
        "_timestamp_of",
        "_chains",
        "_chain_list",
        "_max_ts",
        "_watermark",
        "_arrived",
    )

    def __init__(
        self,
        *,
        stream_in_order: bool = False,
        eager: bool = False,
        allowed_lateness: int = 0,
        emit_empty: bool = False,
        timestamp_of: Optional[Callable[[Record], int]] = None,
        share_aggregates: bool = True,
        share_windows: bool = True,
        kernel: Optional[object] = None,
    ) -> None:
        super().__init__()
        self.stream_in_order = stream_in_order
        self.eager = eager
        self.allowed_lateness = allowed_lateness
        self.emit_empty = emit_empty
        #: Ablation switch: when False, every query keeps its own partial
        #: per slice instead of sharing by aggregation signature.
        self.share_aggregates = share_aggregates
        #: Ablation switch: shared-window partial reuse on watermarks.
        self.share_windows = share_windows
        if kernel is not None and not eager:
            raise ValueError("kernel override requires eager=True")
        #: Forced eager-store kernel, or None for auto-selection.
        self.kernel: Optional[KernelKind] = (
            KernelKind.coerce(kernel) if kernel is not None else None
        )
        #: Optional arbitrary-advancing-measure extractor (Section 4.3):
        #: when set, records are re-timestamped with this measure before
        #: slicing, so windows are defined on kilometres, transaction
        #: counters, invoice numbers, ... instead of event-time.
        self._timestamp_of = timestamp_of
        self._chains: Dict[MeasureKind, _Chain] = {}
        self._chain_list: tuple = ()
        self._max_ts: Optional[int] = None
        self._watermark: Optional[int] = None
        self._arrived = 0

    # ------------------------------------------------------------------
    # adaptivity (Section 5: re-derive characteristics on query changes)

    def _on_queries_changed(self) -> None:
        grouped: Dict[MeasureKind, List[Query]] = {}
        for query in self.queries:
            grouped.setdefault(query.window.measure_kind, []).append(query)
        rebuilt: Dict[MeasureKind, _Chain] = {}
        for kind, queries in grouped.items():
            existing = self._chains.get(kind)
            if existing is not None and [q.query_id for q in existing.queries] == [
                q.query_id for q in queries
            ]:
                rebuilt[kind] = existing
                continue
            rebuilt[kind] = _Chain(
                queries,
                measure_kind=kind,
                in_order=self.stream_in_order,
                eager=self.eager,
                emit_empty=self.emit_empty,
                share_aggregates=self.share_aggregates,
                share_windows=self.share_windows,
                kernel=self.kernel,
            )
        self._chains = rebuilt
        self._chain_list = tuple(rebuilt.values())
        self._on_tracing_changed()

    def _on_tracing_changed(self) -> None:
        """Thread the tracer through every chain's pipeline components.

        Rebuilding chains on query changes reattaches the tracer, so
        counters survive ``add_query``/``remove_query`` (they live on
        the tracer, not on the discarded components).
        """
        tracer = self._tracer
        for chain in self._chain_list:
            chain.slicer.tracer = tracer
            chain.manager.tracer = tracer
            chain.store.tracer = tracer

    @property
    def characteristics(self) -> Dict[MeasureKind, WorkloadCharacteristics]:
        """Per-chain workload characteristics (for introspection/tests)."""
        return {kind: chain.characteristics for kind, chain in self._chains.items()}

    @property
    def kernel_selection(self) -> Dict[MeasureKind, tuple]:
        """Per-chain eager-store kernel kinds (empty tuples when lazy)."""
        return {kind: chain.kernel_kinds for kind, chain in self._chains.items()}

    @property
    def stores_records(self) -> bool:
        """Whether any chain currently retains raw records."""
        return any(chain.characteristics.store_tuples for chain in self._chains.values())

    # ------------------------------------------------------------------
    # record processing

    def process_record(self, record: Record, extracted: bool = False) -> List[WindowResult]:
        """Ingest one record; the in-order body of every ingest path.

        Step 1's one comparison lives here: while the record sits below
        a chain's ``slicer.open_until`` / ``open_until_count`` it goes
        straight into the chain's open last slice, and the slicer is
        entered only by a record that opens or cuts a slice.
        ``extracted`` says the record's ``ts`` already is the slicing
        measure (the batched path maps each record once).

        The record enters the head in this frame: what
        :meth:`Slice.add_inorder` does, with the chain's bound
        ``accumulate``s, so a record below the guard costs one call per
        distinct function and no other.
        """
        if self._timestamp_of is not None and not extracted:
            record = Record(self._timestamp_of(record), record.value, record.key)
        ts = record.ts
        max_ts = self._max_ts
        if max_ts is not None and ts < max_ts:
            return self._process_out_of_order(record)
        count_position = self._arrived
        self._arrived = count_position + 1
        tracer = self._tracer
        if tracer is not None:
            tracer.count("operator.records")

        value = record.value
        cut = False
        for chain in self._chain_list:
            slicer = chain.slicer
            if ts < slicer.open_until and count_position < slicer.open_until_count:
                head = chain.store.slices[-1]
            else:
                head = slicer.ensure_open_slice(ts, count_position)
                if slicer.cut_performed:
                    cut = True
            aggs = head.aggs
            for index, accumulate in chain.accumulators:
                aggs[index] = accumulate(aggs[index], value)
            records = head.records
            if records is not None:
                records.append(record)
            head.record_count += 1
            if head.first_ts is None:
                head.first_ts = ts
            head.last_ts = ts
            if chain.edges_move:
                slicer.after_record(ts)

        self._max_ts = ts
        if cut and self.stream_in_order:
            # Every record acts as a watermark on in-order streams: for
            # emission and, behind it, for eviction.  The guard stays
            # armed -- the open head the record went into is not touched.
            results = self._advance_all(ts)
            for chain in self._chain_list:
                chain.evict(ts)
            return results
        return []

    def _process_out_of_order(self, record: Record) -> List[WindowResult]:
        """A (measure-extracted) record behind ``_max_ts``: behind the
        newest record, or behind a watermark that overtook the stream.

        Per chain: *place* -- one ``bisect`` into an existing slice on a
        chain without sessions or a count measure, the slicer for a
        record behind no record of the open head, the slice manager
        otherwise; *write* here what :meth:`Slice.add_out_of_order` does,
        with the bound ``accumulate``s; *settle* sessions and counts
        (:meth:`SliceManager.settle`).  The window manager is asked only
        behind its watermark: no emitted window holds a record ahead of it.
        """
        if self.stream_in_order:
            raise StreamOrderViolation(
                f"record at ts={record.ts} arrived behind ts={self._max_ts} (the newest "
                "record or a watermark) on an operator declared in-order"
            )
        ts = record.ts
        watermark = self._watermark
        if watermark is not None and ts < watermark - self.allowed_lateness:
            self._drop_late(record)
            return []  # beyond the allowed lateness: dropped
        count_position = self._arrived
        self._arrived = count_position + 1
        tracer = self._tracer
        if tracer is not None:
            tracer.count("operator.records")
            tracer.count("operator.ooo_records")
        value = record.value
        results: List[WindowResult] = []
        for chain in self._chain_list:
            store = chain.store
            slices = store.slices
            structured = chain.structured
            index = -1
            if structured:
                if chain.manager.track_counts:
                    # A late record shifts counts up to the head.  On a
                    # time chain it can neither close nor replace the open
                    # head nor move a fixed edge, so the guard stays armed.
                    chain.slicer.disarm()
            else:
                index = bisect.bisect_right(slices, ts, key=slice_start) - 1
                if index >= 0:
                    # Inside a closed slice, or behind a record of the
                    # open head; a gap or the head's front is placed below.
                    slice_ = slices[index]
                    bound = slice_.last_ts if slice_.end is None else slice_.end
                    if bound is None or ts >= bound:
                        index = -1
            position: Optional[int] = None
            overtaken = False
            if index < 0:
                head = slices[-1] if slices else None
                overtaken = (
                    head is not None
                    and head.end is None
                    and ts >= head.start
                    and (head.last_ts is None or ts >= head.last_ts)
                )
                if overtaken:
                    # Behind a watermark that overtook the stream, but
                    # behind no record: sliced like any in-order record
                    # (the slice manager would place it in the open head
                    # whatever edge it has passed) and reported like a
                    # late one, since its windows may have been emitted.
                    chain.slicer.ensure_open_slice(ts, count_position)
                    index = len(slices) - 1
                    if chain.manager.track_counts:
                        position = count_position
                else:
                    index, position = chain.manager.add_out_of_order(record)
                slice_ = slices[index]
            aggs = slice_.aggs
            for fn_index, accumulate in chain.accumulators:
                aggs[fn_index] = accumulate(aggs[fn_index], value)
            records = slice_.records
            if records is not None:
                bisect.insort_right(records, record, key=_TS_KEY)
            if chain.refolds:
                values = [stored.value for stored in records]
                for fn_index, function in chain.refolds:
                    aggs[fn_index] = function.fold_values(None, values)
            slice_.record_count += 1
            if slice_.first_ts is None or ts < slice_.first_ts:
                slice_.first_ts = ts
            if slice_.last_ts is None or ts > slice_.last_ts:
                slice_.last_ts = ts
            store.slice_updated(index)
            if overtaken:
                if chain.edges_move:
                    chain.slicer.after_record(ts)
            elif tracer is not None:
                tracer.count("slice_manager.ooo_records")
            if structured:
                chain.manager.settle(index)
            window_manager = chain.window_manager
            behind = window_manager.watermark
            if behind is not None and ts < behind:
                results.extend(window_manager.on_modification(ts, position))
        return results

    # ------------------------------------------------------------------
    # batched ingestion fast path

    def process_batch(self, elements: Sequence[StreamElement]) -> List[WindowResult]:
        """Process a batch with run-based slice-edge amortization.

        Consecutive in-order records form a *run*; within a run, records
        that provably do not cross any chain's cached slice edge are
        bulk-folded into the open head slice with one partial-aggregate
        update per function (:meth:`Slice.add_run`), so the slice-edge
        lookup happens once per run instead of once per record.  Records
        that cross an edge, out-of-order records, watermarks, and
        punctuations all take the exact per-record path, keeping window
        results and emission order bit-identical to :meth:`process`.
        """
        chains = self._chain_list
        if not chains or any(chain.edges_move for chain in chains):
            # Moving (session / punctuation) edges shift with every
            # record, so no cached edge bounds a sub-run.
            return super().process_batch(elements)
        results: List[WindowResult] = []
        n = len(elements)
        ts_of = self._timestamp_of
        i = 0
        while i < n:
            if not isinstance(elements[i], Record):
                results.extend(self.process(elements[i]))
                i += 1
                continue
            # Gather the maximal in-order record run starting here.  The
            # measure is extracted once per record, up front, so ordering
            # is judged on the slicing measure; a record behind the run
            # ends it and takes the per-record path, already extracted.
            run: List[Record] = []
            late: Optional[Record] = None
            prev = self._max_ts
            while i < n:
                e = elements[i]
                if not isinstance(e, Record):
                    break
                mapped = e if ts_of is None else Record(ts_of(e), e.value, e.key)
                i += 1
                if prev is not None and mapped.ts < prev:
                    late = mapped
                    break
                run.append(mapped)
                prev = mapped.ts
            if run:
                self._process_inorder_run(run, results)
            if late is not None:
                results.extend(self.process_record(late, True))
        return results

    def _process_inorder_run(self, run: List[Record], results: List[WindowResult]) -> None:
        """Ingest ``run``: in-order records, after measure extraction
        (fixed-edge chains only)."""
        chains = self._chain_list
        process_record = self.process_record
        n = len(run)
        i = 0
        while i < n:
            # Edge-crossing records take the exact per-record path
            # (slice cuts, eager-tree maintenance, emission) ...
            out = process_record(run[i], True)
            if out:
                results.extend(out)
            i += 1
            if i >= n:
                break
            # ... then everything strictly before every chain's cached
            # next edge is bulk-added to the open head slices.
            limit = n
            for chain in chains:
                edge = chain.slicer.cached_time_edge
                if edge is not None:
                    hi = bisect.bisect_left(run, edge, lo=i, hi=limit, key=_TS_KEY)
                    if hi < limit:
                        limit = hi
                count_edge = chain.slicer.cached_count_edge
                if count_edge is not None:
                    hi = i + (count_edge - self._arrived)
                    if hi < limit:
                        limit = hi
            if limit <= i:
                continue
            chunk = run[i:limit]
            for chain in chains:
                chain.store.head.add_run(chunk, chain.functions)
            self._arrived += len(chunk)
            self._max_ts = chunk[-1].ts
            if self._tracer is not None:
                self._tracer.count("batch.bulk_runs")
                self._tracer.count("batch.bulk_records", len(chunk))
                self._tracer.count("operator.records", len(chunk))
            i = limit

    # ------------------------------------------------------------------
    # watermarks and punctuations

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        if self._watermark is not None and watermark.ts <= self._watermark:
            return []
        self._watermark = watermark.ts
        results = self._advance_all(watermark.ts)
        settled = watermark.ts - self.allowed_lateness
        for chain in self._chain_list:
            chain.slicer.disarm()  # not an in-order record: see StreamSlicer.open_until
            if chain.evict(settled):
                chain.slicer.invalidate_cache()
        if self._max_ts is None or self._max_ts < watermark.ts:
            # The watermark overtook the stream: what arrives behind it
            # from now on is late, even if it is behind no record.
            # ``process_record`` sends everything below ``_max_ts`` to
            # :meth:`_process_out_of_order`, so the mark moves up with it;
            # an in-order operator raises there instead of folding the
            # record into a window it already emitted.
            self._max_ts = watermark.ts
        return results

    def _advance_all(self, wm: int) -> List[WindowResult]:
        results: List[WindowResult] = []
        for chain in self._chain_list:
            results.extend(chain.window_manager.advance(wm))
        return results

    def process_punctuation(self, punctuation: Punctuation) -> List[WindowResult]:
        results: List[WindowResult] = []
        # A punctuation marks a boundary *before* the records at its
        # timestamp, so one arriving at or behind the newest record is
        # late: it must split already-created slices.
        late = self._max_ts is not None and punctuation.ts <= self._max_ts
        if late and self.stream_in_order:
            raise StreamOrderViolation(
                f"punctuation at ts={punctuation.ts} arrived at/behind the newest "
                f"record (ts={self._max_ts}); in-order streams require strictly "
                "leading punctuations"
            )
        for chain in self._chains.values():
            chain.slicer.disarm()  # not an in-order record: see StreamSlicer.open_until
            for window in chain._windows:
                if not isinstance(window, PunctuationWindow) or not window.on_punctuation(
                    punctuation
                ):
                    continue
                if late:
                    if chain.manager.split_time(punctuation.ts):
                        results.extend(chain.window_manager.on_modification(punctuation.ts))
                else:
                    chain.slicer.invalidate_cache()
        if self.stream_in_order and self._max_ts is not None:
            results.extend(self._advance_all(self._max_ts))
        return results

    # ------------------------------------------------------------------
    # introspection

    def _newest_ts(self) -> Optional[int]:
        # ``_max_ts`` may stand at a watermark that overtook the stream;
        # the records themselves are in the slices.
        stamps = (chain.window_manager.newest_record_ts() for chain in self._chain_list)
        return max((ts for ts in stamps if ts is not None), default=None)

    def state_objects(self) -> list:
        return [chain.store for chain in self._chains.values()]

    def check_invariants(self) -> None:
        """Assert every chain's structural invariants (test and fuzz hook)."""
        for chain in self._chain_list:
            chain.check_invariants()

    def total_slices(self) -> int:
        """Total slices currently held across all chains."""
        return sum(len(chain.store) for chain in self._chains.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "eager" if self.eager else "lazy"
        order = "in-order" if self.stream_in_order else "out-of-order"
        return (
            f"GeneralSlicingOperator({mode}, {order}, queries={len(self.queries)}, "
            f"slices={self.total_slices()})"
        )
