"""The common window-operator interface shared by all techniques.

Every aggregation technique in this library -- general stream slicing
and all Section 3 baselines -- is a *drop-in window operator*: it
consumes stream elements one at a time and produces
:class:`~repro.core.types.WindowResult` outputs.  Keeping the interface
identical is what lets the benchmark harness swap techniques without
touching the pipeline (Section 5, "general slicing replaces alternative
operators ... without changing their input or output semantics").
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, List, Optional, Sequence

from ..aggregations.base import AggregateFunction
from ..windows.base import WindowType
from .characteristics import Query
from .slots import set_slot_state, slot_state
from .tracing import Tracer
from .types import Punctuation, Record, StreamElement, Watermark, WindowResult

__all__ = ["WindowOperator", "StreamOrderViolation"]


class StreamOrderViolation(RuntimeError):
    """Raised when an out-of-order record hits an in-order-only operator."""


class WindowOperator:
    """Abstract tuple-at-a-time window aggregation operator."""

    __slots__ = ("_next_query_id", "queries", "on_late_record", "_dropped_late", "_tracer")

    def __init__(self) -> None:
        self._next_query_id = 0
        self.queries: List[Query] = []
        #: Late-record side channel: called with every record dropped for
        #: exceeding the allowed lateness, instead of dropping silently.
        #: Runtime wiring, not operator state -- excluded from snapshots.
        self.on_late_record: Optional[Callable[[Record], None]] = None
        self._dropped_late = 0
        #: Observability sink (:mod:`repro.core.tracing`); ``None`` means
        #: tracing is off and no counter storage exists.  Hot paths guard
        #: with ``if tracer is not None`` -- the disabled fast path.
        self._tracer: Optional[Tracer] = None

    def __getstate__(self) -> dict:
        # Callbacks point at live runtime objects (supervisors, sinks);
        # a restored operator must be re-wired, not resurrect stale ones.
        return slot_state(self, leave_out=("on_late_record",))

    def __setstate__(self, state: dict) -> None:
        set_slot_state(self, state)
        self.on_late_record = None

    # ------------------------------------------------------------------
    # query management

    def add_query(self, window: WindowType, aggregation: AggregateFunction) -> Query:
        """Register a query; techniques adapt their strategy if needed.

        The operator registers its own copy of ``window``: whatever a
        window learns from the stream (a punctuation window's edges)
        belongs to exactly one operator, and one window object may be
        handed to any number of them.

        A query added mid-stream sees the records from then on.  The
        baselines keep what the queries already registered hold.
        :class:`~repro.core.GeneralSlicingOperator` does not yet: it
        starts a fresh slice chain for the measure whose query set
        changed, so those queries lose the slices of windows still open
        -- their next results cover only the records that follow, and
        out of order the windows behind the watermark are never emitted.
        """
        query = Query(copy.deepcopy(window), aggregation, query_id=self._next_query_id)
        self._next_query_id += 1
        self.queries.append(query)
        self._on_queries_changed()
        return query

    def remove_query(self, query_id: int) -> None:
        """Remove a query by id; techniques re-adapt."""
        before = len(self.queries)
        self.queries = [q for q in self.queries if q.query_id != query_id]
        if len(self.queries) != before:
            self._on_queries_changed()

    def _on_queries_changed(self) -> None:
        """Hook: recompute workload characteristics / rebuild state."""

    # ------------------------------------------------------------------
    # observability

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached tracer, or ``None`` while tracing is disabled."""
        return self._tracer

    def enable_tracing(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Attach a tracer (a fresh one by default) and return it.

        Passing an existing tracer shares one counter sink across
        several operators (keyed sub-operators, pipeline stages).
        Tracing only observes -- window results are identical with it
        on or off.
        """
        self._tracer = tracer if tracer is not None else Tracer()
        self._on_tracing_changed()
        return self._tracer

    def disable_tracing(self) -> None:
        """Detach the tracer; hot paths return to the no-op fast path."""
        self._tracer = None
        self._on_tracing_changed()

    def _on_tracing_changed(self) -> None:
        """Hook: propagate ``self._tracer`` into owned components."""

    # ------------------------------------------------------------------
    # late-record side channel

    def _drop_late(self, record: Record) -> None:
        """Account for a record beyond the allowed lateness.

        Implementations call this at every drop site so the loss is
        observable: the drop counter advances and, when a supervisor
        installed :attr:`on_late_record`, the record is handed to the
        side channel instead of vanishing silently.
        """
        self._dropped_late += 1
        if self._tracer is not None:
            self._tracer.count("operator.late_drops")
        if self.on_late_record is not None:
            self.on_late_record(record)

    @property
    def dropped_late_records(self) -> int:
        """Records dropped for exceeding the allowed lateness."""
        return self._dropped_late

    # ------------------------------------------------------------------
    # stream processing

    def process(self, element: StreamElement) -> List[WindowResult]:
        """Process one stream element; return any emitted window results."""
        # Exact type first: a record is the common element, and the
        # comparison is cheaper than ``isinstance``.
        if type(element) is Record or isinstance(element, Record):
            return self.process_record(element)
        if isinstance(element, Watermark):
            return self.process_watermark(element)
        if isinstance(element, Punctuation):
            return self.process_punctuation(element)
        raise TypeError(f"unsupported stream element: {element!r}")

    def process_record(self, record: Record) -> List[WindowResult]:
        raise NotImplementedError

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        raise NotImplementedError

    def process_punctuation(self, punctuation: Punctuation) -> List[WindowResult]:
        """Window punctuations; techniques without FCF support ignore them."""
        return []

    def process_batch(self, elements: Sequence[StreamElement]) -> List[WindowResult]:
        """Process a pre-materialized batch of stream elements.

        Semantically identical to concatenating the outputs of
        :meth:`process` over ``elements`` -- window results, emission
        order, and state transitions are the same on both paths.  The
        base implementation is exactly that loop; techniques override it
        to amortize per-record dispatch over runs of in-order records
        (the batched ingestion fast path).  Watermarks, punctuations,
        and out-of-order records inside a batch take the per-element
        path, so emission timing never changes.
        """
        results: List[WindowResult] = []
        process = self.process
        for element in elements:
            out = process(element)
            if out:
                results.extend(out)
        return results

    def flush(self) -> List[WindowResult]:
        """Emit every window that can still close at end-of-stream.

        Streams often end between watermarks, leaving the trailing
        windows buffered: nothing ever advances event time past them, so
        their results are never emitted.  Flushing advances event time
        past the end of every window that holds the last record
        (:meth:`~repro.windows.base.WindowType.flush_horizon`, plus the
        allowed lateness), exactly as a final upstream watermark would
        -- results and ordering are identical to a stream that carried
        that watermark itself.  Count-based windows are unaffected: an
        incomplete count window has no result by definition.
        Idempotent: a second flush emits nothing new.
        """
        max_ts = self._newest_ts()
        if max_ts is None:
            return []
        horizon = max_ts
        for query in self.queries:
            horizon = max(horizon, query.window.flush_horizon(max_ts))
        horizon += getattr(self, "allowed_lateness", 0) + 1
        return self.process_watermark(Watermark(horizon))

    def _newest_ts(self) -> Optional[int]:
        """Event time of the newest record held (``None`` without one)."""
        return getattr(self, "_max_ts", None)

    def run(
        self,
        elements: Iterable[StreamElement],
        *,
        batch_size: Optional[int] = None,
    ) -> List[WindowResult]:
        """Convenience: process a whole stream, collecting all results.

        ``batch_size`` routes the stream through :meth:`process_batch`
        in chunks of that many elements; ``None`` (the default) keeps
        the tuple-at-a-time path.  Both produce identical results.
        """
        results: List[WindowResult] = []
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {batch_size}")
            batch: List[StreamElement] = []
            for element in elements:
                batch.append(element)
                if len(batch) >= batch_size:
                    results.extend(self.process_batch(batch))
                    batch = []
            if batch:
                results.extend(self.process_batch(batch))
            return results
        process = self.process
        for element in elements:
            out = process(element)
            if out:
                results.extend(out)
        return results

    # ------------------------------------------------------------------
    # introspection used by the memory experiments

    def state_objects(self) -> list:
        """The operator's retained state (roots for deep size measurement)."""
        return []

    def check_invariants(self) -> None:
        """Assert the operator's structural invariants (test and fuzz hook);
        raises ``AssertionError`` naming the violation.  A no-op for
        techniques that hold none; wrappers forward to what they wrap."""
