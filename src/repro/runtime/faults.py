"""Deterministic, seeded fault injection for chaos testing.

The paper inherits fault tolerance from Flink; our substrate has to earn
it.  This module supplies the *faults*: reproducible crash schedules
that can be wrapped around any :class:`~repro.core.operator_base.WindowOperator`
or source, so the recovery machinery in :mod:`repro.runtime.recovery`
can be exercised -- and its exactly-once guarantee asserted -- under
operator exceptions, simulated crashes at record and batch boundaries,
transient source hiccups, and watermark stalls.

Everything is driven by explicit positions or a seeded
:class:`FaultPlan`, never by wall-clock randomness: the same seed always
yields the same fault schedule, which is what makes the chaos
equivalence tests ("crash-and-recover emits bit-identical results")
meaningful.

Fire-once semantics: each scheduled fault fires exactly once per wrapper
lifetime.  The wrapper is deliberately *transient* (``transient = True``):
a supervisor snapshots and restores the wrapped inner operator only, so
the fired-fault bookkeeping survives recovery -- a simulated crash, like
a real one, does not deterministically recur on replay.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Any, Iterable, List, Sequence, Set

from ..core.operator_base import WindowOperator
from ..core.types import Record, StreamElement, Watermark
from .sources import ReplayableSource

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "InjectedOperatorError",
    "SourceHiccup",
    "TransientStoreError",
    "FaultPlan",
    "FaultInjectingOperator",
    "FaultySource",
    "FaultyStore",
    "stall_watermarks",
]


class InjectedFault(RuntimeError):
    """Base class of all injected failures."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message)
        #: Record (or read-cursor) position the fault fired at.
        self.position = position


class InjectedCrash(InjectedFault):
    """Simulated process crash *before* processing a record."""


class InjectedOperatorError(InjectedFault):
    """Operator exception *after* a record mutated state (a 'bug')."""


class SourceHiccup(InjectedFault, OSError):
    """Transient source failure; the same read succeeds when retried.
    An :class:`OSError`, so it is retried like store I/O."""


class TransientStoreError(OSError):
    """Injected transient I/O failure of a checkpoint store operation.

    Subclasses :class:`OSError` so store users exercise the same retry
    path a real flaky disk or network filesystem would trigger; the
    retried operation succeeds (fire-once, like every injected fault).
    """

    def __init__(self, message: str, operation: int) -> None:
        super().__init__(message)
        #: 0-based index of the store operation the fault fired at.
        self.operation = operation


def _sample_positions(rng: random.Random, horizon: int, count: int) -> tuple:
    """``count`` distinct positions in ``[1, horizon)``, sorted."""
    population = range(1, horizon)
    count = min(count, len(population))
    if count <= 0:
        return ()
    return tuple(sorted(rng.sample(population, count)))


class FaultPlan:
    """A seeded, deterministic schedule of fault positions.

    Parameters
    ----------
    seed:
        RNG seed; equal seeds produce equal schedules.
    horizon:
        Exclusive upper bound for fault positions (record count of the
        stream under test).  Position 0 is never sampled so every run
        makes progress before the first fault.
    crashes, errors, hiccups:
        How many crash points (pre-record), operator-error points
        (post-record), and source hiccup points (read cursor) to draw.
    """

    __slots__ = ("seed", "horizon", "crash_points", "error_points", "hiccup_points")

    def __init__(
        self,
        seed: int,
        horizon: int,
        *,
        crashes: int = 0,
        errors: int = 0,
        hiccups: int = 0,
    ) -> None:
        if horizon < 2 and (crashes or errors or hiccups):
            raise ValueError(f"horizon {horizon} leaves no room for faults")
        self.seed = seed
        self.horizon = horizon
        rng = random.Random(seed)
        self.crash_points = _sample_positions(rng, horizon, crashes)
        self.error_points = _sample_positions(rng, horizon, errors)
        self.hiccup_points = _sample_positions(rng, horizon, hiccups)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, crashes={self.crash_points}, "
            f"errors={self.error_points}, hiccups={self.hiccup_points})"
        )


class FaultInjectingOperator(WindowOperator):
    """Wrap any window operator with a deterministic crash schedule.

    ``crash_at`` positions fire :class:`InjectedCrash` *before* the
    N-th record is processed (N = records processed so far), simulating
    a crash at a record boundary; when the position falls inside a
    batch, the batch is fed record-at-a-time up to the fault, so the
    inner operator is left with genuinely half-applied batch state --
    exactly what recovery must be able to roll back.  ``error_at``
    positions fire :class:`InjectedOperatorError` *after* record N
    mutated state (an operator bug rather than a clean crash).

    Each fault fires once per wrapper lifetime.  ``transient = True``
    tells supervisors to snapshot/restore :attr:`inner` only, keeping
    the fired set out of checkpoints (see module docstring).
    """

    transient = True

    __slots__ = ("inner", "_crash_at", "_error_at", "fired", "records_processed")

    def __init__(
        self,
        inner: WindowOperator,
        *,
        crash_at: Iterable[int] = (),
        error_at: Iterable[int] = (),
        plan: "FaultPlan | None" = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        if plan is not None:
            crash_at = tuple(crash_at) + plan.crash_points
            error_at = tuple(error_at) + plan.error_points
        self._crash_at: Set[int] = set(crash_at)
        self._error_at: Set[int] = set(error_at)
        self.fired: Set[int] = set()
        self.records_processed = 0

    # ------------------------------------------------------------------
    # query management (delegated)

    def add_query(self, window, aggregation):
        return self.inner.add_query(window, aggregation)

    def remove_query(self, query_id: int) -> None:
        self.inner.remove_query(query_id)

    @property
    def queries(self):  # type: ignore[override]
        return self.inner.queries

    @queries.setter
    def queries(self, value: Any) -> None:
        # WindowOperator.__init__ assigns an empty list; route nothing.
        pass

    # ------------------------------------------------------------------
    # late-record side channel and tracing (delegated)

    @property
    def on_late_record(self):  # type: ignore[override]
        return self.inner.on_late_record

    @on_late_record.setter
    def on_late_record(self, hook) -> None:
        # WindowOperator.__init__ assigns None before ``inner`` is set;
        # route nothing then (a hook already on ``inner`` stays).
        inner = getattr(self, "inner", None)
        if inner is not None:
            inner.on_late_record = hook

    @property
    def dropped_late_records(self) -> int:
        return self.inner.dropped_late_records

    def _on_tracing_changed(self) -> None:
        # The wrapper and the wrapped operator share one counter sink.
        if self._tracer is None:
            self.inner.disable_tracing()
        else:
            self.inner.enable_tracing(self._tracer)

    # ------------------------------------------------------------------
    # fault schedule

    def _maybe_crash(self) -> None:
        position = self.records_processed
        if position in self._crash_at and position not in self.fired:
            self.fired.add(position)
            raise InjectedCrash(
                f"injected crash before record #{position}", position
            )

    def _maybe_error(self) -> None:
        position = self.records_processed - 1
        if position in self._error_at and ~position not in self.fired:
            # Errors and crashes share one fired set; error positions are
            # stored bit-inverted so both kinds can target one record.
            self.fired.add(~position)
            raise InjectedOperatorError(
                f"injected operator error after record #{position}", position
            )

    def _pending_fault_in(self, lo: int, hi: int) -> bool:
        """Any unfired fault with record position in ``[lo, hi)``?"""
        for position in self._crash_at:
            if lo <= position < hi and position not in self.fired:
                return True
        for position in self._error_at:
            if lo <= position < hi and ~position not in self.fired:
                return True
        return False

    # ------------------------------------------------------------------
    # stream processing

    def process_record(self, record):
        self._maybe_crash()
        results = self.inner.process_record(record)
        self.records_processed += 1
        self._maybe_error()
        return results

    def process_watermark(self, watermark):
        return self.inner.process_watermark(watermark)

    def process_punctuation(self, punctuation):
        return self.inner.process_punctuation(punctuation)

    def flush(self):
        # Faults target record positions; end-of-stream flush passes
        # straight through to the wrapped operator.
        return self.inner.flush()

    def process_batch(self, elements: Sequence[StreamElement]):
        lo = self.records_processed
        hi = lo + sum(map(isinstance, elements, repeat(Record)))
        if not self._pending_fault_in(lo, hi):
            # Fault-free batch: keep the inner operator's fast path.
            results = self.inner.process_batch(elements)
            self.records_processed = hi
            return results
        # A fault lands inside this batch: feed element-at-a-time so the
        # crash interrupts mid-batch with partial state applied.
        results = []
        for element in elements:
            if isinstance(element, Record):
                self._maybe_crash()
                results.extend(self.inner.process_record(element))
                self.records_processed += 1
                self._maybe_error()
            else:
                results.extend(self.inner.process(element))
        return results

    # ------------------------------------------------------------------

    def state_objects(self) -> list:
        return self.inner.state_objects()

    def check_invariants(self) -> None:
        self.inner.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjectingOperator(crashes={sorted(self._crash_at)}, "
            f"errors={sorted(self._error_at)}, fired={len(self.fired)}, "
            f"inner={self.inner!r})"
        )


class FaultySource(ReplayableSource):
    """A replayable source whose reads hiccup at scheduled cursors.

    A hiccup fires when a read covers a scheduled cursor position, once
    per position: the retried read succeeds, modelling a transient
    source outage (the supervisor retries without restoring state).
    """

    def __init__(
        self,
        elements: Sequence[StreamElement],
        *,
        hiccup_at: Iterable[int] = (),
        plan: "FaultPlan | None" = None,
    ) -> None:
        super().__init__(elements)
        positions = tuple(hiccup_at)
        if plan is not None:
            positions += plan.hiccup_points
        self._pending: Set[int] = set(positions)
        self.hiccups_fired = 0

    def read(self, cursor: int, count: int) -> List[StreamElement]:
        if self._pending:
            end = min(cursor + count, len(self))
            for position in sorted(self._pending):
                if cursor <= position < end:
                    self._pending.discard(position)
                    self.hiccups_fired += 1
                    raise SourceHiccup(
                        f"injected source hiccup at cursor {position}", position
                    )
        return super().read(cursor, count)


class FaultyStore:
    """Checkpoint-store wrapper injecting storage faults deterministically.

    Wraps any :class:`~repro.runtime.durability.CheckpointStore` and
    damages it on schedule, by 0-based *save index* (the N-th ``save``
    call) or *load index* (the N-th ``load_latest`` call):

    * ``torn_write_at`` -- the save completes but the stored frame is
      truncated at a seeded point, as if the process died mid-write
      after the rename was already queued (or the kernel lost the tail
      of the page cache).  Detected by CRC/length checks on load.
    * ``bit_flip_at`` -- one seeded bit of the stored frame flips after
      a successful save (disk rot).  Detected by the CRC on load.
    * ``io_error_saves`` / ``io_error_loads`` -- the operation raises
      :class:`TransientStoreError` once; the retry succeeds.

    Corruption goes through the store's own ``corrupt()`` hook, so the
    same schedule exercises :class:`InMemoryStore` and
    :class:`DiskCheckpointStore` identically.  Everything is seeded:
    equal seeds damage equal byte positions.
    """

    def __init__(
        self,
        inner,
        *,
        torn_write_at: Iterable[int] = (),
        bit_flip_at: Iterable[int] = (),
        io_error_saves: Iterable[int] = (),
        io_error_loads: Iterable[int] = (),
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self._torn_write_at = set(torn_write_at)
        self._bit_flip_at = set(bit_flip_at)
        self._io_error_saves = set(io_error_saves)
        self._io_error_loads = set(io_error_loads)
        self._rng = random.Random(seed)
        self._saves = 0
        self._loads = 0
        self.faults_fired = 0

    @property
    def tracer(self):
        return self.inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.inner.tracer = value

    def save(self, blob, *, cursor, records_processed, meta=None) -> int:
        index = self._saves
        self._saves += 1
        if index in self._io_error_saves:
            self._io_error_saves.discard(index)
            self.faults_fired += 1
            raise TransientStoreError(
                f"injected transient store error on save #{index}", index
            )
        generation = self.inner.save(
            blob, cursor=cursor, records_processed=records_processed, meta=meta
        )
        size = self.inner.frame_size(generation)
        if index in self._torn_write_at:
            self._torn_write_at.discard(index)
            self.faults_fired += 1
            # Tear somewhere inside the frame: always short enough to
            # lose payload bytes, never a clean empty file.
            self.inner.corrupt(
                generation, truncate_to=self._rng.randrange(1, size)
            )
        if index in self._bit_flip_at:
            self._bit_flip_at.discard(index)
            self.faults_fired += 1
            self.inner.corrupt(generation, flip_bit=self._rng.randrange(size * 8))
        return generation

    def load_latest(self, *, min_generation=None):
        index = self._loads
        self._loads += 1
        if index in self._io_error_loads:
            self._io_error_loads.discard(index)
            self.faults_fired += 1
            raise TransientStoreError(
                f"injected transient store error on load #{index}", index
            )
        return self.inner.load_latest(min_generation=min_generation)

    # Pure delegation for the rest of the store interface.

    def load(self, generation: int):
        return self.inner.load(generation)

    def generations(self):
        return self.inner.generations()

    def corrupt(self, generation, **kwargs) -> None:
        self.inner.corrupt(generation, **kwargs)

    def frame_size(self, generation: int) -> int:
        return self.inner.frame_size(generation)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultyStore(saves={self._saves}, loads={self._loads}, "
            f"fired={self.faults_fired}, inner={self.inner!r})"
        )


def stall_watermarks(
    elements: Sequence[StreamElement], *, start: int, length: int
) -> List[StreamElement]:
    """Withhold the watermarks in positions ``[start, start + length)``.

    Models a stalled upstream watermark generator: the affected
    watermarks are removed from the stream and the newest one is
    re-delivered at position ``start + length`` (or at end-of-stream if
    the stall outlives the stream).  Records are never touched, so the
    stalled stream carries the same data, later knowledge.
    """
    if start < 0 or length < 0:
        raise ValueError("start and length must be non-negative")
    out: List[StreamElement] = []
    held: "Watermark | None" = None
    release = start + length
    for index, element in enumerate(elements):
        if held is not None and index >= release:
            out.append(held)
            held = None
        if isinstance(element, Watermark) and start <= index < release:
            if held is None or element.ts > held.ts:
                held = element
            continue
        out.append(element)
    if held is not None:
        out.append(held)
    return out
