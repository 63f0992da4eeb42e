"""Supervised execution: checkpoint-and-replay recovery with
exactly-once re-emission.

The paper runs its operators inside Flink and inherits checkpointing,
restarts, and exactly-once sinks for free.  This module is that story
for our substrate: :class:`SupervisedPipeline` drives a window operator
over a replayable source, takes periodic snapshots (always at batch
boundaries, never of half-applied batches), and on any operator failure
restores the last snapshot, rewinds the source cursor, and replays the
tail under a retry/backoff budget.

Durable checkpoints
-------------------
Snapshots go to a :class:`~repro.runtime.durability.CheckpointStore`
(default: :class:`~repro.runtime.durability.InMemoryStore` keeping one
generation -- the classic in-supervisor behaviour).  With a
:class:`~repro.runtime.durability.DiskCheckpointStore` the recovery
state survives the process: checkpoints are CRC32-framed files written
atomically, and a restore that finds the newest generation corrupt (a
torn write, a bit flip) falls back generation-by-generation to the last
good one.  The supervisor keeps its emitted-results log deep enough to
cover the oldest retained generation *of this run*, so exactly-once
re-emission holds no matter which generation the restore lands on.

Exactly-once re-emission
------------------------
Replayed input re-produces results the sink already saw.  Operators are
deterministic (same state + same elements => same emissions, the
property the checkpoint tests assert), so the supervisor logs every
delivered result at the end cursor of the batch that produced it and,
during replay, matches re-emitted results against that log one-for-one
-- suppressing the duplicates and *verifying* they are bit-identical to
what was delivered (a mismatch means replay diverged and raises
:class:`RecoveryError` rather than silently corrupting the sink).  The
sink therefore observes every window result exactly once, crash or no
crash.

Poison-record quarantine
------------------------
A record whose UDF raises *deterministically* would otherwise burn the
whole restart budget and kill the run.  With a
:class:`~repro.runtime.durability.DeadLetterQueue` attached, a failing
batch is first retried ``dlq.max_retries`` times (each retry is an
ordinary restore-and-replay, so transient faults heal); past the budget
the supervisor restores once more and replays the batch
record-at-a-time to isolate the culprit, quarantines it (cause, cursor,
attempt count, ``on_poison_record`` hook), and continues without it.
Quarantine decisions live in a cursor-indexed log applied on every
pass, so a later crash-and-replay neither re-emits nor re-quarantines a
poisoned record.

Late records
------------
A record beyond the allowed lateness is dropped by the operator, which
counts it (``dropped_late_records``, part of every snapshot) and hands
it to its ``on_late_record`` hook; the supervisor forwards it to the
``late_record_sink``.  Replay is deterministic, so the n-th drop of a
replay is the n-th drop of the first pass: the supervisor counts drops
from the restored operator's own count and reports a drop only when it
is past the highest one reported so far.  Each late record reaches the
sink once, crash or no crash.  A drop is reported when it happens, so a
run that ends in :class:`PipelineFailed` may have reported a late
record of a batch it never finished.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from ..core.operator_base import WindowOperator
from ..core.tracing import Tracer
from ..core.types import Record, StreamElement, WindowResult
from .checkpoint import restore, snapshot
from .durability import (
    CheckpointStore,
    DeadLetterQueue,
    InMemoryStore,
    StoredCheckpoint,
)
from .faults import SourceHiccup
from .metrics import RecoveryStats
from .sources import ReplayableSource

T = TypeVar("T")

__all__ = [
    "RestartPolicy",
    "PipelineFailed",
    "RecoveryError",
    "SupervisedPipeline",
]


class RecoveryError(RuntimeError):
    """Replay diverged from the pre-crash run (determinism violated)."""


class PipelineFailed(RuntimeError):
    """The restart budget is exhausted; the last failure is the cause."""

    def __init__(self, message: str, failures: List[BaseException]) -> None:
        super().__init__(message)
        #: Every failure observed, oldest first.
        self.failures = failures


class RestartPolicy:
    """Retry/backoff budget for supervised execution.

    ``max_restarts`` bounds operator restarts and, independently,
    consecutive source-read retries.  The delay before restart ``n``
    (0-based) is ``backoff_seconds * backoff_factor**n``, capped at
    ``max_backoff_seconds``.

    ``jitter`` decorrelates restarts that would otherwise fire in
    lockstep (e.g. several shards killed by one fault): the base delay
    is stretched by up to ``jitter`` of itself, deterministically --
    :meth:`delay` is a pure function of ``(seed, attempt, token)``, so
    equal seeds reproduce equal schedules while different ``token``
    values (shard indexes, typically) spread out.
    """

    __slots__ = (
        "max_restarts",
        "backoff_seconds",
        "backoff_factor",
        "max_backoff_seconds",
        "jitter",
        "seed",
    )

    def __init__(
        self,
        max_restarts: int = 3,
        backoff_seconds: float = 0.0,
        backoff_factor: float = 2.0,
        max_backoff_seconds: float = 30.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if backoff_seconds < 0 or max_backoff_seconds < 0:
            raise ValueError("backoff durations must be non-negative")
        if backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {backoff_factor}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_restarts = max_restarts
        self.backoff_seconds = backoff_seconds
        self.backoff_factor = backoff_factor
        self.max_backoff_seconds = max_backoff_seconds
        self.jitter = jitter
        self.seed = seed

    def delay(self, attempt: int, *, token: int = 0) -> float:
        """Backoff before the given 0-based restart attempt.

        ``token`` names the restarting party (a shard index); with
        ``jitter`` enabled, different tokens draw different -- but
        seed-deterministic -- stretches of the same base delay.
        """
        if self.backoff_seconds == 0.0:
            return 0.0
        base = min(
            self.max_backoff_seconds,
            self.backoff_seconds * self.backoff_factor**attempt,
        )
        if self.jitter == 0.0:
            return base
        # Seeded by value, not by object identity: pure given the seed.
        draw = random.Random(f"{self.seed}|{attempt}|{token}").random()
        return base * (1.0 + self.jitter * draw)


def _results_match(expected: WindowResult, result: WindowResult) -> bool:
    # WindowResult.__eq__ ignores the key tag; replay verification
    # must not.
    return expected == result and expected.key == result.key


def _count_records(elements: Sequence[StreamElement]) -> int:
    return sum(1 for element in elements if isinstance(element, Record))


class _RestartUnit:
    """The recovery state of one restartable unit: a
    :class:`SupervisedPipeline` run, or one shard of a
    :class:`~repro.runtime.sharded.ShardedPipeline` run.

    Positions are the driver's own (a source cursor, a feed seq); a
    generation is saved at a position, and a result is logged at the
    position after which a restore re-produces it.  A restore at
    position ``P`` expects every logged result after ``P``, one for one.

    * **Floor.**  The first generation this run saved, or the one it
      resumed from: a restore never reaches below it, so a fresh run
      never restores what a previous run left in a shared store.
    * **Save / load.**  Transient :class:`OSError` is retried under the
      restart policy (``durability.save_retries`` /
      ``durability.load_retries``); past the budget, :class:`PipelineFailed`.
    * **Trim.**  The log keeps what was delivered after the oldest
      generation *of this run* the store still retains -- known from the
      unit's own saves, never read back from the store.
    * **Budget.**  :meth:`restart` counts against ``max_restarts``.
    """

    __slots__ = ("store", "policy", "failures", "tracer", "sleep", "token", "prefix",
                 "floor", "restarts", "_saved", "_log", "_pending")

    def __init__(
        self,
        store: CheckpointStore,
        *,
        policy: RestartPolicy,
        failures: List[BaseException],
        tracer: Optional[Tracer],
        sleep: Callable[[float], None],
        token: int = 0,
        prefix: str = "",
    ) -> None:
        self.store = store
        self.policy = policy
        #: The driver's failure log, shared by all of its units.
        self.failures = failures
        self.tracer = tracer
        self.sleep = sleep
        #: Backoff-jitter token (a shard index).
        self.token = token
        #: Leads the unit's error messages (``"shard 3 "``).
        self.prefix = prefix
        self.floor: Optional[int] = None
        self.restarts = 0
        #: (generation, position) this run saved or resumed from, oldest
        #: first, while the store may still retain the generation.
        self._saved: Deque[Tuple[int, int]] = deque()
        #: (position, result) of every delivered result a restore may
        #: have to re-produce.
        self._log: List[Tuple[int, WindowResult]] = []
        #: Results the replay in progress must re-produce verbatim.
        self._pending: Deque[WindowResult] = deque()

    def _store_io(self, operation: Callable[[], T], counter: str, gave_up: str) -> T:
        attempt = 0
        while True:
            try:
                return operation()
            except OSError as exc:
                self.failures.append(exc)
                if self.tracer is not None:
                    self.tracer.count(counter)
                if attempt >= self.policy.max_restarts:
                    raise PipelineFailed(
                        f"{self.prefix}checkpoint {gave_up.format(attempt + 1)}",
                        self.failures,
                    ) from exc
                self.backoff(attempt)
                attempt += 1

    def save(
        self, blob: bytes, position: int, records_processed: int, meta: Optional[dict] = None
    ) -> int:
        """Save one generation and trim the log; returns the horizon:
        the position of the oldest generation of this run the store
        still retains (no restore lands below it)."""
        generation = self._store_io(
            lambda: self.store.save(
                blob, cursor=position, records_processed=records_processed, meta=meta
            ),
            "durability.save_retries",
            f"save failed {{}} times at cursor {position}",
        )
        if self.floor is None:
            self.floor = generation
        saved = self._saved
        saved.append((generation, position))
        retained = set(self.store.generations())
        while len(saved) > 1 and saved[0][0] not in retained:
            saved.popleft()
        horizon = saved[0][1]
        if self._log and self._log[0][0] <= horizon:
            self._log = [entry for entry in self._log if entry[0] > horizon]
        return horizon

    def resume(self) -> Optional[StoredCheckpoint]:
        """The newest loadable generation in the store, whichever run
        saved it; it becomes the floor.  ``None`` for an empty store."""
        loaded = self._store_io(
            self.store.load_latest, "durability.load_retries", "load failed {} times"
        )
        if loaded is not None:
            self.floor = loaded.generation
            self._saved.append((loaded.generation, loaded.cursor))
        return loaded

    def restore(self) -> Optional[StoredCheckpoint]:
        """The newest loadable generation at or above the floor, with
        the replay it implies armed.  ``None`` when this run saved
        nothing yet: the replay starts from the start."""
        if self.floor is None:
            loaded = None
            position = -1
        else:
            loaded = self._store_io(
                lambda: self.store.load_latest(min_generation=self.floor),
                "durability.load_retries",
                "load failed {} times",
            )
            if loaded is None:
                raise PipelineFailed(
                    f"{self.prefix}no loadable checkpoint generation remains "
                    "(all retained generations are corrupt)",
                    self.failures,
                )
            position = loaded.cursor
        self._pending = deque(result for at, result in self._log if at > position)
        return loaded

    def deliver(
        self, results: List[WindowResult], position: int, emit: Callable[[WindowResult], None]
    ) -> int:
        """Match ``results`` against the replay in progress and ``emit``
        (and log at ``position``) the rest; returns how many matched.
        A mismatch means the replay diverged: :class:`RecoveryError`."""
        pending = self._pending
        log = self._log
        deduped = 0
        for result in results:
            if pending:
                expected = pending.popleft()
                if not _results_match(expected, result):
                    raise RecoveryError(
                        f"{self.prefix}replay diverged from the pre-crash run: "
                        f"expected {expected!r}, re-emitted {result!r}"
                    )
                deduped += 1
            else:
                emit(result)
                log.append((position, result))
        return deduped

    def restart(self, cause: BaseException, gave_up: str) -> None:
        """Count one restart; past ``max_restarts`` the run gives up with
        :class:`PipelineFailed` (``gave_up`` formatted with the count)."""
        self.restarts += 1
        if self.restarts > self.policy.max_restarts:
            raise PipelineFailed(gave_up.format(self.restarts), self.failures) from cause

    def backoff(self, attempt: int) -> None:
        self.sleep(self.policy.delay(attempt, token=self.token))


class SupervisedPipeline:
    """Crash-surviving driver: source cursor + checkpoints + replay.

    Parameters
    ----------
    operator:
        The window operator to supervise.  A wrapper with a true
        ``transient`` attribute (e.g.
        :class:`~repro.runtime.faults.FaultInjectingOperator`) is kept
        alive across restarts and only its ``inner`` operator is
        snapshotted/restored -- fault bookkeeping is environment, not
        state.
    sink:
        Anything with an ``emit(result)`` method; observes each window
        result exactly once.
    checkpoint_every:
        Snapshot cadence in records; evaluated at batch boundaries.
    batch_size:
        Elements per :meth:`WindowOperator.process_batch` call.
    restart_policy:
        Retry/backoff budget (default: 3 restarts, no backoff).
    store:
        Where checkpoints live (default:
        :class:`~repro.runtime.durability.InMemoryStore` keeping one
        generation).  A disk store makes recovery survive the process;
        see the module docstring for corruption fallback semantics.
    dlq:
        Optional :class:`~repro.runtime.durability.DeadLetterQueue`;
        when set, deterministic per-record failures are quarantined
        after a bounded number of retries instead of failing the run.
    late_record_sink:
        Optional callable (or object with ``append``) receiving records
        dropped beyond the allowed lateness, exactly once each (see the
        module docstring); ``stats.late_records`` counts them.
    tracer:
        Optional :class:`~repro.core.tracing.Tracer`; receives the
        ``durability.*`` / ``dlq.*`` counters (shared with the store
        and DLQ unless they already carry their own tracer).
    sleep / clock:
        Injectable for tests; default ``time.sleep`` /
        ``time.perf_counter``.
    """

    def __init__(
        self,
        operator: WindowOperator,
        sink,
        *,
        checkpoint_every: int = 1_000,
        batch_size: int = 1,
        restart_policy: Optional[RestartPolicy] = None,
        store: Optional[CheckpointStore] = None,
        dlq: Optional[DeadLetterQueue] = None,
        late_record_sink=None,
        stats: Optional[RecoveryStats] = None,
        tracer: Optional[Tracer] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._operator = operator
        self.sink = sink
        self.checkpoint_every = checkpoint_every
        self.batch_size = batch_size
        self.policy = restart_policy if restart_policy is not None else RestartPolicy()
        self.store = store if store is not None else InMemoryStore(keep=1)
        self.dlq = dlq
        if late_record_sink is not None and not callable(late_record_sink):
            late_record_sink = late_record_sink.append
        self._late_sink = late_record_sink
        self.stats = stats if stats is not None else RecoveryStats()
        self.tracer = tracer
        if tracer is not None:
            if self.store.tracer is None:
                self.store.tracer = tracer
            if dlq is not None and dlq.tracer is None:
                dlq.tracer = tracer
        self._sleep = sleep
        self._clock = clock

        self._failures: List[BaseException] = []
        # Drops the operator has made (reset from its checkpointed
        # ``dropped_late_records`` on every restore) and the highest drop
        # reported: a drop a replay repeats is not reported again.
        self._late_seen = 0
        self._late_reported = 0
        # Poison-record bookkeeping (only populated with a DLQ).
        self._quarantined: Set[int] = set()
        self._failures_at: Dict[int, int] = {}
        self._isolate_at: Optional[int] = None
        # The run's recovery state: floor, saves, restarts and the log of
        # delivered results (made per run).
        self._unit: Optional[_RestartUnit] = None

    # ------------------------------------------------------------------
    # operator (un)wrapping

    @property
    def operator(self) -> WindowOperator:
        """The supervised operator (the wrapper, when one was given)."""
        return self._operator

    def _snapshot_target(self) -> WindowOperator:
        operator = self._operator
        if getattr(operator, "transient", False):
            return operator.inner
        return operator

    def _reseat(self, restored: WindowOperator) -> None:
        operator = self._operator
        if getattr(operator, "transient", False):
            operator.inner = restored
        else:
            self._operator = restored
        self._install_late_hook()

    def _install_late_hook(self) -> None:
        target = self._snapshot_target()
        target.on_late_record = self._on_late_record
        self._late_seen = target.dropped_late_records

    def _on_late_record(self, record: Record) -> None:
        self._late_seen += 1
        if self._late_seen > self._late_reported:
            self._late_reported = self._late_seen
            self.stats.late_records += 1
            if self._late_sink is not None:
                self._late_sink(record)

    # ------------------------------------------------------------------
    # checkpointing against the durable store

    def _take_checkpoint(self, cursor: int, records_processed: int) -> None:
        """Snapshot and save; transient store I/O errors are retried
        under the restart policy (the previous generation stands until a
        save succeeds)."""
        blob = snapshot(self._snapshot_target(), tracer=self.tracer)
        self._unit.save(blob, cursor, records_processed)
        self.stats.checkpoints_taken += 1

    def _restore_latest(self) -> StoredCheckpoint:
        """Load the newest loadable generation of this run (transient
        I/O retried, corrupt generations skipped by the store) and
        reseat the operator from it."""
        # Every run saves at its start or resumes: a restore point exists.
        loaded = self._unit.restore()
        newest = self.store.generations()[-1]
        if newest != loaded.generation:
            # The store fell back past corrupt newer generations.
            skipped = sum(
                1 for g in self.store.generations() if g > loaded.generation
            )
            self.stats.store_fallbacks += skipped
        self._reseat(restore(loaded.blob, tracer=self.tracer))
        return loaded

    # ------------------------------------------------------------------
    # poison-record quarantine

    def _quarantine_filter(
        self, cursor: int, batch: List[StreamElement]
    ) -> List[StreamElement]:
        """Drop records the DLQ has quarantined (applied on every pass,
        so replay neither re-emits nor re-quarantines them)."""
        if not self._quarantined:
            return batch
        return [
            element
            for offset, element in enumerate(batch)
            if not (
                isinstance(element, Record) and cursor + offset in self._quarantined
            )
        ]

    def _deliver(self, results: List[WindowResult], end: int) -> None:
        """Exactly-once delivery: replayed results must match what the
        sink already observed; only genuinely new results are emitted
        (and logged at the end cursor of the batch that produced them)."""
        self.stats.deduped_results += self._unit.deliver(results, end, self._emit)

    def _emit(self, result: WindowResult) -> None:
        self.sink.emit(result)
        self.stats.results_emitted += 1

    def _isolate_batch(self, cursor: int, batch: List[StreamElement]) -> Optional[Record]:
        """Replay one failing batch record-at-a-time to find the poison
        record.  Successful prefixes are delivered (and deduped) as they
        go; the culprit is quarantined and returned, with operator state
        left mid-batch for the caller to roll back.  Returns ``None``
        when the whole batch passes (the failure was transient after
        all)."""
        for offset, element in enumerate(batch):
            position = cursor + offset
            if isinstance(element, Record):
                if position in self._quarantined:
                    continue
                try:
                    results = self._operator.process(element)
                except Exception as exc:
                    attempts = self._failures_at.get(cursor, 0)
                    # May raise DeadLetterOverflow: the caller escalates
                    # that to the ordinary restart budget.
                    self.dlq.quarantine(
                        element, cursor=position, attempts=attempts, cause=exc
                    )
                    self._quarantined.add(position)
                    self.stats.quarantined_records += 1
                    self._failures_at.pop(cursor, None)
                    self._isolate_at = None
                    return element
            else:
                results = self._operator.process(element)
            self._deliver(results, cursor + len(batch))
        self._failures_at.pop(cursor, None)
        self._isolate_at = None
        return None

    # ------------------------------------------------------------------
    # the supervision loop

    def run(self, elements, *, resume: bool = False) -> RecoveryStats:
        """Drain the stream, surviving failures; returns the run's stats.

        ``elements`` may be a :class:`ReplayableSource` (e.g. a
        :class:`~repro.runtime.faults.FaultySource`) or any sequence,
        which is materialized into one.

        ``resume=True`` continues from the newest loadable generation a
        previous run (possibly a dead process) left in the store,
        re-feeding the *same* stream: the operator restores from the
        checkpoint and the cursor rewinds to it.  Results (and late
        records) the dead process emitted after that checkpoint are
        re-emitted (the classic at-least-once boundary of a
        non-transactional sink); within the resumed run, delivery is
        exactly-once as usual.
        """
        source = (
            elements
            if isinstance(elements, ReplayableSource)
            else ReplayableSource(elements)
        )
        stats = self.stats
        policy = self.policy
        self._install_late_hook()
        unit = self._unit = _RestartUnit(
            self.store,
            policy=policy,
            failures=self._failures,
            tracer=self.tracer,
            sleep=self._sleep,
        )

        cursor = 0
        records_done = 0
        loaded = unit.resume() if resume else None
        if loaded is not None:
            self._reseat(restore(loaded.blob, tracer=self.tracer))
            cursor = loaded.cursor
            records_done = loaded.records_processed
            stats.resumed_from_cursor = loaded.cursor
        else:
            self._take_checkpoint(0, 0)
        # Drops before the start (or the resumed checkpoint) are not this
        # run's to report.
        self._late_reported = self._late_seen
        records_since_checkpoint = 0
        hiccups_in_row = 0
        total = len(source)

        while cursor < total:
            try:
                batch = source.read(cursor, self.batch_size)
            except SourceHiccup as exc:
                # Transient: operator state is intact; retry the read.
                hiccups_in_row += 1
                stats.source_retries += 1
                self._failures.append(exc)
                if hiccups_in_row > policy.max_restarts:
                    raise PipelineFailed(
                        f"source failed {hiccups_in_row} consecutive reads "
                        f"at cursor {cursor}",
                        self._failures,
                    ) from exc
                self._sleep(policy.delay(hiccups_in_row - 1))
                continue
            hiccups_in_row = 0

            end = cursor + len(batch)
            try:
                if self._isolate_at == cursor:
                    poison = self._isolate_batch(cursor, batch)
                    if poison is not None:
                        # The culprit left mid-batch state behind; roll
                        # back to the checkpoint and replay without it.
                        loaded = self._rewind(stats)
                        cursor = loaded.cursor
                        records_done = loaded.records_processed
                        records_since_checkpoint = 0
                        continue
                else:
                    results = self._operator.process_batch(self._quarantine_filter(cursor, batch))
                    self._deliver(results, end)
            except RecoveryError:
                # Not a failure a restore can heal: the same state and
                # input would diverge again.  As on the sharded path.
                raise
            except Exception as exc:
                self._failures.append(exc)
                managed = self.dlq is not None and self._note_dlq_failure(cursor, exc)
                if not managed:
                    unit.restart(
                        exc,
                        f"operator failed {{}} times (max_restarts={policy.max_restarts}); "
                        f"giving up at cursor {cursor}",
                    )
                began = self._clock()
                loaded = self._restore_latest()
                replayed_elements = cursor - loaded.cursor
                replayed_records = records_done - loaded.records_processed
                cursor = loaded.cursor
                records_done = loaded.records_processed
                records_since_checkpoint = 0
                stats.record_recovery(
                    self._clock() - began, replayed_elements, replayed_records
                )
                attempt = (
                    self._failures_at.get(cursor, unit.restarts) - 1
                    if managed
                    else unit.restarts - 1
                )
                unit.backoff(max(0, attempt))
                continue

            cursor = end
            batch_records = _count_records(batch)
            records_done += batch_records
            records_since_checkpoint += batch_records
            if records_since_checkpoint >= self.checkpoint_every:
                self._take_checkpoint(cursor, records_done)
                records_since_checkpoint = 0

        return stats

    def _rewind(self, stats: RecoveryStats) -> StoredCheckpoint:
        """Restore the newest loadable generation after a quarantine
        (state is mid-batch; the replay excludes the poison record)."""
        began = self._clock()
        loaded = self._restore_latest()
        stats.record_recovery(self._clock() - began, 0, 0)
        return loaded

    def _note_dlq_failure(self, cursor: int, exc: BaseException) -> bool:
        """Track one batch failure against the DLQ's retry budget.

        Returns True when the DLQ manages this failure (retry or
        isolate next pass); False hands it to the restart budget --
        including a :class:`DeadLetterOverflow` raised mid-isolation,
        which must escalate rather than loop.
        """
        from .durability import DeadLetterOverflow

        if isinstance(exc, DeadLetterOverflow):
            return False
        if self._isolate_at == cursor:
            # The record-at-a-time pass itself failed (a non-record
            # element, or a fault outside any single record): not a
            # poison record, so stop managing it.
            return False
        count = self._failures_at.get(cursor, 0) + 1
        self._failures_at[cursor] = count
        if count <= self.dlq.max_retries:
            self.dlq.record_retry()
        else:
            self._isolate_at = cursor
        return True
