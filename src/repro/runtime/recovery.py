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
The DLQ holds the quarantine by source position (the quarantined
records, each failing batch's failure count, the batch being isolated)
and every pass leaves the quarantined records out, so a later
crash-and-replay neither re-emits nor re-quarantines a poisoned record.

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
from typing import Callable, Deque, List, Optional, Tuple, TypeVar

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
    * **Retry.**  A transient :class:`OSError` -- of a save, a load or,
      in the supervisor, a source read -- is retried by one rule
      (:meth:`retry`); past the budget, :class:`PipelineFailed`.
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

    def retry(self, operation: Callable[[], T], count: Callable[[], None], gave_up: str) -> T:
        """``operation()``, retried while it raises a transient
        :class:`OSError` (a store's I/O error, a
        :class:`~repro.runtime.faults.SourceHiccup`): every failure joins
        ``failures`` and calls ``count``, every retry backs off by its
        attempt, and failure ``max_restarts + 1`` in a row gives up with
        :class:`PipelineFailed` (``gave_up`` formatted with that count).
        State is untouched: nothing is restored."""
        attempt = 0
        while True:
            try:
                return operation()
            except OSError as exc:
                self.failures.append(exc)
                count()
                if attempt >= self.policy.max_restarts:
                    raise PipelineFailed(
                        self.prefix + gave_up.format(attempt + 1), self.failures
                    ) from exc
                self.backoff(attempt)
                attempt += 1

    def _count(self, counter: str) -> None:
        if self.tracer is not None:
            self.tracer.count(counter)

    def save(
        self, blob: bytes, position: int, records_processed: int, meta: Optional[dict] = None
    ) -> int:
        """Save one generation and trim the log; returns the horizon:
        the position of the oldest generation of this run the store
        still retains (no restore lands below it)."""
        generation = self.retry(
            lambda: self.store.save(
                blob, cursor=position, records_processed=records_processed, meta=meta
            ),
            lambda: self._count("durability.save_retries"),
            f"checkpoint save failed {{}} times at cursor {position}",
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
        loaded = self.retry(
            self.store.load_latest,
            lambda: self._count("durability.load_retries"),
            "checkpoint load failed {} times",
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
            loaded = self.retry(
                lambda: self.store.load_latest(min_generation=self.floor),
                lambda: self._count("durability.load_retries"),
                "checkpoint load failed {} times",
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
                if expected != result:
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

    def _take_checkpoint(self, source: ReplayableSource, cursor: int) -> None:
        """Snapshot and save; transient store I/O errors are retried
        under the restart policy (the previous generation stands until a
        save succeeds)."""
        blob = snapshot(self._snapshot_target(), tracer=self.tracer)
        self._unit.save(blob, cursor, source.records_before(cursor))
        self.stats.checkpoints_taken += 1

    def _rewind(self, source: ReplayableSource, cursor: int, *, replayed: bool) -> int:
        """Restore the newest loadable generation of this run (transient
        I/O retried, corrupt generations skipped by the store), reseat
        the operator from it and count one recovery; returns its cursor.

        ``replayed`` counts the elements and records from there up to
        ``cursor`` as replay; the rollback after a quarantine counts
        none."""
        began = self._clock()
        # Every run saves at its start or resumes: a restore point exists.
        loaded = self._unit.restore()
        # The store fell back past corrupt newer generations.
        self.stats.store_fallbacks += sum(g > loaded.generation for g in self.store.generations())
        self._reseat(restore(loaded.blob, tracer=self.tracer))
        replay_from = loaded.cursor if replayed else cursor
        self.stats.record_recovery(
            self._clock() - began,
            cursor - replay_from,
            source.records_before(cursor) - source.records_before(replay_from),
        )
        return loaded.cursor

    # ------------------------------------------------------------------
    # poison-record quarantine

    def _deliver(self, results: List[WindowResult], end: int) -> None:
        """Exactly-once delivery: replayed results must match what the
        sink already observed; only genuinely new results are emitted
        (and logged at the end cursor of the batch that produced them)."""
        self.stats.deduped_results += self._unit.deliver(results, end, self._emit)

    def _emit(self, result: WindowResult) -> None:
        self.sink.emit(result)
        self.stats.results_emitted += 1

    def _isolate_batch(self, cursor: int, batch: List[StreamElement]) -> bool:
        """Replay one failing batch record-at-a-time to find the poison
        record.  Successful prefixes are delivered (and deduped) as they
        go; the culprit is quarantined, with operator state left
        mid-batch for the caller to roll back (True).  False when the
        whole batch passes (the failure was transient after all)."""
        dlq = self.dlq
        for offset, element in enumerate(batch):
            position = cursor + offset
            if position in dlq.quarantined:
                continue
            if isinstance(element, Record):
                try:
                    results = self._operator.process(element)
                except Exception as exc:
                    admitted, attempts = len(dlq), dlq.batch_failures[cursor]
                    try:  # an overflow or a raising hook escalates to the restart budget
                        dlq.quarantine(element, cursor=position, attempts=attempts, cause=exc)
                    finally:  # admitted before the hook ran, even if it raised
                        self.stats.quarantined_records += len(dlq) - admitted
                    dlq.isolated(cursor)
                    return True
            else:
                results = self._operator.process(element)
            self._deliver(results, cursor + len(batch))
        dlq.isolated(cursor)
        return False

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
        dlq = self.dlq
        self._install_late_hook()
        unit = self._unit = _RestartUnit(
            self.store,
            policy=self.policy,
            failures=self._failures,
            tracer=self.tracer,
            sleep=self._sleep,
        )

        def count_source_retry() -> None:
            stats.source_retries += 1

        loaded = unit.resume() if resume else None
        if loaded is not None:
            self._reseat(restore(loaded.blob, tracer=self.tracer))
            cursor = stats.resumed_from_cursor = loaded.cursor
        else:
            cursor = 0
            self._take_checkpoint(source, cursor)
        # Drops before the start (or the resumed checkpoint) are not this
        # run's to report.
        self._late_reported = self._late_seen
        # The cursor of the last checkpoint (or restore): the cadence
        # counts the records read since.
        checkpoint_at = cursor
        total = len(source)

        while cursor < total:
            # Transient: operator state is intact; the read is retried.
            batch = unit.retry(
                lambda: source.read(cursor, self.batch_size),
                count_source_retry,
                f"source failed {{}} consecutive reads at cursor {cursor}",
            )
            end = cursor + len(batch)
            try:
                if dlq is not None and dlq.isolating == cursor:
                    if self._isolate_batch(cursor, batch):
                        # The culprit left mid-batch state behind; roll
                        # back to the checkpoint and replay without it.
                        cursor = checkpoint_at = self._rewind(source, cursor, replayed=False)
                        continue
                else:
                    if dlq is not None and dlq.quarantined:
                        batch = dlq.passing(cursor, batch)
                    self._deliver(self._operator.process_batch(batch), end)
            except RecoveryError:
                # Not a failure a restore can heal: the same state and
                # input would diverge again.  As on the sharded path.
                raise
            except Exception as exc:
                self._failures.append(exc)
                if dlq is not None and dlq.note_failure(cursor):
                    # The DLQ retries or isolates it: no restart counted.
                    attempt = dlq.batch_failures[cursor] - 1
                else:
                    unit.restart(
                        exc,
                        f"operator failed {{}} times (max_restarts={self.policy.max_restarts}); "
                        f"giving up at cursor {cursor}",
                    )
                    attempt = unit.restarts - 1
                cursor = checkpoint_at = self._rewind(source, cursor, replayed=True)
                unit.backoff(attempt)
                continue

            cursor = end
            read = source.records_before(cursor) - source.records_before(checkpoint_at)
            if read >= self.checkpoint_every:
                self._take_checkpoint(source, cursor)
                checkpoint_at = cursor

        return stats
