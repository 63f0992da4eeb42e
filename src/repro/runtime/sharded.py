"""Key-sharded streaming execution across worker processes
(Section 5.3 at runtime; the executor behind Figure 17).

A :class:`ShardedPipeline` keeps N worker processes alive for the whole
stream, feeds them record batches through bounded queues, and merges
their emissions back into one deterministic output stream -- the same
per-key windows at every degree of parallelism.

Execution model
---------------
* **Routing.**  Every record routes by
  ``stable_hash(record.key) % parallelism`` -- the same canonical hash
  the checkpoint/restore path uses, so a shard always owns the same keys
  across runs, restarts, and ``PYTHONHASHSEED`` values.  (``None`` is
  hashed like any other key: shards need sticky routing, so keyless
  records all land on one shard.)  Each worker wraps the per-key operator
  factory in its own :class:`~repro.runtime.keyed.KeyedWindowOperator`.
* **Batched handoff.**  Records accumulate into per-shard batches
  (``batch_size``) that ride the queue as one message and enter the
  worker through ``process_batch`` -- the PR-1 batched ingestion fast
  path -- so queue traffic and per-record dispatch are both amortized.
* **Backpressure.**  Feed queues are bounded (``queue_capacity``
  batches).  When a shard falls behind, the coordinator *blocks* on that
  shard's queue (counting ``shard.queue_full_waits``) while continuing
  to drain worker output, so a slow shard throttles ingestion instead of
  growing an unbounded buffer.  Otherwise worker output is drained once
  per shipped batch -- not per record: the poll costs more than routing
  a record does.
* **Watermark alignment.**  Watermarks and punctuations are broadcast
  to every shard and delimit *epochs*.  The coordinator releases an
  epoch's results only once every shard has acknowledged the epoch's
  mark, concatenates the per-shard emissions (shard order, per-shard
  arrival order), and stable-sorts them by
  ``(end, start, query_id, canonical key)``.  Records of one key never
  change shard, so the stable sort reproduces per-key emission order --
  the merged stream is identical to a single-process
  :class:`~repro.runtime.keyed.KeyedWindowOperator` run aligned the same
  way (see :func:`run_keyed_reference`).
* **Recovery.**  Workers checkpoint their keyed operator every
  ``checkpoint_every`` records (RSLC snapshots, at batch boundaries) and
  ship the blob to the coordinator.  Each shard is one restart unit
  (:class:`~repro.runtime.recovery._RestartUnit`, the class a
  :class:`~repro.runtime.recovery.SupervisedPipeline` run is), which
  saves the blob into that shard's
  :class:`~repro.runtime.durability.CheckpointStore` (``store_factory``;
  default an in-memory store keeping one generation), retrying transient
  I/O errors under the restart policy.  When a shard crashes -- an
  injected fault from :mod:`repro.runtime.faults`, a real exception, or
  a hard process death -- only that shard restarts, from the newest
  *loadable* generation this run saved (corrupt generations -- torn
  writes, bit flips -- are detected by their CRC frame and skipped), and
  the coordinator replays the feed items sent since that generation's
  seq.  A shard none of whose generations loads fails the run with
  :class:`~repro.runtime.recovery.PipelineFailed`.  Results the sink
  already observed are matched one-for-one against the replay
  (:class:`~repro.runtime.recovery.RecoveryError` on divergence) and
  suppressed, so every window result is delivered exactly once, crash
  or no crash.  The coordinator keeps each shard's replay feed and
  delivered-results log back to the oldest generation *of this run* the
  store retains, so exactly-once holds no matter how far the fallback
  reaches.

Tracing counters (coordinator tracer): ``shard.batches``,
``shard.records`` (worker-side, folded in; replayed work counts again),
``shard.queue_full_waits``, ``shard.restarts``,
``shard.deduped_results``, plus the stores' ``durability.*`` family
(saves, loads, corrupt_generations, fallbacks, gc_collected).  See
docs/parallelism.md.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_module
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.operator_base import WindowOperator
from ..core.tracing import Tracer
from ..core.types import Punctuation, Record, StreamElement, Watermark, WindowResult
from .checkpoint import restore, snapshot
from .durability import CheckpointStore, InMemoryStore, StoredCheckpoint
from .faults import FaultInjectingOperator, FaultPlan
from .keyed import KeyedWindowOperator
from .partition import _canonical_bytes, stable_hash
from .recovery import RestartPolicy, _RestartUnit

__all__ = ["ShardedPipeline", "run_keyed_reference", "alignment_key"]


def alignment_key(result: WindowResult) -> Tuple[int, int, int, bytes]:
    """The watermark-aligned merge order within one epoch.

    Used with a *stable* sort: results of the same key for the same
    window (e.g. in-lateness updates) keep their emission order, and the
    canonical key bytes break ties between different keys of the same
    window deterministically.
    """
    return (result.end, result.start, result.query_id, _canonical_bytes(result.key))


# ----------------------------------------------------------------------
# worker side


def _shipped_counters(counters: Dict[str, int], tracer: Optional[Tracer]) -> Dict[str, int]:
    """Counters to ship to the coordinator (cumulative per worker life)."""
    out = dict(counters)
    if tracer is not None:
        for name, value in tracer.counters.items():
            out[name] = out.get(name, 0) + value
    return out


def _shard_worker(config: Dict[str, Any], feed, out) -> None:
    """One shard: a keyed operator fed by the coordinator's queue.

    Feed protocol (``seq`` increases per shard; ``eid`` is the epoch):
    ``("batch", seq, eid, [records])``, ``("mark", seq, eid, payload)``
    with payload a Watermark/Punctuation or ``"flush"``/``"barrier"``,
    and ``("stop", seq)``.  Output messages lead with their kind and the
    shard index; per-process queue order is FIFO, so the coordinator
    sees results, checkpoint, epoch-ack, and crash messages in emission
    order.
    """
    shard = config["shard"]
    seq = -1
    operator: Any = None
    try:
        factory = pickle.loads(config["factory"])
        if config["snapshot"] is not None:
            keyed = restore(config["snapshot"])
        else:
            keyed = KeyedWindowOperator(factory)
        tracer: Optional[Tracer] = None
        if config["trace"]:
            # Always a fresh tracer: a restored snapshot carries the
            # pre-crash tracer whose counts the coordinator already
            # folded at crash time.
            tracer = keyed.enable_tracing(Tracer())
        operator: WindowOperator = keyed
        plan: Optional[FaultPlan] = config.get("fault_plan")
        crash_at = config.get("crash_at") or ()
        error_at = config.get("error_at") or ()
        if plan is not None or crash_at or error_at:
            wrapper = FaultInjectingOperator(
                keyed, crash_at=crash_at, error_at=error_at, plan=plan
            )
            # Faults that fired before the crash must not re-fire, and
            # fault positions are absolute record counts: realign the
            # wrapper with the checkpoint the operator restored from.
            wrapper.fired = set(config["fired"])
            wrapper.records_processed = config["records_done"]
            operator = wrapper
        kill_at = config.get("kill_at")
        if config["is_restart"]:
            kill_at = None  # a hard kill, like a real one, fires once
        records_done = config["records_done"]
        unsaved = 0
        counters = {"shard.batches": 0, "shard.records": 0}

        while True:
            item = feed.get()
            kind = item[0]
            if kind == "stop":
                out.put(("stats", shard, records_done, _shipped_counters(counters, tracer)))
                return
            if kind == "batch":
                _, seq, eid, elements = item
                if kill_at is not None and records_done + len(elements) >= kill_at:
                    # Simulated hard death: no goodbye message.  What was
                    # already ``put`` is flushed first, or ``_exit`` races
                    # the queue's feeder thread and loses a varying tail of
                    # it: the kill point must not depend on the scheduler.
                    out.close()
                    out.join_thread()
                    os._exit(1)
                results = operator.process_batch(elements)
                counters["shard.batches"] += 1
                counters["shard.records"] += len(elements)
                records_done += len(elements)
                unsaved += len(elements)
                if results:
                    out.put(("results", shard, seq, eid, results))
                if unsaved >= config["checkpoint_every"]:
                    # Snapshot the keyed operator only: fault wrappers
                    # are transient environment, not state.
                    blob = snapshot(keyed)
                    out.put(
                        (
                            "ckpt",
                            shard,
                            seq,
                            records_done,
                            blob,
                            _shipped_counters(counters, tracer),
                        )
                    )
                    unsaved = 0
            else:  # "mark"
                _, seq, eid, payload = item
                if payload == "flush":
                    results = operator.flush()
                elif payload == "barrier":
                    results = []
                else:
                    results = operator.process(payload)
                if results:
                    out.put(("results", shard, seq, eid, results))
                out.put(("epoch", shard, eid, seq))
    except Exception as exc:
        fired: Tuple[int, ...] = ()
        if isinstance(operator, FaultInjectingOperator):
            fired = tuple(operator.fired)
        out.put(("crash", shard, seq, f"{type(exc).__name__}: {exc}", fired))


# ----------------------------------------------------------------------
# coordinator side


class _ShardState:
    """Coordinator-side bookkeeping for one shard."""

    __slots__ = (
        "index",
        "unit",
        "queue",
        "process",
        "generation",
        "buffer",
        "next_seq",
        "replay",
        "sent_upto",
        "restore_point",
        "fired",
        "epoch_done",
        "stopped",
        "crashed",
    )

    def __init__(self, index: int, unit: _RestartUnit) -> None:
        self.index = index
        #: The shard's recovery state: store, floor, restart budget and
        #: the log of delivered results, positioned by feed seq.
        self.unit = unit
        self.queue = None
        self.process = None
        self.generation = 0
        #: Records waiting to fill the next batch for this shard.
        self.buffer: List[Record] = []
        self.next_seq = 0
        #: Feed items after the unit's horizon (the replay source; a
        #: fallback may restore any generation at or above it).
        self.replay: List[tuple] = []
        #: How many of ``replay`` have been put on the current queue.
        self.sent_upto = 0
        #: The generation the current worker life started from (``None``:
        #: a fresh operator).
        self.restore_point: Optional[StoredCheckpoint] = None
        #: Fault positions that already fired (accumulated over crashes).
        self.fired: set = set()
        self.epoch_done = -1
        self.stopped = False
        self.crashed = False


class ShardedPipeline:
    """Streaming key-sharded execution with recovery and aligned merge.

    Parameters
    ----------
    operator_factory:
        Builds one *per-key* window operator; must be picklable (a
        module-level function or :func:`functools.partial` of one).
        Each worker owns a :class:`KeyedWindowOperator` over it.
    parallelism:
        Number of shard worker processes.
    batch_size:
        Records per queue message (the batched-handoff unit).
    queue_capacity:
        Bounded feed-queue depth in batches; the backpressure knob.
    checkpoint_every:
        Per-shard snapshot cadence in records (taken at batch
        boundaries and shipped to the coordinator).
    restart_policy:
        Per-shard restart budget (default: 3 restarts, no backoff).
        With ``jitter`` configured, each shard's backoff draws its own
        deterministic stretch (``delay(..., token=shard_index)``), so
        shards killed by one fault don't restart in lockstep.
    store_factory:
        ``shard_index -> CheckpointStore``; called once per shard per
        run.  Default: :class:`~repro.runtime.durability.InMemoryStore`
        keeping one generation (the classic coordinator-memory
        behavior).  A :class:`~repro.runtime.durability.DiskCheckpointStore`
        per shard makes restore points durable and corruption falls
        back to older generations.
    fault_plans / crash_at / error_at:
        Optional per-shard fault injection (``{shard_index: ...}``),
        applied inside the worker via :class:`FaultInjectingOperator`.
    kill_at:
        Optional ``{shard_index: record_count}`` hard-death points
        (``os._exit`` -- no crash message, exercising liveness-based
        detection; messages the shard sent before that point arrive).
        Fires only on a shard's first life.
    context:
        ``"fork"``/``"spawn"``/``None`` (default: fork when available).
    trace:
        Ship full per-shard operator tracer counters to the coordinator
        (``shard.batches``/``shard.records`` are always counted).

    :meth:`run` is one-shot: each call spawns fresh workers, drains the
    stream, and joins them.  ``pipeline.tracer`` holds the aggregated
    counters of the most recent run.
    """

    def __init__(
        self,
        operator_factory: Callable[[], WindowOperator],
        parallelism: int,
        *,
        batch_size: int = 256,
        queue_capacity: int = 16,
        checkpoint_every: int = 10_000,
        restart_policy: Optional[RestartPolicy] = None,
        store_factory: Optional[Callable[[int], CheckpointStore]] = None,
        fault_plans: Optional[Dict[int, FaultPlan]] = None,
        crash_at: Optional[Dict[int, Iterable[int]]] = None,
        error_at: Optional[Dict[int, Iterable[int]]] = None,
        kill_at: Optional[Dict[int, int]] = None,
        context: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        if parallelism <= 0:
            raise ValueError(f"parallelism must be positive, got {parallelism}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.parallelism = parallelism
        self.batch_size = batch_size
        self.queue_capacity = queue_capacity
        self.checkpoint_every = checkpoint_every
        self.policy = restart_policy if restart_policy is not None else RestartPolicy()
        self.store_factory = store_factory
        self.fault_plans = dict(fault_plans or {})
        self.crash_at = {k: tuple(v) for k, v in (crash_at or {}).items()}
        self.error_at = {k: tuple(v) for k, v in (error_at or {}).items()}
        self.kill_at = dict(kill_at or {})
        self.trace = trace
        # Fail fast on unpicklable factories, before any process exists.
        self._factory_bytes = pickle.dumps(operator_factory)
        method = context if context is not None else ("fork" if hasattr(os, "fork") else "spawn")
        self._context = mp.get_context(method)
        self.tracer = Tracer()

        # Per-run state (populated by run()).
        self._shards: List[_ShardState] = []
        self._out = None
        self._epoch_results: Dict[int, List[List[WindowResult]]] = {}
        self._output: List[WindowResult] = []
        self._next_epoch = 0
        self._last_epoch = -1
        self._failures: List[BaseException] = []
        self._pending_crashes: List[Tuple[_ShardState, BaseException]] = []

    # ------------------------------------------------------------------
    # worker lifecycle

    def _spawn(self, state: _ShardState) -> None:
        index = state.index
        point = state.restore_point
        config = {
            "shard": index,
            "factory": self._factory_bytes,
            "snapshot": point.blob if point is not None else None,
            "fired": tuple(state.fired),
            "records_done": point.records_processed if point is not None else 0,
            "checkpoint_every": self.checkpoint_every,
            "trace": self.trace,
            "is_restart": state.generation > 0,
            "fault_plan": self.fault_plans.get(index),
            "crash_at": self.crash_at.get(index),
            "error_at": self.error_at.get(index),
            "kill_at": self.kill_at.get(index),
        }
        state.queue = self._context.Queue(self.queue_capacity)
        state.process = self._context.Process(
            target=_shard_worker,
            args=(config, state.queue, self._out),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        state.process.start()

    def _restart(self, state: _ShardState, cause: BaseException) -> None:
        """Respawn one crashed shard from the newest loadable checkpoint
        generation of this run and replay the feed sent since it."""
        self._failures.append(cause)
        unit = state.unit
        unit.restart(
            cause,
            f"shard {state.index} failed {{}} times "
            f"(max_restarts={self.policy.max_restarts}); giving up",
        )
        self.tracer.count("shard.restarts")
        point = state.restore_point = unit.restore()
        if point is not None:
            # This life's pre-restore-point work is final; everything
            # after it will be recounted by the replay.
            self._fold_counters(point.meta.get("counters", {}))
        old_queue = state.queue
        if state.process is not None:
            state.process.join(timeout=5.0)
            if state.process.is_alive():  # pragma: no cover - defensive
                state.process.terminate()
                state.process.join(timeout=5.0)
        if old_queue is not None:
            # The dead worker's queue may hold unread items; a fresh
            # queue for the fresh process avoids double delivery.
            old_queue.cancel_join_thread()
            old_queue.close()
        unit.backoff(unit.restarts - 1)
        state.generation += 1
        state.crashed = False
        # Feed items at or before the restore point are skipped -- but
        # stay retained (trimmed only to the unit's horizon) in case a
        # later restart falls back to an older generation.
        seq0 = point.cursor if point is not None else -1
        skip = 0
        for item in state.replay:
            if item[1] > seq0:
                break
            skip += 1
        state.sent_upto = skip
        self._spawn(state)
        self._pump(state)

    def _handle_dead(self, state: _ShardState) -> None:
        """A worker died without a crash message (hard kill)."""
        self._service(block=False)
        if state.crashed or state.stopped or not state.process or state.process.is_alive():
            return  # a crash message arrived after all, or a false alarm
        state.crashed = True
        self._restart(
            state,
            RuntimeError(
                f"shard {state.index} died without a crash message "
                f"(exitcode={state.process.exitcode})"
            ),
        )

    def _terminate_all(self) -> None:
        for state in self._shards:
            process = state.process
            if process is not None and process.is_alive():
                process.terminate()
        for state in self._shards:
            if state.process is not None:
                state.process.join(timeout=5.0)
            if state.queue is not None:
                state.queue.cancel_join_thread()
                state.queue.close()

    # ------------------------------------------------------------------
    # feeding with backpressure

    def _send(self, state: _ShardState, item: tuple) -> None:
        state.replay.append(item)
        self._pump(state)

    def _pump(self, state: _ShardState) -> None:
        """Push un-sent replay items onto the shard's queue, blocking
        (with service + liveness checks) when the queue is full."""
        while state.sent_upto < len(state.replay):
            item = state.replay[state.sent_upto]
            try:
                state.queue.put_nowait(item)
                state.sent_upto += 1
                continue
            except queue_module.Full:
                pass
            self.tracer.count("shard.queue_full_waits")
            generation = state.generation
            while True:
                self._service(block=False)
                if state.generation != generation:
                    # Restarted mid-wait; the replay re-pump already
                    # covered this item.  Re-read state from the top.
                    break
                if not state.process.is_alive():
                    self._handle_dead(state)
                    break
                try:
                    state.queue.put(item, timeout=0.05)
                    state.sent_upto += 1
                    break
                except queue_module.Full:
                    continue

    # ------------------------------------------------------------------
    # draining worker output

    def _service(self, block: bool, timeout: float = 0.05) -> None:
        """Drain the out-queue; dispatch crashes after the drain."""
        while True:
            try:
                message = self._out.get(timeout=timeout) if block else self._out.get_nowait()
            except queue_module.Empty:
                break
            self._dispatch(message)
            block = False  # at most one blocking wait per call
        while self._pending_crashes:
            state, cause = self._pending_crashes.pop(0)
            self._restart(state, cause)

    def _dispatch(self, message: tuple) -> None:
        kind = message[0]
        state = self._shards[message[1]]
        if kind == "results":
            _, _, seq, eid, results = message
            fresh: List[WindowResult] = []
            deduped = state.unit.deliver(results, seq, fresh.append)
            if deduped:
                self.tracer.count("shard.deduped_results", deduped)
            if fresh:
                buffers = self._epoch_results.setdefault(
                    eid, [[] for _ in range(self.parallelism)]
                )
                buffers[state.index].extend(fresh)
        elif kind == "epoch":
            _, _, eid, _seq = message
            if eid > state.epoch_done:
                state.epoch_done = eid
                self._release_epochs()
        elif kind == "ckpt":
            _, _, seq, records, blob, counters = message
            horizon = state.unit.save(blob, seq, records, {"counters": counters})
            # A corrupt newer generation may force a fallback to any
            # generation of this run the store retains: the feed is kept
            # back to the oldest of them.  Every trimmed item was already
            # sent (the worker processed past it), so sent_upto shrinks
            # by the trim.
            before = len(state.replay)
            state.replay = [item for item in state.replay if item[1] > horizon]
            state.sent_upto -= before - len(state.replay)
        elif kind == "stats":
            _, _, records, counters = message
            state.stopped = True
            self._fold_counters(counters)
        elif kind == "crash":
            _, _, seq, text, fired = message
            state.crashed = True
            state.fired.update(fired)
            # Counters fold in _restart, once the restore point (and so
            # the boundary between final and replayed work) is known.
            self._pending_crashes.append(
                (
                    state,
                    RuntimeError(f"shard {state.index} crashed at seq {seq}: {text}"),
                )
            )
        else:  # pragma: no cover - protocol guard
            raise AssertionError(f"unknown worker message: {message!r}")

    def _fold_counters(self, counters: Dict[str, int]) -> None:
        for name, value in counters.items():
            self.tracer.count(name, value)

    # ------------------------------------------------------------------
    # watermark-aligned merge

    def _release_epochs(self) -> None:
        while all(state.epoch_done >= self._next_epoch for state in self._shards):
            buffers = self._epoch_results.pop(self._next_epoch, None)
            if buffers is not None:
                merged = [result for shard_results in buffers for result in shard_results]
                merged.sort(key=alignment_key)
                self._output.extend(merged)
            self._next_epoch += 1
            if self._last_epoch >= 0 and self._next_epoch > self._last_epoch:
                break

    # ------------------------------------------------------------------
    # the run loop

    def run(self, elements: Iterable[StreamElement], *, flush: bool = True) -> List[WindowResult]:
        """Process a whole stream across the shards; return the merged,
        watermark-aligned results.

        ``flush=True`` (default) drains windows still open at
        end-of-stream via :meth:`WindowOperator.flush` on every shard;
        ``flush=False`` ends with a result-free alignment barrier
        instead, mirroring a pipeline that stops between watermarks.
        """
        self._out = self._context.Queue()
        self._epoch_results = {}
        self._output = []
        self._next_epoch = 0
        self._last_epoch = -1
        self._failures = []
        self._pending_crashes = []
        self.tracer = Tracer()
        self._shards = [_ShardState(i, self._make_unit(i)) for i in range(self.parallelism)]
        eid = 0
        try:
            for state in self._shards:
                self._spawn(state)
            for element in elements:
                if isinstance(element, Record):
                    shard = self._shards[stable_hash(element.key) % self.parallelism]
                    shard.buffer.append(element)
                    if len(shard.buffer) >= self.batch_size:
                        self._flush_buffer(shard, eid)
                        self._service(block=False)
                elif isinstance(element, (Watermark, Punctuation)):
                    self._broadcast_mark(element, eid)
                    eid += 1
                else:
                    raise TypeError(f"unsupported stream element: {element!r}")
            self._broadcast_mark("flush" if flush else "barrier", eid)
            self._last_epoch = eid
            for state in self._shards:
                self._send(state, ("stop", state.next_seq))
                state.next_seq += 1
            self._await_completion()
            self._release_epochs()
            for state in self._shards:
                state.process.join(timeout=5.0)
        finally:
            self._terminate_all()
            self._out.cancel_join_thread()
            self._out.close()
        return self._output

    def _make_unit(self, index: int) -> _RestartUnit:
        store = (
            self.store_factory(index)
            if self.store_factory is not None
            else InMemoryStore(keep=1)
        )
        if store.tracer is None:
            store.tracer = self.tracer
        return _RestartUnit(
            store,
            policy=self.policy,
            failures=self._failures,
            tracer=self.tracer,
            sleep=time.sleep,
            token=index,
            prefix=f"shard {index} ",
        )

    def _flush_buffer(self, state: _ShardState, eid: int) -> None:
        if state.buffer:
            batch, state.buffer = state.buffer, []
            self._send(state, ("batch", state.next_seq, eid, batch))
            state.next_seq += 1

    def _broadcast_mark(self, payload, eid: int) -> None:
        # Marks delimit epochs; partial batches must precede the mark so
        # every shard sees the same prefix of its sub-stream.
        for state in self._shards:
            self._flush_buffer(state, eid)
        for state in self._shards:
            self._send(state, ("mark", state.next_seq, eid, payload))
            state.next_seq += 1

    def _await_completion(self) -> None:
        deadline_checks = 0
        while not all(state.stopped for state in self._shards):
            self._service(block=True, timeout=0.05)
            deadline_checks += 1
            if deadline_checks % 10 == 0:
                for state in self._shards:
                    if not state.stopped and not state.crashed and not state.process.is_alive():
                        self._handle_dead(state)


def run_keyed_reference(
    operator_factory: Callable[[], WindowOperator],
    elements: Iterable[StreamElement],
    *,
    flush: bool = True,
) -> List[WindowResult]:
    """Single-process reference with the sharded pipeline's alignment.

    Runs one :class:`KeyedWindowOperator` over the stream, groups
    results into the same mark-delimited epochs, and stable-sorts each
    epoch by :func:`alignment_key`.  :meth:`ShardedPipeline.run` must
    produce *exactly* this list -- the equivalence the test suite pins.
    """
    operator = KeyedWindowOperator(operator_factory)
    output: List[WindowResult] = []
    epoch: List[WindowResult] = []
    for element in elements:
        results = operator.process(element)
        epoch.extend(results)
        if isinstance(element, (Watermark, Punctuation)):
            epoch.sort(key=alignment_key)
            output.extend(epoch)
            epoch = []
    if flush:
        epoch.extend(operator.flush())
    epoch.sort(key=alignment_key)
    output.extend(epoch)
    return output
