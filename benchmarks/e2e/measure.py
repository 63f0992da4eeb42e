"""Timed rounds, the verification pass and the traced run of one workload.

Load model: closed loop, one client, synchronous calls -- the operator
is a library call and its caller waits for the reply -- replaying a
pre-generated stream at full speed, with the garbage collector parked
during every timed region.  The only extra processes are the two
workers of ``keyed_sharded``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core import Record, Tracer, Watermark  # noqa: E402 - needs src/ on the path
from repro.reference import reference_results  # noqa: E402
from repro.runtime import (  # noqa: E402
    DeadLetterQueue,
    DiskCheckpointStore,
    FaultInjectingOperator,
    KeyedWindowOperator,
    ReplayableSource,
    ShardedPipeline,
    SupervisedPipeline,
    deep_sizeof,
    run_keyed_reference,
)

from estimate import floors, nearest_rank  # noqa: E402
from spans import CORE_LAYERS, SpanCost, SpanTracer, calibrate_span_cost  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BATCH_SIZE = 256
CHECKPOINT_EVERY = 50_000
#: Set-ups are repeated in each process, at least twice and until they
#: have taken this long.
SETUP_REPEAT_S = 0.4
#: Baseline runs of ``keyed_sharded`` per process (about 70 ms each).
QUIET_BASELINE_ROUNDS = 5
#: Timed segments per ``process``-driven round (about 5-10 ms each).
SEGMENTS = 100


class Round:
    """What one run of a freshly built system over the stream yields.

    Every timing is taken at a fixed position of the deterministic
    replay, so that it can be compared with the timing at the same
    position in any other round (see ``estimate.floors``).
    """

    def __init__(self, records: int, segment_ns: List[int], emit_ns: List[int], state_bytes: int,
                 results: list, **layer_facts) -> None:
        self.records = records
        #: Consecutive timed stretches of the run; their sum is its duration.
        self.segment_ns = segment_ns
        #: One sample per emitting call (per delivered result for
        #: ``supervised``), in stream order.
        self.emit_ns = emit_ns
        self.state_bytes = state_bytes
        self.results = results
        #: Facts a layer reports about itself through its public API.
        self.layer_facts = layer_facts

    @property
    def seconds(self) -> float:
        return sum(self.segment_ns) / 1e9

    @property
    def busy_seconds(self) -> float:
        """Every timed second of the round, baseline run included."""
        return self.seconds + self.layer_facts.get("baseline_s", 0.0)


class parked_gc:
    """Collect, then keep the collector off for a timed region."""

    def __enter__(self) -> None:
        gc.collect()
        gc.disable()

    def __exit__(self, *exc) -> None:
        gc.enable()
        gc.collect()


def replay(operator, stream: list) -> Round:
    """One ``process`` call per element, timed per call and per segment.

    Emit latency is the time from handing over the element that
    completes a window to the call returning; closed loop, so there is
    no queue wait in it.  The two clock reads per element are part of
    the segment times on both sides of any comparison.  State size is
    sampled with the timer paused at each quarter of the stream.
    """
    process = operator.process
    clock = time.perf_counter_ns
    segment_ns: List[int] = []
    emit_ns: List[int] = []
    results: list = []
    state_bytes = 0
    marks = [len(stream) * k // SEGMENTS for k in range(SEGMENTS + 1)]
    with parked_gc():
        for index, (lo, hi) in enumerate(zip(marks, marks[1:]), start=1):
            segment = stream[lo:hi]
            begin = clock()
            for element in segment:
                start = clock()
                out = process(element)
                if out:
                    emit_ns.append(clock() - start)
                    results.extend(out)
            segment_ns.append(clock() - begin)
            if index % (SEGMENTS // 4) == 0:
                state_bytes = max(state_bytes, deep_sizeof(operator.state_objects()))
    late = operator.dropped_late_records
    return Round(_records(stream), segment_ns, emit_ns, state_bytes, results, late_drops=late)


def _records(stream: list) -> int:
    return sum(1 for element in stream if isinstance(element, Record))


# ----------------------------------------------------------------------
# the three ways a workload is driven.  Constructing one of these is the
# part of set-up that is not stream generation.


class OperatorRun:
    #: Single-threaded and deterministic: position k costs the same in
    #: every round, so the floor over rounds is meaningful.
    REPEATABLE = True

    def __init__(self, workload: Workload, stream: list, workdir: str) -> None:
        self.operator = workload.make_operator()
        self.stream = stream

    def run(self) -> Round:
        return replay(self.operator, self.stream)


def _cpu_since(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


class _StampedSource(ReplayableSource):
    """Notes when the supervisor was handed each batch.

    The supervisor reads the same cursors in the same order in every
    round (the replay after the crash included), so the stretches
    between reads are the timed segments of a supervised run.
    """

    def __init__(self, elements) -> None:
        super().__init__(elements)
        self.handed_ns: List[int] = []

    def read(self, cursor: int, count: int) -> list:
        batch = super().read(cursor, count)
        self.handed_ns.append(time.perf_counter_ns())
        return batch


class _LatencySink:
    """Collects results and how long after their batch each arrived."""

    def __init__(self, source: _StampedSource) -> None:
        self.source = source
        self.results: list = []
        self.emit_ns: List[int] = []

    def emit(self, result) -> None:
        self.emit_ns.append(time.perf_counter_ns() - self.source.handed_ns[-1])
        self.results.append(result)


class SupervisedRun:
    """``SupervisedPipeline.run`` over the keyed operator.

    Emit latency here is per delivered result: from the source handing
    over the batch that completes the window to the sink receiving it.

    ``durable`` (the ``keyed_supervised_disk`` workload) adds the disk
    store, the dead-letter queue and one injected crash; without it this
    is the plain single-process run of the keyed job.
    """

    REPEATABLE = True

    def __init__(self, workload: Workload, stream: list, workdir: str, durable: bool = True) -> None:
        self.records = _records(stream)
        self.source = _StampedSource(stream)
        self.sink = _LatencySink(self.source)
        operator = KeyedWindowOperator(workload.make_operator)
        options = {}
        if durable:
            crash_at = self.records // 2 + min(12_345, self.records // 4)
            operator = FaultInjectingOperator(operator, crash_at=[crash_at])
            options = dict(
                # The store's own tracer is its public way to report bytes written.
                store=DiskCheckpointStore(tempfile.mkdtemp(dir=workdir), keep=3, tracer=Tracer()),
                dlq=DeadLetterQueue(max_retries=2),
            )
        self.durable = durable
        self.pipeline = SupervisedPipeline(
            operator, self.sink, checkpoint_every=CHECKPOINT_EVERY, batch_size=BATCH_SIZE, **options
        )

    def run(self) -> Round:
        with parked_gc():
            begin = time.perf_counter_ns()
            stats = self.pipeline.run(self.source)
            end = time.perf_counter_ns()
        stamps = [begin, *self.source.handed_ns, end]
        operator = self.pipeline.operator
        facts = dict(keys=len(getattr(operator, "inner", operator).keys))
        if self.durable:
            store = self.pipeline.store
            facts.update(
                restarts=stats.restarts,
                recovery_s=stats.total_recovery_seconds,
                replayed_records=stats.replayed_records,
                deduped_results=stats.deduped_results,
                frame_bytes_max=max(store.frame_size(g) for g in store.generations()),
                bytes_written=store.tracer.value("durability.bytes_written"),
            )
        return Round(
            self.records, [b - a for a, b in zip(stamps, stamps[1:])], self.sink.emit_ns,
            deep_sizeof(operator.state_objects()), self.sink.results, **facts,
        )


class ShardedRun:
    """``ShardedPipeline.run(list)`` over two forked workers.

    ``run`` returns every result at once, so the pipeline has no
    per-result latency a caller could observe, and the workers' state is
    out of reach.  Emit latency and state size of this workload are
    therefore those of the same job in one process (``SupervisedRun``
    without faults or disk, over the same stream), which is also the
    single-threaded baseline the pipeline's overhead is stated against.
    """

    #: Three processes and two queue feeder threads share two cores and
    #: one interpreter lock each: the same run takes 0.35-0.6 s on a quiet
    #: host.  That variation is the system's own, not interference, so
    #: it is averaged (all records / all seconds), not floored away.
    REPEATABLE = False

    def __init__(self, workload: Workload, stream: list, workdir: str) -> None:
        if (os.cpu_count() or 1) < 2:
            raise SystemExit("keyed_sharded needs nproc >= 2: two workers beside the "
                             "coordinator would run oversubscribed; every window counts as failed")
        self.pipeline = ShardedPipeline(
            workload.make_operator, 2, batch_size=BATCH_SIZE, queue_capacity=16, context="fork"
        )
        self.stream = stream
        self.baseline = SupervisedRun(workload, stream, workdir, durable=False)

    def run_pipeline(self, flush: bool = True) -> Round:
        usage = resource.getrusage
        with parked_gc():
            own, children = usage(resource.RUSAGE_SELF), usage(resource.RUSAGE_CHILDREN)
            begin = time.perf_counter_ns()
            results = self.pipeline.run(self.stream, flush=flush)
            run_ns = time.perf_counter_ns() - begin
            own_cpu = _cpu_since(own, usage(resource.RUSAGE_SELF))
            workers_cpu = _cpu_since(children, usage(resource.RUSAGE_CHILDREN))
        counters = self.pipeline.tracer
        return Round(
            # The run is one opaque call: spawn, feed, flush and join.
            _records(self.stream), [run_ns], [], 0, results,
            coordinator_cpu_s=own_cpu,
            workers_cpu_s=workers_cpu,
            batches=counters.value("shard.batches"),
            queue_full_waits=counters.value("shard.queue_full_waits"),
        )

    def run(self) -> Round:
        """Baseline, then pipeline: what the traced run breaks down."""
        base = self.baseline.run()
        return adopt_baseline(self.run_pipeline(), base)


def adopt_baseline(piped: Round, base: Round) -> Round:
    """Attach what the sharded pipeline cannot show itself: emit latency,
    state size, and the base its overhead is stated against."""
    piped.emit_ns, piped.state_bytes = base.emit_ns, base.state_bytes
    piped.layer_facts.update(baseline_s=base.seconds, keys=base.layer_facts["keys"])
    return piped


DRIVERS = {"process": OperatorRun, "sharded": ShardedRun, "supervised": SupervisedRun}


# ----------------------------------------------------------------------
# verification


#: No record dropped as late; exactly the one injected crash recovered.
REQUIRED_FACTS = {"late_drops": 0, "restarts": 1}


class Check:
    """Windows compared and windows that differed."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0

    def equal_maps(self, expected: dict, actual: dict) -> None:
        missing = object()
        for window in expected.keys() | actual.keys():
            self.checked += 1
            self.failed += expected.get(window, missing) != actual.get(window, missing)

    def equal_digests(self, results: list, expected_digest: str) -> None:
        """A run whose digest differs counts every one of its windows."""
        self.checked += len(results)
        if digest(results) != expected_digest:
            self.failed += len(results)

    def expect_facts(self, outcome: Round) -> None:
        """What a run must report about itself, where it reports it."""
        for fact, value in REQUIRED_FACTS.items():
            if fact in outcome.layer_facts:
                self.checked += 1
                self.failed += outcome.layer_facts[fact] != value


def digest(results: list) -> str:
    """Order-sensitive digest of a result sequence."""
    hasher = hashlib.blake2b(digest_size=16)
    for r in results:
        hasher.update(repr((r.key, r.query_id, r.start, r.end, r.value, r.is_update)).encode())
    return hasher.hexdigest()


def _final_values(results: list) -> dict:
    """Last emission wins, as under disorder an update replaces a result."""
    return {(r.key, r.query_id, r.start, r.end): r.value for r in results}


def check_against_oracle(workload: Workload, stream: list, workdir: str, check: Check) -> None:
    """Run the head of the stream through a freshly built identical
    system and compare every final window value with the brute-force
    oracle, exactly."""
    head = stream[: workload.oracle_elements]
    horizon = max(e.ts for e in head if isinstance(e, Record)) + 1
    head.append(Watermark(horizon))
    system = DRIVERS[workload.driver](workload, head, workdir)
    if workload.driver == "sharded":
        # No end-of-stream flush: it would close windows past the oracle's horizon.
        outcome = system.run_pipeline(flush=False)
    else:
        outcome = system.run()
    check.expect_facts(outcome)

    queries = [(q.window, q.aggregation) for q in workload.make_operator().queries]
    by_key: Dict[object, list] = {}
    for element in head:
        if isinstance(element, Record):
            by_key.setdefault(element.key, []).append(element)
    expected = {
        (key, query, start, end): value
        for key, records in by_key.items()
        for (query, start, end), value in reference_results(queries, records, horizon=horizon).items()
    }
    check.equal_maps(expected, _final_values(outcome.results))


def full_run_digest(workload: Workload, stream: list) -> Optional[str]:
    """What every full run of a pipeline must deliver, element for
    element: the single-process keyed run of the same stream.  The
    ``process``-driven workloads have no second implementation to
    compare with; their rounds must agree with each other instead."""
    if workload.driver == "sharded":
        return digest(run_keyed_reference(workload.make_operator, stream))
    if workload.driver == "supervised":
        unfailed = KeyedWindowOperator(workload.make_operator)
        return digest(unfailed.run(stream, batch_size=BATCH_SIZE))
    return None


# ----------------------------------------------------------------------
# one workload in one process


class Bench:
    """One workload at one seed: set-up, verification, rounds, trace."""

    def __init__(self, workload: Workload, seed: int, scale: float, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.check = Check()
        # CPython reports a smaller ``__dict__`` for every instance of a
        # class each time another instance is created, until about 30
        # have been.  Build that many operators first, or ``deep_sizeof``
        # would depend on how many this process happened to build before.
        for _ in range(40):
            workload.make_operator()
        # Set-up is everything before the first timed element: the stream
        # from the seed, and one construction of the system it will drive.
        # It is repeated, a cheap one many times, or its few milliseconds
        # would be noise; like every timing here, the fastest observation is kept.
        records = max(int(workload.records * scale), 2_000)
        took: List[float] = []
        while len(took) < 2 or sum(took) < SETUP_REPEAT_S:
            self.stream = None  # a set-up starts without the previous one's stream
            begin = time.perf_counter()
            self.stream = workload.make_stream(random.Random(seed), records)
            self._build(self.stream)
            took.append(time.perf_counter() - begin)
        self.setup_s = min(took)
        # The stream is millions of objects that live as long as the
        # process: take them out of the collector's sight, or the two
        # collections around every round cost a tenth of the run.
        gc.collect()
        gc.freeze()

    def _build(self, stream: list):
        return DRIVERS[self.workload.driver](self.workload, stream, self.workdir)

    def _checked_round(self, stream: list, pipeline_only: bool = False) -> Round:
        system = self._build(stream)
        outcome = system.run_pipeline() if pipeline_only else system.run()
        self.check.expect_facts(outcome)
        return outcome

    def _quiet_baseline(self) -> List[Round]:
        """``keyed_sharded`` only: its single-process baseline, several
        times over, before this process has run a pipeline.  A process
        that has been through a three-process run can stay up to twice
        as slow afterwards (the scheduler may leave it on the busier
        core), so a baseline taken between pipeline runs is not one."""
        if self.workload.driver != "sharded":
            return []
        quiet = [self._build(self.stream).baseline.run() for _ in range(QUIET_BASELINE_ROUNDS)]
        for outcome in quiet:
            self.check.equal_digests(outcome.results, digest(quiet[0].results))
        return quiet

    def rounds(self, seconds: float) -> Dict[str, object]:
        """Back-to-back rounds, each on a freshly built system, for as
        many as fit into ``seconds`` (at least one); every round must
        deliver the same results."""
        quiet = self._quiet_baseline()
        done: List[Round] = []
        expected = None
        deadline = time.perf_counter() + seconds
        # A round that would run past the deadline is not started: the
        # driver's time limit counts what a run takes, not what it asked for.
        while not done or time.perf_counter() + min(r.seconds for r in done) < deadline:
            outcome = self._checked_round(self.stream, pipeline_only=bool(quiet))
            if expected is None:
                expected, results = digest(outcome.results), len(outcome.results)
            self.check.equal_digests(outcome.results, expected)
            outcome.results = []
            done.append(outcome)
        observed = quiet or done  # where emit latency and state size were seen
        if not observed[0].emit_ns:
            raise SystemExit("the workload emitted no window: too small a --scale")
        return {
            "digest": expected,
            "results": results,
            "records": done[0].records,
            "repeatable": DRIVERS[self.workload.driver].REPEATABLE,
            "round_ns": [sum(r.segment_ns) for r in done],
            "segment_floor_ns": floors([r.segment_ns for r in done]),
            "emit_rounds": len(observed),
            "emit_floor_ns": floors([r.emit_ns for r in observed]),
            "state_bytes_max": max(r.state_bytes for r in observed),
            "setup_s": self.setup_s,
        }

    # ------------------------------------------------------------------
    # the traced run

    def traced_rounds(self, seconds: float, out: Optional[str]) -> Dict[str, object]:
        """A third of ``seconds`` on untraced rounds for the emit-latency
        tail, the rest on traced runs over the first quarter of the
        element sequence (the pipelines run whole); the per-layer
        metrics are medians over those runs."""
        emit_floor_ns = sorted(self.rounds(seconds / 3)["emit_floor_ns"])
        stream = self.stream
        if self.workload.driver == "process":
            stream = stream[: len(stream) // 4]
        cost = calibrate_span_cost()
        # The untraced reference: the middle one of three untraced runs.
        untraced = sorted(
            (self._checked_round(stream) for _ in range(3)), key=lambda r: r.busy_seconds
        )[1]
        expected = digest(untraced.results)
        per_run: List[Dict[str, float]] = []
        deadline = time.perf_counter() + seconds * 2 / 3
        took = 0.0
        while not per_run or time.perf_counter() + took < deadline:
            begin = time.perf_counter()
            tracer = SpanTracer(keep_spans=out is not None)
            traced = self._traced_round(tracer, stream)
            self.check.equal_digests(traced.results, expected)
            per_run.append(layer_metrics(tracer, cost, traced, untraced))
            took = time.perf_counter() - begin
        values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
        values["operator.emit_p50_us"] = nearest_rank(emit_floor_ns, 0.50) / 1e3
        values["operator.emit_p99_us"] = nearest_rank(emit_floor_ns, 0.99) / 1e3
        if out is not None:
            write_spans(out, self.workload.name, tracer, values)
        raw = {name: values.pop(name) for name in list(values) if name.endswith(".raw_self_s")}
        return {"runs": len(per_run), "values": values, "raw": raw}

    def _traced_round(self, tracer: SpanTracer, stream: list) -> Round:
        system = self._build(stream)
        if self.workload.driver != "sharded":
            with tracer.installed(TRACED_LAYERS[self.workload.driver]):
                return system.run()
        # The forked workers are out of reach from outside: the worker
        # side is the traced single-process run of the same job, the
        # coordinator side is getrusage plus the pipeline's counters.
        with tracer.installed(CORE_LAYERS + ("keyed",)):
            base = system.baseline.run()
        with tracer.installed(("partition", "sharded")):
            return adopt_baseline(system.run_pipeline(), base)


TRACED_LAYERS = {
    "process": CORE_LAYERS,
    "supervised": CORE_LAYERS + ("keyed", "checkpoint", "durability", "recovery"),
}


def write_spans(out: str, workload: str, tracer: SpanTracer, values: Dict[str, float]) -> None:
    """Spans of the last traced run and the per-layer values, written
    once the traced runs have ended."""
    directory = pathlib.Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{workload}.spans.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("layer", "owner", "method", "start_ns", "end_ns", "parent"))
        for key, start, end, parent in tracer.spans:
            writer.writerow((*key, start, end, parent))
    (directory / f"{workload}.layers.json").write_text(json.dumps(values, indent=1))


def layer_metrics(tracer: SpanTracer, cost: SpanCost, traced: Round, untraced: Round) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``*.self_s`` are net of the wrappers' own cost (see
    ``SpanTracer.layer_self_s``); ``*.raw_self_s`` are printed beside
    them but are not benchmark metrics.
    """
    calls, facts = tracer.calls, traced.layer_facts
    metrics: Dict[str, float] = {
        "operator.calls": sum(
            calls("operator", m)
            for m in ("process_record", "process_watermark", "process_punctuation", "process_batch")
        ),
        "slicer.calls": calls("slicer", "ensure_open_slice"),
        "slice.add.calls": sum(
            calls("slice", m) for m in ("add_inorder", "add_run", "add_out_of_order")
        ),
        "slice_manager.ooo_adds": calls("slice_manager", "add_out_of_order"),
        "slice_manager.splits": sum(
            calls("slice", m) for m in ("split_at", "split_at_count", "split_empty_at")
        ),
        "store.update.calls": calls("store", "slice_updated"),
        "store.query.calls": calls("store", "query_slices"),
        # The eager override calls super(): count the base span only.
        "store.evict.calls": calls("store", "evict_before", "AggregateStore"),
        "share.requests": calls("store", "request"),
        "kernel.update.calls": calls("kernel", "update"),
        "kernel.insert.calls": calls("kernel", "insert"),
        "kernel.evict.calls": calls("kernel", "remove_front"),
        "kernel.query.calls": calls("kernel", "query"),
        "window_manager.advance.calls": calls("window_manager", "advance"),
        "window_manager.on_modification.calls": calls("window_manager", "on_modification"),
        "window_manager.results": (
            tracer.size("window_manager", "advance") + tracer.size("window_manager", "on_modification")
        ),
        "keyed.batches": calls("keyed", "process_batch"),
        "keyed.keys": facts.get("keys", 0),
        "partition.hash.calls": calls("partition", "stable_hash"),
        "sharded.run_s": tracer.duration_s("sharded", "run"),
        "sharded.coordinator_cpu_s": facts.get("coordinator_cpu_s", 0.0),
        "sharded.workers_cpu_s": facts.get("workers_cpu_s", 0.0),
        "sharded.batches": facts.get("batches", 0),
        "sharded.queue_full_waits": facts.get("queue_full_waits", 0),
        # Base: the same job in one process, untraced.
        "sharded.overhead_ratio": (
            untraced.seconds / untraced.layer_facts["baseline_s"] if "baseline_s" in facts else 0.0
        ),
        "checkpoint.snapshot.calls": calls("checkpoint", "snapshot"),
        "checkpoint.snapshot_s": tracer.duration_s("checkpoint", "snapshot"),
        "checkpoint.restore.calls": calls("checkpoint", "restore"),
        "checkpoint.restore_s": tracer.duration_s("checkpoint", "restore"),
        "checkpoint.bytes": tracer.size("checkpoint", "snapshot"),
        "checkpoint.frame_bytes_max": facts.get("frame_bytes_max", 0),
        "durability.save.calls": calls("durability", "save"),
        "durability.save_s": tracer.duration_s("durability", "save"),
        "durability.load_s": tracer.duration_s("durability", "load_latest"),
        "durability.bytes_written": facts.get("bytes_written", 0),
        "recovery.recovery_s": facts.get("recovery_s", 0.0),
        "recovery.replayed_records": facts.get("replayed_records", 0),
        "recovery.deduped_results": facts.get("deduped_results", 0),
        "trace.spans": tracer.span_count(),
        "trace.span_cost_ns": cost.total_ns,
        # Base: the same elements through the same loop, untraced.
        "trace.overhead_ratio": traced.busy_seconds / untraced.busy_seconds,
    }
    for layer in CORE_LAYERS + ("keyed", "partition", "recovery"):
        raw, net = tracer.layer_self_s(layer, cost)
        metrics[f"{layer}.self_s"] = net
        metrics[f"{layer}.raw_self_s"] = raw
    return metrics


# ----------------------------------------------------------------------
# entry point of one measuring process (started by run.py)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one measuring process of the benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--oracle", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    work_root = HERE / ".work"  # inside the checkout and git-ignored
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = WORKLOADS[args.workload]
        bench = Bench(workload, args.seed, args.scale, workdir)
        outcome: Dict[str, object] = {}
        if args.oracle:
            check_against_oracle(workload, bench.stream, workdir, bench.check)
            outcome["reference_digest"] = full_run_digest(workload, bench.stream)
        if args.trace:
            outcome.update(bench.traced_rounds(args.seconds, args.out))
        else:
            outcome.update(bench.rounds(args.seconds))
        outcome.update(checked=bench.check.checked, failed=bench.check.failed)
        print(json.dumps(outcome))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
