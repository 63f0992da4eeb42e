"""Dead-letter queue: poison-record quarantine under supervision.

A record whose UDF raises deterministically must not kill the run: the
supervisor retries (transient faults heal), isolates the culprit,
quarantines it with full context, and continues -- and a later crash
must neither re-emit nor re-quarantine it.  See
:mod:`repro.runtime.durability` (the queue) and
:mod:`repro.runtime.recovery` (the supervision loop around it).
"""

from __future__ import annotations

import pytest

from conftest import run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.runtime import (
    CollectSink,
    DeadLetterOverflow,
    DeadLetterQueue,
    DiskCheckpointStore,
    FaultInjectingOperator,
    PipelineFailed,
    PoisonRecord,
    RestartPolicy,
    SupervisedPipeline,
    Tracer,
)
from repro.windows import TumblingWindow

NO_SLEEP = lambda _seconds: None  # noqa: E731 - keep tests instant

#: Sentinel value the poisonous aggregation chokes on.
POISON = -66.0


class PoisonousSum(Sum):
    """Sum whose UDF deterministically raises on the poison value.

    Overrides *both* ``lift`` and the ``fold_values`` batch fast path --
    batched ingestion folds raw values without lifting each one, so a
    poison check in ``lift`` alone would never fire on the batch path.
    """

    name = "poisonous sum"

    def lift(self, value: float) -> float:
        if value == POISON:
            raise ValueError(f"poison value {value}")
        return value

    def fold_values(self, partial, values):
        if any(value == POISON for value in values):
            raise ValueError(f"poison value {POISON} in batch")
        return super().fold_values(partial, values)


def build_operator():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(5), PoisonousSum())
    return operator


def poisoned_stream(poison_at, n=60):
    poison_at = set(poison_at)
    return [
        Record(t, POISON if t in poison_at else 1.0) for t in range(n)
    ]


def reference_results(stream):
    """What an unfailing run over the stream *minus poison* emits."""
    return run_operator(
        build_operator(), [r for r in stream if r.value != POISON]
    )


def supervised(operator, **kwargs):
    sink = CollectSink()
    kwargs.setdefault("sleep", NO_SLEEP)
    kwargs.setdefault("checkpoint_every", 10)
    kwargs.setdefault("batch_size", 4)
    return SupervisedPipeline(operator, sink, **kwargs), sink


class TestQuarantine:
    def test_poison_record_quarantined_and_run_completes(self):
        stream = poisoned_stream([23])
        dlq = DeadLetterQueue(max_retries=2)
        pipeline, sink = supervised(build_operator(), dlq=dlq)

        stats = pipeline.run(stream)

        # The run completed and the sink saw exactly the poison-free
        # reference output -- windows around the culprit included.
        assert sink.results == reference_results(stream)
        assert len(dlq) == 1
        entry = dlq.entries[0]
        assert isinstance(entry, PoisonRecord)
        assert entry.record.value == POISON
        assert entry.cursor == 23
        # Every batch-level failure at that cursor counted: the retry
        # budget plus the final failure that triggered isolation.
        assert entry.attempts == dlq.max_retries + 1
        assert isinstance(entry.cause, ValueError)
        assert dlq.retries == dlq.max_retries
        assert stats.quarantined_records == 1

    def test_each_failure_of_a_batch_backs_off_by_its_count(self):
        # The checkpoint before the poison batch (cursors 20-23) is at
        # cursor 12: the backoff follows the failing batch, not the
        # position the restore lands on.
        slept = []
        dlq = DeadLetterQueue(max_retries=2)
        pipeline, _sink = supervised(
            build_operator(),
            dlq=dlq,
            sleep=slept.append,
            restart_policy=RestartPolicy(backoff_seconds=1.0, backoff_factor=2.0),
        )
        pipeline.run(poisoned_stream([23]))
        assert slept == [1.0, 2.0, 4.0]

    def test_max_retries_zero_isolates_immediately(self):
        stream = poisoned_stream([23])
        dlq = DeadLetterQueue(max_retries=0)
        pipeline, sink = supervised(build_operator(), dlq=dlq)
        pipeline.run(stream)
        assert sink.results == reference_results(stream)
        assert dlq.retries == 0
        assert dlq.entries[0].attempts == 1

    def test_multiple_poison_records_all_quarantined(self):
        stream = poisoned_stream([10, 23, 41])
        dlq = DeadLetterQueue(max_retries=1)
        pipeline, sink = supervised(build_operator(), dlq=dlq)
        stats = pipeline.run(stream)
        assert sink.results == reference_results(stream)
        assert sorted(entry.cursor for entry in dlq.entries) == [10, 23, 41]
        assert stats.quarantined_records == 3

    def test_adjacent_poison_records_in_one_batch(self):
        # Two culprits in the same batch: isolation must find both, one
        # rewind at a time.
        stream = poisoned_stream([21, 22])
        dlq = DeadLetterQueue(max_retries=1)
        pipeline, sink = supervised(build_operator(), dlq=dlq)
        pipeline.run(stream)
        assert sink.results == reference_results(stream)
        assert sorted(entry.cursor for entry in dlq.entries) == [21, 22]

    def test_without_dlq_poison_exhausts_restart_budget(self):
        stream = poisoned_stream([23])
        pipeline, _sink = supervised(
            build_operator(), restart_policy=RestartPolicy(max_restarts=2)
        )
        with pytest.raises(PipelineFailed):
            pipeline.run(stream)

    def test_quarantine_works_against_disk_store(self, tmp_path):
        stream = poisoned_stream([23])
        dlq = DeadLetterQueue(max_retries=1)
        pipeline, sink = supervised(
            build_operator(),
            dlq=dlq,
            store=DiskCheckpointStore(tmp_path / "ckpt", keep=3),
        )
        pipeline.run(stream)
        assert sink.results == reference_results(stream)
        assert len(dlq) == 1


class TestTransientVsPoison:
    def test_transient_fault_heals_within_retry_budget(self):
        """A fault that fires once is NOT poison: the retry succeeds and
        nothing is quarantined."""
        stream = poisoned_stream([])  # no poison, full reference
        wrapped = FaultInjectingOperator(build_operator(), error_at=[15])
        dlq = DeadLetterQueue(max_retries=2)
        pipeline, sink = supervised(wrapped, dlq=dlq)

        stats = pipeline.run(stream)

        assert sink.results == run_operator(build_operator(), stream)
        assert len(dlq) == 0
        assert dlq.retries == 1
        assert stats.quarantined_records == 0
        assert stats.restarts >= 1  # the healed retry was a real restore

    def test_crash_elsewhere_does_not_quarantine_poison_free_stream(self):
        stream = poisoned_stream([])
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[30])
        dlq = DeadLetterQueue(max_retries=3)
        pipeline, sink = supervised(wrapped, dlq=dlq)
        pipeline.run(stream)
        assert sink.results == run_operator(build_operator(), stream)
        assert len(dlq) == 0


class TestReplayInterplay:
    def test_crash_after_quarantine_neither_reemits_nor_requarantines(self):
        """Satellite: DLQ x checkpoint-replay.  A crash whose replay
        window spans a quarantined record must re-deliver nothing twice:
        the quarantine log filters the record on every pass and the
        emitted-results log dedups the surrounding windows."""
        stream = poisoned_stream([23])
        seen = []
        dlq = DeadLetterQueue(max_retries=1, on_poison_record=seen.append)
        # Huge checkpoint interval: both the quarantine rewind and the
        # later crash replay from cursor 0, crossing cursor 23 again.
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[45])
        pipeline, sink = supervised(
            wrapped, dlq=dlq, checkpoint_every=1_000, batch_size=4
        )

        stats = pipeline.run(stream)

        assert sink.results == reference_results(stream)
        # Quarantined exactly once, observed exactly once.
        assert len(dlq) == 1
        assert len(seen) == 1
        assert seen[0] is dlq.entries[0]
        assert stats.quarantined_records == 1
        # The crash replay really did cross the quarantine point and
        # dedup already-delivered windows.
        assert stats.deduped_results > 0

    def test_poison_then_checkpoint_then_crash(self):
        """With a short checkpoint cadence the post-quarantine crash
        restores a checkpoint taken *after* the quarantine decision; the
        decision must still hold (it lives in the supervisor's log)."""
        stream = poisoned_stream([13])
        dlq = DeadLetterQueue(max_retries=1)
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[40])
        pipeline, sink = supervised(
            wrapped, dlq=dlq, checkpoint_every=10, batch_size=4
        )
        pipeline.run(stream)
        assert sink.results == reference_results(stream)
        assert len(dlq) == 1
        assert [entry.cursor for entry in dlq.entries] == [13]

    def test_a_batch_with_late_and_poison_records_reports_each_late_record_once(self):
        """Retry, isolation and the rewind after the quarantine each
        replay the batch from cursor 0 and drop its late records again;
        the side channel hears each of them once."""
        stream = [Record(t, 1.0) for t in range(20)]
        # One batch (cursors 20-23): the watermark, a late record, the
        # poison record, and a late record behind it.
        stream += [Watermark(19), Record(2, 99.0), Record(21, POISON), Record(3, 99.0)]
        stream += [Record(t, 1.0) for t in range(22, 40)]
        stream.append(Watermark(100))

        def late_tolerant(function):
            operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=5)
            operator.add_query(TumblingWindow(5), function)
            return operator

        late = []
        dlq = DeadLetterQueue(max_retries=1)
        pipeline, sink = supervised(
            late_tolerant(PoisonousSum()),
            dlq=dlq,
            checkpoint_every=1_000,
            late_record_sink=late,
        )
        stats = pipeline.run(stream)

        assert [entry.cursor for entry in dlq.entries] == [22]
        assert stats.restarts == 3  # one retry, one isolation, one rewind
        assert [(r.ts, r.value) for r in late] == [(2, 99.0), (3, 99.0)]
        assert stats.late_records == 2
        assert pipeline.operator.dropped_late_records == 2
        assert sink.results == run_operator(
            late_tolerant(Sum()), [e for e in stream if getattr(e, "value", None) != POISON]
        )


class TestOverflowAndHooks:
    def test_capacity_overflow_escalates_to_restart_budget(self):
        stream = poisoned_stream([10, 30])
        dlq = DeadLetterQueue(max_retries=1, capacity=1)
        pipeline, _sink = supervised(
            build_operator(),
            dlq=dlq,
            restart_policy=RestartPolicy(max_restarts=2),
        )
        with pytest.raises(PipelineFailed) as excinfo:
            pipeline.run(stream)
        # The first culprit fit; the second overflowed and escalated.
        assert len(dlq) == 1
        assert dlq.entries[0].cursor == 10
        assert any(
            isinstance(f, DeadLetterOverflow) for f in excinfo.value.failures
        )

    def test_hook_failure_propagates(self):
        def explode(_entry):
            raise RuntimeError("pager is on fire")

        dlq = DeadLetterQueue(max_retries=0, on_poison_record=explode)
        with pytest.raises(RuntimeError, match="pager"):
            dlq.quarantine(
                Record(0, POISON), cursor=0, attempts=1, cause=ValueError("x")
            )
        # The record was admitted before the hook ran.
        assert len(dlq) == 1
        assert dlq.quarantined == {0}

    def test_a_raising_hook_fires_once_and_the_run_completes(self):
        """The hook's exception escalates to the restart budget, but the
        record was quarantined before the hook ran: the replay after the
        restart leaves it out instead of quarantining it again."""
        calls = []

        def explode(entry):
            calls.append(entry)
            raise RuntimeError("pager is on fire")

        stream = poisoned_stream([10])
        dlq = DeadLetterQueue(max_retries=0, on_poison_record=explode)
        pipeline, sink = supervised(
            build_operator(), dlq=dlq, restart_policy=RestartPolicy(max_restarts=3)
        )

        stats = pipeline.run(stream)

        assert sink.results == reference_results(stream)
        assert [entry.cursor for entry in dlq.entries] == [10]
        assert calls == dlq.entries
        assert stats.quarantined_records == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(max_retries=-1)
        with pytest.raises(ValueError):
            DeadLetterQueue(capacity=0)


class TestCounters:
    def test_tracer_threaded_through_pipeline(self):
        stream = poisoned_stream([23])
        tracer = Tracer()
        dlq = DeadLetterQueue(max_retries=2)
        pipeline, _sink = supervised(build_operator(), dlq=dlq, tracer=tracer)
        pipeline.run(stream)
        assert tracer.value("dlq.quarantined") == 1
        assert tracer.value("dlq.retries") == dlq.retries
        # The store shares the same tracer by default.
        assert tracer.value("durability.saves") > 0
        assert tracer.value("durability.loads") > 0
