"""Tests for supervised execution (repro.runtime.recovery).

Covers the sink/source behaviour the recovery loop guarantees:
duplicate re-emissions are deduplicated, the replay cursor lands
exactly on the snapshot boundary, watermarks are re-delivered after a
restore, source hiccups retry without restoring, and the late-record
side channel stays exactly-once under crashes.
"""

import pytest

from conftest import run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.core.operator_base import WindowOperator
from repro.core.types import WindowResult
from repro.aggregations import Sum
from repro.runtime import (
    CollectSink,
    DiskCheckpointStore,
    FaultInjectingOperator,
    FaultPlan,
    FaultySource,
    KeyedWindowOperator,
    PipelineFailed,
    RecoveryError,
    RecoveryStats,
    ReplayableSource,
    RestartPolicy,
    SourceHiccup,
    SupervisedPipeline,
)
from repro.windows import SessionWindow, TumblingWindow

NO_SLEEP = lambda _seconds: None  # noqa: E731 - keep tests instant


def build_operator(*, in_order=True, lateness=0):
    operator = GeneralSlicingOperator(
        stream_in_order=in_order, allowed_lateness=lateness
    )
    operator.add_query(TumblingWindow(5), Sum())
    return operator


def supervised(operator, **kwargs):
    sink = CollectSink()
    kwargs.setdefault("sleep", NO_SLEEP)
    return SupervisedPipeline(operator, sink, **kwargs), sink


class TestExactlyOnce:
    def test_crash_dedups_reemitted_results(self):
        stream = [Record(t, 1.0) for t in range(50)]
        expected = run_operator(build_operator(), stream)

        wrapped = FaultInjectingOperator(build_operator(), crash_at=[23])
        pipeline, sink = supervised(wrapped, checkpoint_every=10, batch_size=4)
        stats = pipeline.run(stream)

        assert sink.results == expected
        assert stats.restarts == 1
        assert stats.deduped_results > 0
        assert stats.results_emitted == len(expected)

    @pytest.mark.parametrize(
        "crash_at, expected_replayed",
        [(9, 9), (10, 0), (11, 1)],
        ids=["just-before-checkpoint", "exactly-at-checkpoint", "just-after-checkpoint"],
    )
    def test_replay_cursor_at_snapshot_boundary(self, crash_at, expected_replayed):
        """No off-by-one: a crash at record N replays exactly N - last_ckpt."""
        stream = [Record(t, 1.0) for t in range(35)]
        expected = run_operator(build_operator(), stream)

        wrapped = FaultInjectingOperator(build_operator(), crash_at=[crash_at])
        pipeline, sink = supervised(wrapped, checkpoint_every=10, batch_size=1)
        stats = pipeline.run(stream)

        assert stats.replayed_records == expected_replayed
        assert sink.results == expected
        # Sum conservation: every record counted exactly once.
        assert sum(r.value for r in sink.results) == sum(
            r.value for r in expected
        )

    def test_watermark_redelivered_after_restore(self):
        """A replay window spanning a watermark re-fires it; results dedup."""
        elements = []
        for t in range(40):
            elements.append(Record(t, 1.0))
            if t % 10 == 9:
                elements.append(Watermark(t))
        elements.append(Watermark(100))
        expected = run_operator(build_operator(in_order=False, lateness=100), elements)

        wrapped = FaultInjectingOperator(
            build_operator(in_order=False, lateness=100), crash_at=[25]
        )
        # checkpoint_every larger than the stream: the crash rewinds to
        # cursor 0 and replays both earlier watermarks.
        pipeline, sink = supervised(wrapped, checkpoint_every=1_000, batch_size=4)
        stats = pipeline.run(elements)

        assert sink.results == expected
        assert stats.restarts == 1
        # Watermark(9) finalized [0,5); Watermark(19) finalized [5,10)
        # and [10,15) -- all three re-fired during replay and were
        # suppressed.
        assert stats.deduped_results == 3

    def test_multiple_crashes_still_exactly_once(self):
        stream = [Record(t, float(t % 7)) for t in range(200)]
        expected = run_operator(build_operator(), stream)

        wrapped = FaultInjectingOperator(
            build_operator(), plan=FaultPlan(13, 200, crashes=3, errors=2)
        )
        pipeline, sink = supervised(
            wrapped,
            checkpoint_every=25,
            batch_size=8,
            restart_policy=RestartPolicy(max_restarts=10),
        )
        stats = pipeline.run(stream)

        assert sink.results == expected
        assert stats.restarts == 5

    def test_session_windows_survive_crash(self):
        operator_factory = lambda: _session_operator()  # noqa: E731
        stream = [Record(t, 1.0) for t in (0, 1, 2, 10, 11, 30, 31, 32, 50)]
        expected = run_operator(operator_factory(), stream)

        wrapped = FaultInjectingOperator(operator_factory(), crash_at=[5])
        pipeline, sink = supervised(wrapped, checkpoint_every=3, batch_size=2)
        pipeline.run(stream)
        assert sink.results == expected


class _DriftingKeyOperator(WindowOperator):
    """One result per record, tagged with a key that is no part of the
    pickled state: the count lives on the class, so a restore does not
    rewind it and a replay re-emits the right windows under other keys."""

    emitted = 0

    def process_record(self, record):
        type(self).emitted += 1
        return [
            WindowResult(0, record.ts, record.ts + 1, record.value, key=type(self).emitted)
        ]


class TestReplayVerification:
    def test_replay_under_another_key_is_divergence(self, monkeypatch):
        """``WindowResult.__eq__`` leaves the key tag out; the replay
        check must not, or a keyed replay that diverges in the key only
        is deduplicated silently instead of raising."""
        monkeypatch.setattr(_DriftingKeyOperator, "emitted", 0)
        stream = [Record(t, 1.0) for t in range(30)]
        wrapped = FaultInjectingOperator(_DriftingKeyOperator(), crash_at=[23])
        pipeline, sink = supervised(wrapped, checkpoint_every=10, batch_size=4)
        with pytest.raises(RecoveryError, match="replay diverged"):
            pipeline.run(stream)
        # Nothing was delivered twice on the way to the failure.
        assert [r.start for r in sink.results] == list(range(len(sink.results)))


def _session_operator():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(SessionWindow(5), Sum())
    return operator


class TestSourceRecovery:
    def test_hiccups_retry_without_restore(self):
        stream = [Record(t, 1.0) for t in range(30)]
        expected = run_operator(build_operator(), stream)

        source = FaultySource(stream, hiccup_at=[5, 12])
        pipeline, sink = supervised(build_operator(), checkpoint_every=8, batch_size=4)
        stats = pipeline.run(source)

        assert sink.results == expected
        assert stats.source_retries == 2
        # Hiccups never touch operator state: no restore, no replay.
        assert stats.restarts == 0
        assert stats.replayed_records == 0

    def test_persistent_source_failure_exhausts_budget(self):
        class DeadSource(ReplayableSource):
            def read(self, cursor, count):
                raise SourceHiccup("disk on fire", cursor)

        pipeline, _sink = supervised(
            build_operator(), restart_policy=RestartPolicy(max_restarts=2)
        )
        with pytest.raises(PipelineFailed) as excinfo:
            pipeline.run(DeadSource([Record(0, 1.0)]))
        assert len(excinfo.value.failures) == 3
        assert all(isinstance(f, SourceHiccup) for f in excinfo.value.failures)

    def test_hiccup_counter_resets_after_successful_read(self):
        stream = [Record(t, 1.0) for t in range(20)]
        # 4 hiccups total but never more than one in a row: fine under a
        # budget of 2 consecutive retries.
        source = FaultySource(stream, hiccup_at=[2, 6, 10, 14])
        pipeline, sink = supervised(
            build_operator(),
            batch_size=2,
            restart_policy=RestartPolicy(max_restarts=2),
        )
        stats = pipeline.run(source)
        assert stats.source_retries == 4
        assert len(sink.results) == len(run_operator(build_operator(), stream))


class TestRestartBudget:
    def test_operator_failures_exhaust_budget(self):
        stream = [Record(t, 1.0) for t in range(20)]
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[1, 2, 3])
        pipeline, _sink = supervised(
            wrapped, restart_policy=RestartPolicy(max_restarts=2)
        )
        with pytest.raises(PipelineFailed) as excinfo:
            pipeline.run(stream)
        assert len(excinfo.value.failures) == 3
        assert pipeline.stats.restarts == 2

    def test_backoff_schedule(self):
        policy = RestartPolicy(
            max_restarts=5,
            backoff_seconds=0.5,
            backoff_factor=2.0,
            max_backoff_seconds=3.0,
        )
        assert [policy.delay(n) for n in range(5)] == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_zero_backoff_by_default(self):
        assert RestartPolicy().delay(3) == 0.0

    def test_sleep_called_with_backoff(self):
        naps = []
        stream = [Record(t, 1.0) for t in range(20)]
        wrapped = FaultInjectingOperator(build_operator(), crash_at=[4, 9])
        pipeline = SupervisedPipeline(
            wrapped,
            CollectSink(),
            restart_policy=RestartPolicy(max_restarts=5, backoff_seconds=0.25),
            sleep=naps.append,
        )
        pipeline.run(stream)
        assert naps == [0.25, 0.5]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_seconds=-0.1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RestartPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RestartPolicy(jitter=-0.1)


class TestJitteredBackoff:
    def _policy(self, **kwargs):
        kwargs.setdefault("max_restarts", 5)
        kwargs.setdefault("backoff_seconds", 0.5)
        kwargs.setdefault("backoff_factor", 2.0)
        kwargs.setdefault("max_backoff_seconds", 3.0)
        return RestartPolicy(**kwargs)

    def test_jitter_is_pure_given_seed(self):
        """delay() is a pure function of (seed, attempt, token): equal
        inputs give equal schedules across policy instances."""
        first = self._policy(jitter=0.5, seed=99)
        second = self._policy(jitter=0.5, seed=99)
        schedule = [first.delay(n, token=3) for n in range(5)]
        assert schedule == [second.delay(n, token=3) for n in range(5)]
        # Repeated calls on one instance do not consume shared RNG state.
        assert schedule == [first.delay(n, token=3) for n in range(5)]

    def test_jitter_stays_within_declared_stretch(self):
        policy = self._policy(jitter=0.5, seed=7)
        for attempt, base in enumerate([0.5, 1.0, 2.0, 3.0, 3.0]):
            delayed = policy.delay(attempt)
            assert base <= delayed <= base * 1.5

    def test_different_seeds_and_tokens_decorrelate(self):
        policy = self._policy(jitter=1.0, seed=1)
        other_seed = self._policy(jitter=1.0, seed=2)
        assert policy.delay(0) != other_seed.delay(0)
        # Shards restarting off one fault spread out by token.
        delays = {policy.delay(0, token=shard) for shard in range(8)}
        assert len(delays) == 8

    def test_zero_jitter_preserves_plain_schedule(self):
        plain = self._policy()
        assert [plain.delay(n) for n in range(5)] == [0.5, 1.0, 2.0, 3.0, 3.0]
        # Any token still yields the undisturbed base schedule.
        assert plain.delay(2, token=5) == 2.0


class TestLateRecordChannel:
    def _late_stream(self):
        elements = [Record(t, 1.0) for t in range(20)]
        elements.append(Watermark(19))
        # Far beyond allowed lateness of 5 once the watermark passed 19.
        elements.append(Record(2, 99.0))
        elements.append(Record(3, 99.0))
        elements.extend(Record(t, 1.0) for t in range(20, 30))
        elements.append(Watermark(100))
        return elements

    def test_late_records_reach_side_channel(self):
        elements = self._late_stream()
        late = []
        pipeline, _sink = supervised(
            build_operator(in_order=False, lateness=5),
            batch_size=4,
            late_record_sink=late,
        )
        stats = pipeline.run(elements)

        assert [(r.ts, r.value) for r in late] == [(2, 99.0), (3, 99.0)]
        assert stats.late_records == 2
        assert pipeline.operator.dropped_late_records == 2

    def test_late_channel_exactly_once_under_crash(self):
        elements = self._late_stream()
        late = []
        # Crash after the late records were consumed; with a huge
        # checkpoint interval the replay re-processes (and re-drops)
        # them, but the side channel must not hear about them twice.
        wrapped = FaultInjectingOperator(
            build_operator(in_order=False, lateness=5), crash_at=[26]
        )
        pipeline, sink = supervised(
            wrapped, checkpoint_every=1_000, batch_size=4, late_record_sink=late
        )
        stats = pipeline.run(elements)

        assert stats.restarts == 1
        assert [(r.ts, r.value) for r in late] == [(2, 99.0), (3, 99.0)]
        assert stats.late_records == 2
        expected = run_operator(
            build_operator(in_order=False, lateness=5), elements
        )
        assert sink.results == expected

    def test_late_sink_accepts_callable(self):
        seen = []
        pipeline, _sink = supervised(
            build_operator(in_order=False, lateness=5),
            batch_size=4,
            late_record_sink=lambda record: seen.append(record.ts),
        )
        pipeline.run(self._late_stream())
        assert seen == [2, 3]


def _per_key_operator():
    operator = GeneralSlicingOperator(stream_in_order=False)
    operator.add_query(TumblingWindow(10), Sum())
    return operator


class TestKeyedLateRecordChannel:
    """Records are dropped by the per-key operators a keyed operator
    builds; the supervisor's hook and the drop count must reach through
    it (and through a fault wrapper around it)."""

    def _late_stream(self):
        elements = [Record(t, 1.0, key="a") for t in range(100)]
        elements.append(Watermark(90))
        elements.append(Record(5, 99.0, key="a"))
        elements.append(Record(6, 99.0, key="a"))
        elements.extend(Record(t, 1.0, key="a") for t in range(100, 110))
        elements.append(Watermark(200))
        return elements

    def test_late_records_reach_side_channel(self):
        late = []
        keyed = KeyedWindowOperator(_per_key_operator)
        pipeline, _sink = supervised(keyed, batch_size=8, late_record_sink=late)
        stats = pipeline.run(self._late_stream())

        assert [(r.ts, r.value) for r in late] == [(5, 99.0), (6, 99.0)]
        assert stats.late_records == 2
        assert keyed.dropped_late_records == 2
        assert keyed.operator_for("a").dropped_late_records == 2

    @pytest.mark.parametrize(
        "crash_at",
        [80, 108],
        ids=["before-late-records", "after-late-records"],
    )
    def test_exactly_once_under_crash(self, crash_at):
        """The checkpoint at cursor 64 already holds key "a"'s operator
        (hooks never ride a snapshot).  A crash before the late records
        means the restored per-key operator must be wired again to
        report them at all; a crash after them means the replay drops
        them a second time and must not report them twice."""
        elements = self._late_stream()
        late = []
        wrapped = FaultInjectingOperator(
            KeyedWindowOperator(_per_key_operator), crash_at=[crash_at]
        )
        pipeline, sink = supervised(
            wrapped, checkpoint_every=60, batch_size=8, late_record_sink=late
        )
        stats = pipeline.run(elements)

        assert stats.restarts == 1
        assert [(r.ts, r.value) for r in late] == [(5, 99.0), (6, 99.0)]
        assert stats.late_records == 2
        # Read through both wrappers.
        assert pipeline.operator.dropped_late_records == 2
        assert sink.results == run_operator(
            KeyedWindowOperator(_per_key_operator), elements
        )


class TestLateRecordsReportedByCount:
    """The supervisor reports the n-th drop of a run once: a restore
    resets its count to the restored operator's ``dropped_late_records``,
    and only a drop past the highest one reported reaches the sink."""

    def _late_stream(self):
        elements = [Record(t, 1.0) for t in range(20)]  # cursors 0-19
        elements.append(Watermark(19))
        elements.append(Record(2, 99.0))  # cursor 21
        elements.extend(Record(t, 1.0) for t in range(20, 30))  # 22-31
        elements.append(Watermark(29))
        elements.append(Record(12, 98.0))  # cursor 33
        elements.extend(Record(t, 1.0) for t in range(30, 40))  # 34-43
        elements.append(Watermark(100))
        return elements

    def test_hiccups_and_a_crash_report_each_late_record_once(self):
        elements = self._late_stream()
        late = []
        # Both late records' reads hiccup; the crash (before the 39th
        # record) replays from cursor 0 over both of them again.
        source = FaultySource(elements, hiccup_at=[21, 33])
        wrapped = FaultInjectingOperator(
            build_operator(in_order=False, lateness=5), crash_at=[38]
        )
        pipeline, sink = supervised(
            wrapped, checkpoint_every=1_000, batch_size=4, late_record_sink=late
        )
        stats = pipeline.run(source)

        assert stats.source_retries == 2
        assert stats.restarts == 1
        assert [(r.ts, r.value) for r in late] == [(2, 99.0), (12, 98.0)]
        assert stats.late_records == 2
        assert pipeline.operator.dropped_late_records == 2
        assert sink.results == run_operator(
            build_operator(in_order=False, lateness=5), elements
        )

    def test_a_resumed_run_reports_only_the_drops_past_its_checkpoint(self, tmp_path):
        elements = self._late_stream()
        store_dir = tmp_path / "ckpt"
        first_late = []
        # The first run checkpoints at cursors 12 and 24 (the late record
        # at 21 is in the second) and dies before the record at cursor 31.
        first, first_sink = supervised(
            FaultInjectingOperator(
                build_operator(in_order=False, lateness=5), crash_at=[30]
            ),
            checkpoint_every=10,
            batch_size=4,
            store=DiskCheckpointStore(store_dir),
            restart_policy=RestartPolicy(max_restarts=0),
            late_record_sink=first_late,
        )
        with pytest.raises(PipelineFailed):
            first.run(elements)
        assert [(r.ts, r.value) for r in first_late] == [(2, 99.0)]

        # The resumed run starts at cursor 24 with one drop restored, and
        # crashes before cursor 34: its replay drops the record at 33 again.
        late = []
        second, second_sink = supervised(
            FaultInjectingOperator(
                build_operator(in_order=False, lateness=5), crash_at=[9]
            ),
            checkpoint_every=10,
            batch_size=4,
            store=DiskCheckpointStore(store_dir),
            late_record_sink=late,
        )
        stats = second.run(elements, resume=True)

        assert stats.resumed_from_cursor == 24
        assert stats.restarts == 1
        assert [(r.ts, r.value) for r in late] == [(12, 98.0)]
        assert stats.late_records == 1
        assert second.operator.dropped_late_records == 2
        expected = run_operator(build_operator(in_order=False, lateness=5), elements)
        delivered = {
            (r.query_id, r.start, r.end, r.value)
            for r in first_sink.results + second_sink.results
        }
        assert delivered == {(r.query_id, r.start, r.end, r.value) for r in expected}


class TestStatsAndConfig:
    def test_stats_summary_keys(self):
        stats = RecoveryStats()
        stats.record_recovery(0.5, 10, 8)
        stats.record_recovery(1.5, 4, 4)
        summary = stats.summary()
        assert summary["restarts"] == 2
        assert summary["replayed_elements"] == 14
        assert summary["replayed_records"] == 12
        assert summary["mean_recovery_seconds"] == 1.0
        assert summary["total_recovery_seconds"] == 2.0
        assert stats.recovery_seconds == [0.5, 1.5]

    def test_supervisor_validation(self):
        with pytest.raises(ValueError):
            SupervisedPipeline(build_operator(), CollectSink(), checkpoint_every=0)
        with pytest.raises(ValueError):
            SupervisedPipeline(build_operator(), CollectSink(), batch_size=0)

    def test_external_stats_object_is_filled(self):
        stats = RecoveryStats()
        pipeline, _sink = supervised(build_operator(), stats=stats)
        returned = pipeline.run([Record(t, 1.0) for t in range(10)])
        assert returned is stats
        assert stats.checkpoints_taken >= 1

    def test_checkpoint_cadence(self):
        pipeline, _sink = supervised(
            build_operator(), checkpoint_every=10, batch_size=5
        )
        stats = pipeline.run([Record(t, 1.0) for t in range(100)])
        # Initial checkpoint + one per 10 records.
        assert stats.checkpoints_taken == 11

    def test_checkpoint_cadence_counts_records_not_watermarks(self):
        stream = []
        for t in range(100):
            stream += [Record(t, 1.0), Watermark(t)]
        pipeline, _sink = supervised(
            build_operator(in_order=False), checkpoint_every=10, batch_size=5
        )
        stats = pipeline.run(stream)
        # A batch of five elements holds two or three records, so ten
        # accumulate every fourth batch: 40 batches, 10 checkpoints + the
        # initial one (21 if watermarks counted toward the cadence).
        assert stats.checkpoints_taken == 11
