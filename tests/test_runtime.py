"""Tests for the runtime substrate: disorder, metrics, sinks, sources."""

import pytest

from repro.core.types import Record, Watermark
from repro.runtime import (
    CollectSink,
    CountingSink,
    LatencyHarness,
    ReplayableSource,
    ThroughputResult,
    deep_sizeof,
    disorder_fraction,
    inject_disorder,
    measure_throughput,
    with_watermarks,
)


class TestInjectDisorder:
    def _base(self, n=200):
        return [Record(ts, float(ts)) for ts in range(n)]

    def test_zero_fraction_keeps_order(self):
        stream = inject_disorder(self._base(), 0.0, 10)
        assert [r.ts for r in stream] == list(range(200))

    def test_event_times_preserved(self):
        stream = inject_disorder(self._base(), 0.5, 20, seed=1)
        assert sorted(r.ts for r in stream) == list(range(200))

    def test_fraction_roughly_respected(self):
        stream = inject_disorder(self._base(1000), 0.3, 50, seed=2)
        measured = disorder_fraction(stream)
        assert 0.1 < measured < 0.5

    def test_delays_bounded(self):
        stream = inject_disorder(self._base(500), 0.4, 10, seed=3)
        max_seen = -1
        for record in stream:
            if record.ts < max_seen:
                assert max_seen - record.ts <= 10 + 1
            max_seen = max(max_seen, record.ts)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            inject_disorder(self._base(), 1.5, 10)

    def test_invalid_delay_range(self):
        with pytest.raises(ValueError):
            inject_disorder(self._base(), 0.5, 5, min_delay=10)

    def test_deterministic_given_seed(self):
        a = inject_disorder(self._base(), 0.4, 10, seed=5)
        b = inject_disorder(self._base(), 0.4, 10, seed=5)
        assert [r.ts for r in a] == [r.ts for r in b]


class TestWithWatermarks:
    def test_watermarks_trail_max_ts(self):
        records = [Record(ts, 0.0) for ts in range(0, 100, 10)]
        elements = list(with_watermarks(records, interval=20, max_delay=5))
        watermarks = [e for e in elements if isinstance(e, Watermark)]
        assert watermarks
        max_seen = None
        for element in elements:
            if isinstance(element, Record):
                max_seen = element.ts if max_seen is None else max(max_seen, element.ts)
            else:
                assert element.ts <= max_seen - 5 or element is elements[-1]

    def test_final_watermark_flushes(self):
        records = [Record(5, 0.0)]
        elements = list(with_watermarks(records, interval=10, max_delay=2))
        assert isinstance(elements[-1], Watermark)
        assert elements[-1].ts > 5

    def test_no_final_when_disabled(self):
        records = [Record(5, 0.0)]
        elements = list(with_watermarks(records, interval=100, max_delay=0, final=False))
        assert all(not isinstance(e, Watermark) or e.ts <= 5 for e in elements)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            list(with_watermarks([], interval=0))


class TestDisorderFraction:
    def test_in_order(self):
        assert disorder_fraction([Record(t, 0) for t in range(5)]) == 0.0

    def test_all_late(self):
        assert disorder_fraction([Record(5, 0), Record(1, 0), Record(0, 0)]) == pytest.approx(2 / 3)

    def test_empty(self):
        assert disorder_fraction([]) == 0.0


class TestMetrics:
    def test_measure_throughput_counts_records(self):
        from repro import GeneralSlicingOperator
        from repro.aggregations import Sum
        from repro.windows import TumblingWindow

        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        stream = [Record(ts, 1.0) for ts in range(100)]
        outcome = measure_throughput(op, stream)
        assert outcome.records == 100
        assert outcome.records_per_second > 0
        assert outcome.results_emitted == 9

    def test_throughput_result_repr(self):
        result = ThroughputResult(1000, 0.5, 10)
        assert result.records_per_second == 2000

    def test_records_per_second_zero_length_measurement(self):
        # A zero-length measurement must not report an infinite rate.
        assert ThroughputResult(0, 0.0, 0).records_per_second == 0.0
        assert ThroughputResult(100, 0.0, 0).records_per_second == 0.0
        assert ThroughputResult(0, 1.0, 0).records_per_second == 0.0

    def test_measure_throughput_restores_gc_and_collects(self, monkeypatch):
        import gc

        from repro import GeneralSlicingOperator
        from repro.aggregations import Sum
        from repro.windows import TumblingWindow

        collects = []
        real_collect = gc.collect
        monkeypatch.setattr(
            gc, "collect", lambda *args: collects.append(args) or real_collect()
        )

        def run_once():
            op = GeneralSlicingOperator(stream_in_order=True)
            op.add_query(TumblingWindow(10), Sum())
            measure_throughput(op, [Record(ts, 1.0) for ts in range(50)])

        assert gc.isenabled()
        run_once()
        assert gc.isenabled(), "gc must be re-enabled after a measurement"
        # One collect before the timed region, one after it.
        assert len(collects) == 2
        gc.disable()
        try:
            # With gc already disabled, the measurement must leave it
            # disabled but still collect the garbage it produced.
            collects.clear()
            run_once()
            assert not gc.isenabled()
            assert len(collects) == 2, "post-run collect skipped"
        finally:
            gc.enable()

    def test_measure_throughput_batched_path_equivalent(self):
        from repro import GeneralSlicingOperator
        from repro.aggregations import Sum
        from repro.windows import TumblingWindow

        def operator():
            op = GeneralSlicingOperator(stream_in_order=True)
            op.add_query(TumblingWindow(10), Sum())
            return op

        stream = [Record(ts, 1.0) for ts in range(100)]
        tuple_at_a_time = measure_throughput(operator(), stream)
        batched_run = measure_throughput(operator(), stream, batch_size=16)
        assert batched_run.records == tuple_at_a_time.records == 100
        assert batched_run.results_emitted == tuple_at_a_time.results_emitted

    def test_measure_throughput_rejects_bad_batch_size(self):
        from repro import GeneralSlicingOperator

        with pytest.raises(ValueError):
            measure_throughput(GeneralSlicingOperator(), [], batch_size=0)

    def test_percentile_nearest_rank_known_samples(self):
        from repro.runtime.metrics import LatencyStats

        # 100 samples 1..100: nearest-rank p50 = 50th sample, p99 = 99th,
        # p100 = the maximum.  int(q*n) truncation returned 51/100/100.
        stats = LatencyStats(list(range(1, 101)))
        assert stats.p50 == 50
        assert stats.p99 == 99
        assert stats.p100 == 100
        assert stats.percentile(0.0) == 1
        # 4 samples: p50 is the 2nd (ceil(0.5*4)=2), p99/p100 the 4th.
        stats = LatencyStats([10, 20, 30, 40])
        assert stats.p50 == 20
        assert stats.p99 == 40
        assert stats.p100 == 40
        # Single sample: every percentile collapses onto it.
        stats = LatencyStats([7])
        assert stats.p50 == stats.p99 == stats.p100 == 7

    def test_latency_harness_measures(self):
        harness = LatencyHarness(warmup=2, iterations=20)
        stats = harness.measure(lambda: sum(range(100)))
        assert stats.p50 > 0
        assert stats.minimum <= stats.p50 <= stats.p99
        assert len(stats.samples) == 20

    def test_latency_compare(self):
        harness = LatencyHarness(warmup=1, iterations=5)
        out = harness.compare({"a": lambda: 1, "b": lambda: 2})
        assert set(out) == {"a", "b"}

    def test_latency_harness_validation(self):
        with pytest.raises(ValueError):
            LatencyHarness(warmup=-1)
        with pytest.raises(ValueError):
            LatencyHarness(iterations=0)


class TestPipeline:
    """The sinks ``runtime/pipeline.py`` keeps."""

    def _results(self):
        from repro import GeneralSlicingOperator
        from repro.aggregations import Sum
        from repro.windows import TumblingWindow

        op = GeneralSlicingOperator(stream_in_order=True)
        op.add_query(TumblingWindow(10), Sum())
        return op.run([Record(ts, 1.0) for ts in range(25)])

    def test_collect_sink(self):
        sink = CollectSink()
        for result in self._results():
            sink.emit(result)
        assert [(r.start, r.end) for r in sink.results] == [(0, 10), (10, 20)]
        assert len(sink) == 2

    def test_counting_sink(self):
        sink = CountingSink()
        for result in self._results():
            sink.emit(result)
        assert sink.count == 2


class TestSources:
    def test_list_source_repeatable(self):
        source = ReplayableSource([Record(0, 1.0), Watermark(5)])
        assert len(list(source)) == 2
        assert len(list(source)) == 2
        assert len(source) == 2
