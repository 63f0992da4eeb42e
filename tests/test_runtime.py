"""Tests for the runtime substrate: disorder, sinks, sources."""

import pytest

from repro.core.types import Record, Watermark
from repro.runtime import (
    CollectSink,
    CountingSink,
    ReplayableSource,
    disorder_fraction,
    inject_disorder,
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
