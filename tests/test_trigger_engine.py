"""Direct unit tests for the buffer-baseline trigger engine."""

import pytest

from repro.aggregations import Sum
from repro.baselines.trigger import BufferTriggerEngine
from repro.core.characteristics import Query
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


class FakeView:
    """Minimal record view over (ts, value) pairs."""

    def __init__(self, pairs):
        self.pairs = sorted(pairs)

    def timestamps(self):
        return [ts for ts, _ in self.pairs]

    def fold_range(self, lo, hi, query):
        function = query.aggregation
        partial = None
        for _, value in self.pairs[lo:hi]:
            lifted = function.lift(value)
            partial = lifted if partial is None else function.combine(partial, lifted)
        return partial

    def insert(self, ts, value):
        import bisect

        bisect.insort(self.pairs, (ts, value))


def engine_for(window, pairs, emit_empty=False):
    view = FakeView(pairs)
    engine = BufferTriggerEngine(view, emit_empty=emit_empty)
    engine.set_queries([Query(window, Sum(), query_id=0)])
    return engine, view


class TestTimeTriggers:
    def test_tumbling_emission(self):
        engine, _ = engine_for(TumblingWindow(10), [(1, 1.0), (5, 2.0), (12, 4.0)])
        results = engine.advance(15)
        assert [(r.start, r.end, r.value) for r in results] == [(0, 10, 3.0)]

    def test_monotone_watermark(self):
        engine, _ = engine_for(TumblingWindow(10), [(1, 1.0)])
        engine.advance(15)
        assert engine.advance(15) == []
        assert engine.advance(12) == []

    def test_sliding_overlap(self):
        engine, _ = engine_for(SlidingWindow(10, 5), [(t, 1.0) for t in range(20)])
        results = engine.advance(16)
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 10, 10.0),
            (5, 15, 10.0),
        ]

    def test_no_duplicate_emission_across_advances(self):
        engine, _ = engine_for(TumblingWindow(10), [(1, 1.0), (11, 1.0)])
        first = engine.advance(12)
        second = engine.advance(25)
        spans = [(r.start, r.end) for r in first + second]
        assert spans == [(0, 10), (10, 20)]


class TestSessionTriggers:
    def test_sessions_from_gaps(self):
        engine, _ = engine_for(
            SessionWindow(5), [(1, 1.0), (2, 1.0), (20, 1.0)]
        )
        results = engine.advance(100)
        assert [(r.start, r.end, r.value) for r in results] == [
            (1, 7, 2.0),
            (20, 25, 1.0),
        ]

    def test_open_session_waits(self):
        engine, _ = engine_for(SessionWindow(5), [(1, 1.0)])
        assert engine.advance(5) == []
        assert [(r.start, r.end) for r in engine.advance(6)] == [(1, 6)]

    def test_late_record_updates_session(self):
        engine, view = engine_for(SessionWindow(5), [(1, 1.0), (20, 1.0)])
        engine.advance(10)
        view.insert(3, 2.0)
        updates = engine.on_late_record(3)
        assert [(u.start, u.end, u.value, u.is_update) for u in updates] == [
            (1, 8, 3.0, True)
        ]

    def test_session_reopened_by_late_record_is_retracted(self):
        engine, view = engine_for(SessionWindow(5), [(1, 1.0)])
        engine.advance(6)  # session [1, 6) emitted
        view.insert(4, 1.0)
        # Extended session now ends at 9 > watermark 6: no emission yet,
        # but the stale bookkeeping is dropped so it re-emits later.
        assert engine.on_late_record(4) == []
        results = engine.advance(9)
        assert [(r.start, r.end, r.value) for r in results] == [(1, 9, 2.0)]


class TestCountTriggers:
    def test_count_windows_respect_watermark(self):
        engine, _ = engine_for(
            CountTumblingWindow(2), [(1, 1.0), (2, 2.0), (5, 3.0), (9, 4.0)]
        )
        results = engine.advance(5)
        assert [(r.start, r.end, r.value) for r in results] == [(0, 2, 3.0)]
        results = engine.advance(9)
        assert [(r.start, r.end, r.value) for r in results] == [(2, 4, 7.0)]

    def test_eviction_offset_preserves_positions(self):
        engine, view = engine_for(
            CountTumblingWindow(2), [(1, 1.0), (2, 2.0), (5, 3.0), (9, 4.0)]
        )
        engine.advance(5)
        # Evict the first two records; count positions stay global.
        view.pairs = view.pairs[2:]
        engine.note_eviction(2)
        results = engine.advance(9)
        assert [(r.start, r.end, r.value) for r in results] == [(2, 4, 7.0)]

    def test_late_record_shifts_count_windows(self):
        engine, view = engine_for(
            CountTumblingWindow(2), [(1, 1.0), (4, 4.0), (9, 9.0)]
        )
        engine.advance(4)  # window (0,2)=5.0 emitted
        view.insert(2, 2.0)
        updates = engine.on_late_record(2)
        assert [(u.start, u.end, u.value) for u in updates] == [(0, 2, 3.0)]


class TestMultiMeasureTriggers:
    def test_last_n_every(self):
        engine, _ = engine_for(
            LastNEveryWindow(count=2, every=10),
            [(2, 1.0), (4, 2.0), (12, 4.0), (15, 8.0)],
        )
        results = engine.advance(15)
        assert [(r.value) for r in results] == [3.0]

    def test_late_record_updates_edge(self):
        engine, view = engine_for(
            LastNEveryWindow(count=2, every=10), [(2, 1.0), (4, 2.0), (12, 4.0)]
        )
        engine.advance(12)
        view.insert(6, 8.0)
        updates = engine.on_late_record(6)
        assert [u.value for u in updates] == [10.0]  # last two become 2+8


class TestEmitEmpty:
    def test_empty_windows_skipped_by_default(self):
        engine, _ = engine_for(TumblingWindow(10), [(1, 1.0), (35, 1.0)])
        spans = [(r.start, r.end) for r in engine.advance(40)]
        assert spans == [(0, 10), (30, 40)]

    def test_emit_empty_enabled(self):
        engine, _ = engine_for(
            TumblingWindow(10), [(1, 1.0), (35, 1.0)], emit_empty=True
        )
        spans = [(r.start, r.end) for r in engine.advance(40)]
        assert (10, 20) in spans and (20, 30) in spans
