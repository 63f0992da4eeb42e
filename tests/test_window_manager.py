"""Unit tests for the window manager (Step 3)."""

import pytest

from repro.aggregations import Sum
from repro.core.aggregate_store import LazyAggregateStore
from repro.core.slice_ import Slice
from repro.core.slice_manager import Modification, SliceManager
from repro.core.types import Record
from repro.core.window_manager import ManagedQuery, WindowManager
from repro.windows import SessionWindow, TumblingWindow


def build(window, fn=None, emit_empty=False):
    fn = fn if fn is not None else Sum()
    store = LazyAggregateStore([fn])
    manager = SliceManager(store)
    wm = WindowManager(store, manager, emit_empty=emit_empty)
    wm.add_query(ManagedQuery(0, window, fn, 0))
    return store, manager, wm, fn


def add_slice(store, fn, start, end, records):
    slice_ = Slice(start, end, 1, store_records=False)
    for ts, value in records:
        slice_.add_inorder(Record(ts, value), [fn])
    store.append_slice(slice_)
    return slice_


class TestAdvance:
    def test_emits_completed_windows(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0), (5, 2.0)])
        add_slice(store, fn, 10, None, [(12, 4.0)])
        results = wm.advance(15)
        assert [(r.start, r.end, r.value) for r in results] == [(0, 10, 3.0)]

    def test_advance_is_monotone(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        wm.advance(15)
        assert wm.advance(15) == []
        assert wm.advance(10) == []

    def test_no_duplicate_emission(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        assert len(wm.advance(12)) == 1
        assert wm.advance(25) == []  # (10, 20) empty, (0, 10) already out

    def test_empty_windows_skipped_by_default(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        add_slice(store, fn, 30, 40, [(35, 1.0)])
        results = wm.advance(50)
        assert [(r.start, r.end) for r in results] == [(0, 10), (30, 40)]

    def test_emit_empty_mode(self):
        store, _, wm, fn = build(TumblingWindow(10), emit_empty=True)
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        results = wm.advance(21)
        spans = [(r.start, r.end) for r in results]
        assert (10, 20) in spans

    def test_open_head_included_when_safe(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, None, [(1, 1.0), (8, 1.0)])
        results = wm.advance(10)
        assert [(r.start, r.end, r.value) for r in results] == [(0, 10, 2.0)]

    def test_open_head_excluded_when_records_reach_window_end(self):
        store, _, wm, fn = build(TumblingWindow(10))
        # Head contains a record beyond the window end: cannot be used.
        add_slice(store, fn, 0, None, [(1, 1.0), (15, 1.0)])
        results = wm.advance(20)
        # Window (0,10) cannot be answered from this head; nothing emits.
        assert [(r.start, r.end) for r in results if r.end == 10] == []


class _CountingTumbling(TumblingWindow):
    """Counts the windows the manager asks it to enumerate."""

    enumerated = 0

    def trigger_windows(self, prev_wm, curr_wm):
        for pair in super().trigger_windows(prev_wm, curr_wm):
            self.enumerated += 1
            yield pair


class TestWatermarkAheadOfTheData:
    """A watermark jump costs what it closes, not its length: windows
    past the newest record's flush horizon are empty and not walked."""

    def test_far_ahead_watermark_enumerates_only_windows_that_can_hold_records(self):
        window = _CountingTumbling(10)
        store, _, wm, fn = build(window)
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        add_slice(store, fn, 30, 40, [(35, 2.0)])
        add_slice(store, fn, 40, None, [])  # an empty open head
        results = wm.advance(10**6)
        assert [(r.start, r.end, r.value) for r in results] == [(0, 10, 1.0), (30, 40, 2.0)]
        assert window.enumerated == 4  # (0, 10) .. (30, 40), not 100 000
        assert wm.watermark == 10**6
        assert wm.advance(10**7) == []
        assert window.enumerated == 4

    def test_no_record_no_window(self):
        window = _CountingTumbling(10)
        _, _, wm, _ = build(window)
        assert wm.advance(10**6) == []
        assert window.enumerated == 0

    def test_emit_empty_still_walks_every_window(self):
        window = _CountingTumbling(10)
        store, _, wm, fn = build(window, emit_empty=True)
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        assert len(wm.advance(100)) == 10
        assert window.enumerated == 10

    def test_late_record_in_a_skipped_window_yields_the_same_update(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        wm.advance(10**6)
        # Inside the allowed lateness, in a window the jump never walked:
        # the walk would have found it empty and left no trace of it.
        late = add_slice(store, fn, 5_000, 5_010, [(5_003, 2.0)])
        results = wm.on_modification(Modification(5_003))
        assert [(r.start, r.end, r.value, r.is_update) for r in results] == [
            (5_000, 5_010, 2.0, True)
        ]
        late.add_out_of_order(Record(5_004, 3.0), [fn])
        results = wm.on_modification(Modification(5_004))
        assert [(r.start, r.end, r.value, r.is_update) for r in results] == [
            (5_000, 5_010, 5.0, True)
        ]
        assert wm.advance(10**7) == []


class TestSessions:
    def test_current_sessions_groups_by_gap(self):
        store, _, wm, fn = build(SessionWindow(5))
        add_slice(store, fn, 0, 4, [(1, 1.0), (3, 1.0)])
        add_slice(store, fn, 4, 20, [(6, 1.0)])  # gap 3 < 5: same session
        add_slice(store, fn, 20, None, [(30, 1.0)])  # gap 24: new session
        sessions = wm.current_sessions(5)
        assert [(s[0], s[1]) for s in sessions] == [(1, 6), (30, 30)]

    def test_sessions_span_empty_slices(self):
        store, _, wm, fn = build(SessionWindow(10))
        add_slice(store, fn, 0, 5, [(1, 1.0)])
        add_slice(store, fn, 5, 8, [])  # empty slice inside the session
        add_slice(store, fn, 8, None, [(9, 1.0)])
        sessions = wm.current_sessions(10)
        assert [(s[0], s[1]) for s in sessions] == [(1, 9)]

    def test_session_not_emitted_before_timeout(self):
        store, _, wm, fn = build(SessionWindow(5))
        add_slice(store, fn, 0, None, [(1, 1.0)])
        assert wm.advance(5) == []  # 1 + 5 = 6 > 5
        results = wm.advance(6)
        assert [(r.start, r.end) for r in results] == [(1, 6)]


class TestModifications:
    def test_modification_before_watermark_updates(self):
        store, manager, wm, fn = build(TumblingWindow(10))
        slice_ = add_slice(store, fn, 0, 10, [(1, 1.0)])
        wm.advance(12)
        slice_.add_out_of_order(Record(5, 2.0), [fn])
        results = wm.on_modification(Modification(5))
        assert [(r.start, r.end, r.value, r.is_update) for r in results] == [
            (0, 10, 3.0, True)
        ]

    def test_modification_at_watermark_is_noop(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        wm.advance(12)
        assert wm.on_modification(Modification(12)) == []
        assert wm.on_modification(Modification(13)) == []

    def test_modification_before_any_watermark_is_noop(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        assert wm.on_modification(Modification(1)) == []


class TestBookkeeping:
    def test_prune_emitted(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        add_slice(store, fn, 10, 20, [(11, 1.0)])
        wm.advance(25)
        wm.prune_emitted(10)
        emitted = wm._emitted[0]
        assert (0, 10) not in emitted
        assert (10, 20) in emitted

    def test_remove_query_clears_state(self):
        store, _, wm, fn = build(TumblingWindow(10))
        wm.remove_query(0)
        assert list(wm.queries) == []
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        assert wm.advance(100) == []

    def test_completed_count_with_partial_head(self):
        fn = Sum()
        store = LazyAggregateStore([fn])
        closed = Slice(0, 10, 1, store_records=True)
        closed.count_start = 0
        closed.count_end = 2
        for ts in (1, 5):
            closed.add_inorder(Record(ts, 1.0), [fn])
        store.append_slice(closed)
        head = Slice(10, None, 1, store_records=True)
        head.count_start = 2
        for ts in (11, 15, 19):
            head.add_inorder(Record(ts, 1.0), [fn])
        store.append_slice(head)
        manager = SliceManager(store, track_counts=True, store_records=True)
        wm = WindowManager(store, manager)
        # Watermark at 16: closed slice complete (2) + head records <= 16 (2).
        assert wm.completed_count(16) == 4
        assert wm.completed_count(9) == 2
        assert wm.completed_count(100) == 5
