"""Unit tests for the window manager (Step 3)."""

import pytest

from repro.aggregations import Sum
from repro.core.aggregate_store import LazyAggregateStore
from repro.core.slice_ import Slice
from repro.core.slice_manager import SliceManager
from repro.core.types import Record
from repro.core.window_manager import ManagedQuery, WindowManager
from repro.windows import LastNEveryWindow, SessionWindow, TumblingWindow


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
        results = wm.on_modification(5_003)
        assert [(r.start, r.end, r.value, r.is_update) for r in results] == [
            (5_000, 5_010, 2.0, True)
        ]
        late.add_out_of_order(Record(5_004, 3.0), [fn])
        results = wm.on_modification(5_004)
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


class TestEvictionPins:
    def test_a_session_on_both_sides_of_the_horizon_pins_it_at_its_first_record(self):
        store, _, wm, fn = build(SessionWindow(5))
        add_slice(store, fn, 0, 10, [(1, 1.0)])  # a session of its own
        add_slice(store, fn, 10, 20, [(18, 1.0)])
        add_slice(store, fn, 20, 30, [(21, 1.0)])  # 18 and 21: one session
        add_slice(store, fn, 30, None, [(40, 1.0)])
        # Nothing ends by 9, so there is nothing to spare.
        assert wm.pin_horizon(9, 5) == 9
        # From 10 on the first session goes whole.  [10, 20) could follow
        # at 20, but [20, 30) holds the rest of its session: down to 18,
        # which drops [0, 10) alone.
        assert wm.pin_horizon(10, 5) == 10
        assert wm.pin_horizon(20, 5) == 18
        assert wm.pin_horizon(29, 5) == 18
        # Both gone at 30; the last session is all in the open head,
        # which no horizon reaches.
        assert wm.pin_horizon(30, 5) == 30
        assert wm.pin_horizon(100, 5) == 100
        assert wm.pin_horizon(100, None) == 100  # a chain without sessions

    def test_a_session_is_pinned_across_the_empty_slices_inside_it(self):
        store, _, wm, fn = build(SessionWindow(6))
        add_slice(store, fn, 0, 10, [(8, 1.0)])
        add_slice(store, fn, 10, 12, [])  # cut by another query's edges
        add_slice(store, fn, 12, 20, [(13, 1.0)])
        add_slice(store, fn, 20, None, [(30, 1.0)])
        assert wm.pin_horizon(11, 6) == 8  # 13 follows 8 within the gap
        assert wm.pin_horizon(12, 6) == 8
        assert wm.pin_horizon(20, 6) == 20

    def test_sessions_are_grouped_by_the_gap_given(self):
        """The chain passes its largest gap: by 20, all three records are
        one session, and it reaches the open head."""
        pinned = {}
        for gap in (5, 20):
            store, _, wm, fn = build(SessionWindow(5))
            add_slice(store, fn, 0, 10, [(1, 1.0)])
            add_slice(store, fn, 10, 20, [(18, 1.0)])
            add_slice(store, fn, 20, None, [(21, 1.0)])
            pinned[gap] = wm.pin_horizon(15, gap)
        assert pinned == {5: 15, 20: 1}

    def test_a_carry_pins_first_and_the_sessions_see_the_lowered_horizon(self):
        store, _, wm, fn = build(SessionWindow(3))
        add_slice(store, fn, 20, 25, [(20, 1.0), (22, 1.0), (24, 1.0)])
        add_slice(store, fn, 25, 30, [(26, 1.0), (28, 1.0)])
        add_slice(store, fn, 30, 34, [(30, 1.0), (31, 1.0)])  # one session, 20 .. 31
        add_slice(store, fn, 40, None, [(40, 1.0)])
        assert wm.pin_horizon(35, 3) == 35  # the session goes whole ...
        wm._carries[7] = (30, 55, 2, 3, 1.0, 1)
        assert wm.pin_horizon(35, 3) == 20  # ... or, its tail carried, not at all

    def test_the_session_walk_resumes_moves_with_eviction_and_starts_over_when_it_must(self):
        """``pin_horizon`` groups each closed slice into its session once:
        a session that never closes pins every slice it spans, and is not
        walked again behind every cut."""
        store, _, wm, fn = build(SessionWindow(5))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        for start in range(10, 60, 10):
            stamps = (start + 2, start + 5, start + 8)  # 3 apart, 4 across slices
            add_slice(store, fn, start, start + 10, [(ts, 1.0) for ts in stamps])
        add_slice(store, fn, 60, None, [(62, 1.0)])
        assert wm.pin_horizon(30, 5) == 12 and wm._session_walk == (3, 12, 28)
        assert wm.pin_horizon(50, 5) == 12 and wm._session_walk == (5, 12, 48)
        wm.check_invariants()
        # Pinned at 12, eviction drops [0, 10); the walk moves down with the rest.
        assert store.evict_before(12) == 1
        wm.prune_emitted(12, 1)
        assert wm._session_walk == (4, 12, 48)
        wm.check_invariants()
        # A horizon behind what was walked (a carry newly pinned) starts it over ...
        assert wm.pin_horizon(35, 5) == 12 and wm._session_walk == (2, 12, 28)
        # ... and so does any change behind the head.
        assert wm.on_modification(45) == []
        assert wm._session_walk == (0, None, None)
        assert wm.pin_horizon(60, 5) == 12 and wm._session_walk == (5, 12, 58)
        # With every walked slice evicted there is no session to stand in.
        wm._session_walk = (2, 12, 28)
        wm.prune_emitted(30, 2)
        assert wm._session_walk == (0, None, None)

    def test_counts_resolve_past_evicted_records(self):
        store, _, wm, fn = build(LastNEveryWindow(2, 10))
        position = 0
        for start in (0, 10, 20):
            slice_ = add_slice(store, fn, start, start + 10, [(start + 1, 1.0), (start + 5, 1.0)])
            slice_.count_start, slice_.count_end = position, position + 2
            position += 2
        assert (wm._cumulative_count_at(30), wm.completed_count(16)) == (6, 4)
        assert store.evict_before(10) == 1
        assert (wm._cumulative_count_at(30), wm.completed_count(16)) == (6, 4)
        assert wm.completed_count(5) == 2  # nothing retained that early: what was evicted


class TestModifications:
    def test_modification_before_watermark_updates(self):
        store, manager, wm, fn = build(TumblingWindow(10))
        slice_ = add_slice(store, fn, 0, 10, [(1, 1.0)])
        wm.advance(12)
        slice_.add_out_of_order(Record(5, 2.0), [fn])
        results = wm.on_modification(5)
        assert [(r.start, r.end, r.value, r.is_update) for r in results] == [
            (0, 10, 3.0, True)
        ]

    def test_modification_at_watermark_is_noop(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        wm.advance(12)
        assert wm.on_modification(12) == []
        assert wm.on_modification(13) == []

    def test_modification_before_any_watermark_is_noop(self):
        store, _, wm, fn = build(TumblingWindow(10))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        assert wm.on_modification(1) == []


class TestBookkeeping:
    def test_prune_emitted(self):
        """A session's extent comes from the records, so what was emitted
        is remembered -- until eviction has passed it."""
        store, _, wm, fn = build(SessionWindow(3))
        add_slice(store, fn, 0, 10, [(1, 1.0)])
        add_slice(store, fn, 10, 20, [(11, 1.0)])
        add_slice(store, fn, 20, None, [(21, 1.0)])
        assert len(wm.advance(25)) == 3
        assert wm._emitted[0] == {(1, 4), (11, 14), (21, 24)}
        assert store.evict_before(10) == 1
        wm.prune_emitted(10, 1)
        assert wm._emitted[0] == {(11, 14), (21, 24)}
        assert wm.advance(30) == []

    def test_context_free_windows_remember_no_emitted_pairs(self):
        """Their ends are enumerated once, in ``(previous watermark,
        watermark]``: the set is never written.  One populated by an older
        version (a restored frame) is neither read nor kept for ever."""
        store, _, wm, fn = build(TumblingWindow(10))
        first = add_slice(store, fn, 0, 10, [(1, 1.0)])
        add_slice(store, fn, 10, 20, [(11, 1.0)])
        assert len(wm.advance(25)) == 2
        assert wm._emitted[0] == set()
        first.add_out_of_order(Record(5, 2.0), [fn])
        (update,) = wm.on_modification(5)
        assert (update.start, update.end, update.value, update.is_update) == (0, 10, 3.0, True)
        assert wm._emitted[0] == set()

        wm._emitted[0] = {(0, 10), (10, 20), (20, 30)}  # as an older frame holds them
        add_slice(store, fn, 20, 30, [(21, 1.0)])
        assert [(r.start, r.end) for r in wm.advance(35)] == [(20, 30)]
        assert store.evict_before(20) == 2
        wm.prune_emitted(20, 2)
        assert wm._emitted[0] == {(20, 30)}

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
