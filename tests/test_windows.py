"""Tests for window types (repro.windows)."""

import pytest

from repro import GeneralSlicingOperator
from repro.aggregations import Sum
from repro.core.measures import MeasureKind
from repro.core.types import Punctuation, Record, Watermark
from repro.windows import (
    ContextClass,
    CountSlidingWindow,
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


class TestTumbling:
    def test_next_edge(self):
        window = TumblingWindow(10)
        assert window.get_next_edge(0) == 10
        assert window.get_next_edge(9) == 10
        assert window.get_next_edge(10) == 20

    def test_next_edge_with_offset(self):
        window = TumblingWindow(10, offset=3)
        assert window.get_next_edge(3) == 13
        assert window.get_next_edge(2) == 3

    def test_trigger_windows(self):
        window = TumblingWindow(10)
        assert list(window.trigger_windows(-1, 25)) == [(0, 10), (10, 20)]

    def test_trigger_includes_exact_end(self):
        window = TumblingWindow(10)
        assert (10, 20) in list(window.trigger_windows(10, 20))

    def test_trigger_excludes_already_reported(self):
        window = TumblingWindow(10)
        assert list(window.trigger_windows(20, 25)) == []

    def test_assign_windows(self):
        window = TumblingWindow(10)
        assert list(window.assign_windows(15)) == [(10, 20)]
        assert list(window.assign_windows(10)) == [(10, 20)]

    def test_is_edge(self):
        window = TumblingWindow(10)
        assert window.is_edge(20)
        assert not window.is_edge(21)

    def test_floor_edge(self):
        window = TumblingWindow(10)
        assert window.get_floor_edge(25) == 20
        assert window.get_floor_edge(20) == 20

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            TumblingWindow(0)

    def test_context_free(self):
        assert TumblingWindow(10).context is ContextClass.CONTEXT_FREE

    def test_negative_timestamps(self):
        window = TumblingWindow(10)
        assert window.get_next_edge(-5) == 0
        assert window.get_floor_edge(-5) == -10


class TestSliding:
    def test_next_edge_aligned(self):
        window = SlidingWindow(10, 5)
        # Starts at 0,5,10,...; ends at 10,15,20,...
        assert window.get_next_edge(0) == 5
        assert window.get_next_edge(7) == 10

    def test_next_edge_unaligned_length(self):
        window = SlidingWindow(7, 3)
        # starts: 0,3,6,9...; ends: 7,10,13...
        assert window.get_next_edge(6) == 7
        assert window.get_next_edge(7) == 9

    def test_trigger_windows(self):
        window = SlidingWindow(10, 5)
        assert list(window.trigger_windows(9, 21)) == [(0, 10), (5, 15), (10, 20)]

    def test_first_window_not_before_origin(self):
        window = SlidingWindow(10, 5)
        assert list(window.trigger_windows(-1, 10)) == [(0, 10)]

    def test_assign_windows(self):
        window = SlidingWindow(10, 5)
        assert sorted(window.assign_windows(12)) == [(5, 15), (10, 20)]

    def test_assign_windows_clipped_at_origin(self):
        window = SlidingWindow(10, 5)
        assert sorted(window.assign_windows(2)) == [(0, 10)]

    def test_concurrent_windows(self):
        assert SlidingWindow(20, 2).concurrent_windows() == 10
        assert SlidingWindow(10, 3).concurrent_windows() == 4

    def test_is_edge(self):
        window = SlidingWindow(7, 3)
        assert window.is_edge(3) and window.is_edge(7) and window.is_edge(10)
        assert not window.is_edge(8)

    def test_floor_edge(self):
        window = SlidingWindow(7, 3)
        assert window.get_floor_edge(8) == 7
        assert window.get_floor_edge(11) == 10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SlidingWindow(0, 1)
        with pytest.raises(ValueError):
            SlidingWindow(10, 0)


class TestCountWindows:
    def test_count_tumbling_kind(self):
        window = CountTumblingWindow(100)
        assert window.measure_kind is MeasureKind.COUNT

    def test_count_tumbling_edges(self):
        window = CountTumblingWindow(3)
        assert window.get_next_edge(0) == 3
        assert list(window.trigger_windows(0, 9)) == [(0, 3), (3, 6), (6, 9)]

    def test_count_sliding(self):
        window = CountSlidingWindow(4, 2)
        assert window.measure_kind is MeasureKind.COUNT
        assert list(window.trigger_windows(3, 8)) == [(0, 4), (2, 6), (4, 8)]


class TestSession:
    """A session window holds its gap; the tentative end it cuts at is
    the chain's, read off the newest retained record."""

    @staticmethod
    def _chain_after(*stamps):
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(SessionWindow(5), Sum())
        for ts in stamps:
            operator.process(Record(ts, 1.0))
        (chain,) = operator._chain_list
        return chain

    def test_context_classification(self):
        window = SessionWindow(5)
        assert window.is_session
        assert window.context is ContextClass.FORWARD_CONTEXT_AWARE

    def test_no_edge_without_records(self):
        assert SessionWindow(5).get_next_edge(0) is None
        assert self._chain_after().next_time_edge(0) is None

    def test_tentative_edge_follows_last_record(self):
        chain = self._chain_after(10)
        assert chain.slicer.cached_time_edge == chain.next_time_edge(10) == 15
        chain = self._chain_after(10, 12)
        assert chain.slicer.cached_time_edge == chain.next_time_edge(12) == 17
        assert SessionWindow(5).get_next_edge(12) is None  # nothing known in advance

    def test_edge_not_behind_query_point(self):
        assert self._chain_after(10).next_time_edge(20) is None

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            SessionWindow(0)


class TestPunctuationWindow:
    def test_edges_register_in_order(self):
        window = PunctuationWindow()
        assert window.on_punctuation(Punctuation(10)) is True
        assert window.on_punctuation(Punctuation(5)) is True
        assert [window.get_next_edge(ts) for ts in (0, 5, 10)] == [5, 10, None]

    def test_duplicate_punctuation_ignored(self):
        window = PunctuationWindow()
        assert window.on_punctuation(Punctuation(10)) is True
        assert window.on_punctuation(Punctuation(10)) is False
        assert [window.get_next_edge(ts) for ts in (0, 10)] == [10, None]

    def test_next_edge_from_known(self):
        window = PunctuationWindow()
        window.on_punctuation(Punctuation(10))
        window.on_punctuation(Punctuation(20))
        assert window.get_next_edge(5) == 10
        assert window.get_next_edge(10) == 20
        assert window.get_next_edge(20) is None

    def test_trigger_windows_between_punctuations(self):
        window = PunctuationWindow()
        for ts in (10, 25, 30):
            window.on_punctuation(Punctuation(ts))
        assert list(window.trigger_windows(-1, 30)) == [(0, 10), (10, 25), (25, 30)]

    def test_trigger_respects_origin(self):
        window = PunctuationWindow(origin=5)
        window.on_punctuation(Punctuation(10))
        assert list(window.trigger_windows(-1, 100)) == [(5, 10)]

    def test_assign_windows(self):
        window = PunctuationWindow()
        for ts in (10, 20):
            window.on_punctuation(Punctuation(ts))
        assert list(window.assign_windows(15)) == [(10, 20)]
        assert list(window.assign_windows(25)) == []  # window still open

    def test_is_edge_and_floor(self):
        window = PunctuationWindow()
        window.on_punctuation(Punctuation(10))
        assert window.is_edge(10)
        assert not window.is_edge(11)
        assert window.get_floor_edge(15) == 10
        assert window.get_floor_edge(5) is None

    def test_forward_context_free(self):
        assert PunctuationWindow().context is ContextClass.FORWARD_CONTEXT_FREE


class TestLastNEvery:
    def test_classification(self):
        window = LastNEveryWindow(count=10, every=5)
        assert window.context is ContextClass.FORWARD_CONTEXT_AWARE
        assert window.measure_kind is MeasureKind.COUNT

    def test_time_edges(self):
        window = LastNEveryWindow(count=10, every=5)
        assert list(window.time_edges_between(0, 16)) == [5, 10, 15]

    @staticmethod
    def _emitted(window, stream):
        """The operator's ``(start, end, value)`` results, and the record
        count its window manager resolved each trigger edge to."""
        operator = GeneralSlicingOperator(stream_in_order=False)
        operator.add_query(window, Sum())
        results = [(r.start, r.end, r.value) for r in operator.run(stream)]
        (chain,) = operator._chain_list
        return results, chain.window_manager._emitted_edges[0]

    def test_window_requires_context(self):
        """The window at a trigger edge is the last ``count`` records
        before it, resolved once the stream is final up to the edge."""
        window = LastNEveryWindow(count=3, every=5)
        stream = [Record(ts, 1.0) for ts in (0, 0, 1, 2, 3, 4, 4)]
        assert self._emitted(window, stream) == ([], {})
        assert self._emitted(window, stream + [Watermark(5)]) == ([(4, 7, 3.0)], {5: 7})

    def test_window_clipped_at_zero(self):
        window = LastNEveryWindow(count=10, every=5)
        stream = [Record(ts, 1.0) for ts in range(4)] + [Watermark(5)]
        assert self._emitted(window, stream) == ([(0, 4, 4.0)], {5: 4})

    def test_trigger_windows_resolved_only(self):
        """Only the edges a watermark has passed are resolved."""
        window = LastNEveryWindow(count=2, every=10)
        stream = [Record(ts, 1.0) for ts in range(0, 20, 2)] + [Watermark(15)]
        assert self._emitted(window, stream) == ([(3, 5, 2.0)], {10: 5})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LastNEveryWindow(count=0, every=5)
        with pytest.raises(ValueError):
            LastNEveryWindow(count=5, every=0)

    def test_is_edge_on_trigger_grid(self):
        window = LastNEveryWindow(count=2, every=10)
        assert window.is_edge(20)
        assert not window.is_edge(21)


class TestExplicitEdgesWindow:
    def _window(self):
        from repro.windows import ExplicitEdgesWindow

        return ExplicitEdgesWindow([0, 10, 15, 40])

    def test_validation(self):
        from repro.windows import ExplicitEdgesWindow

        with pytest.raises(ValueError):
            ExplicitEdgesWindow([5])
        with pytest.raises(ValueError):
            ExplicitEdgesWindow([5, 5])
        with pytest.raises(ValueError):
            ExplicitEdgesWindow([5, 3])

    def test_next_and_floor_edges(self):
        window = self._window()
        assert window.get_next_edge(0) == 10
        assert window.get_next_edge(12) == 15
        assert window.get_next_edge(40) is None
        assert window.get_floor_edge(12) == 10
        assert window.get_floor_edge(-1) is None

    def test_is_edge(self):
        window = self._window()
        assert window.is_edge(15)
        assert not window.is_edge(14)

    def test_trigger_windows(self):
        window = self._window()
        assert list(window.trigger_windows(-1, 100)) == [(0, 10), (10, 15), (15, 40)]
        assert list(window.trigger_windows(10, 15)) == [(10, 15)]
        assert list(window.trigger_windows(15, 39)) == []

    def test_assign_windows(self):
        window = self._window()
        assert list(window.assign_windows(12)) == [(10, 15)]
        assert list(window.assign_windows(45)) == []

    def test_end_to_end_with_general_slicing(self):
        from repro import GeneralSlicingOperator, Record
        from repro.aggregations import Sum

        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(self._window(), Sum())
        results = operator.run([Record(t, 1.0) for t in range(45)])
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 10, 10.0),
            (10, 15, 5.0),
            (15, 40, 25.0),
        ]

    def test_end_to_end_with_cutty(self):
        from repro import Record
        from repro.aggregations import Sum
        from repro.baselines import CuttyOperator

        operator = CuttyOperator()
        operator.add_query(self._window(), Sum())
        results = operator.run([Record(t, 1.0) for t in range(45)])
        assert [(r.start, r.end, r.value) for r in results] == [
            (0, 10, 10.0),
            (10, 15, 5.0),
            (15, 40, 25.0),
        ]

    def test_out_of_order_updates(self):
        from repro import GeneralSlicingOperator, Record, Watermark
        from repro.aggregations import Sum

        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=1000)
        operator.add_query(self._window(), Sum())
        out = []
        for element in [Record(1, 1.0), Record(20, 1.0), Watermark(16), Record(12, 2.0)]:
            out.extend(operator.process(element))
        final = {(r.start, r.end): (r.value, r.is_update) for r in out}
        assert final[(0, 10)] == (1.0, False)
        assert final[(10, 15)] == (2.0, True)
