"""Tests for the workload characterization / decision trees (Figures 4-6)."""

import pytest

from repro.aggregations import M4, Average, CollectList, Median, Min, Sum
from repro.core.characteristics import (
    Query,
    RemovalStrategy,
    WorkloadCharacteristics,
    removal_strategy,
    requires_splits,
    requires_tuple_storage,
)
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


def q(window, aggregation, query_id=0):
    return Query(window, aggregation, query_id=query_id)


class TestFigure4TupleStorage:
    """The decision tree: when must raw records be retained?"""

    def test_inorder_cf_drops_tuples(self):
        assert not requires_tuple_storage([q(TumblingWindow(10), Sum())], True)

    def test_inorder_fcf_drops_tuples(self):
        assert not requires_tuple_storage([q(PunctuationWindow(), Sum())], True)

    def test_inorder_fca_requires_tuples(self):
        assert requires_tuple_storage([q(LastNEveryWindow(10, 5), Sum())], True)

    def test_inorder_session_drops_tuples(self):
        # Sessions are FCA but never require recomputation.
        assert not requires_tuple_storage([q(SessionWindow(5), Sum())], True)

    def test_ooo_cf_commutative_drops_tuples(self):
        assert not requires_tuple_storage([q(TumblingWindow(10), Sum())], False)

    def test_ooo_noncommutative_requires_tuples(self):
        assert requires_tuple_storage([q(TumblingWindow(10), M4())], False)

    def test_inorder_noncommutative_drops_tuples(self):
        # Commutativity is irrelevant for in-order streams (Section 5.1).
        assert not requires_tuple_storage([q(TumblingWindow(10), M4())], True)

    def test_ooo_fcf_requires_tuples(self):
        # Context aware and not a session -> records needed under disorder.
        assert requires_tuple_storage([q(PunctuationWindow(), Sum())], False)

    def test_ooo_session_drops_tuples(self):
        assert not requires_tuple_storage([q(SessionWindow(5), Sum())], False)

    def test_ooo_count_measure_requires_tuples(self):
        assert requires_tuple_storage([q(CountTumblingWindow(10), Sum())], False)

    def test_inorder_count_measure_drops_tuples(self):
        assert not requires_tuple_storage([q(CountTumblingWindow(10), Sum())], True)

    def test_figure4_truth_table(self):
        """Every cell of the paper's Figure 4 / Section 5.1, transcribed
        from the paper: in order, only forward-context-aware windows that
        are not sessions keep records; out of order, a non-commutative
        function, a context-aware window that is not a session, or a
        count measure does.  The aggregation class (distributive,
        algebraic, holistic) is no input of the tree."""
        functions = {
            "distributive": Sum,
            "algebraic": Average,
            "holistic": Median,
            "non-commutative": M4,
        }
        windows = {
            "context-free / time": lambda: TumblingWindow(10),
            "context-free / count": lambda: CountTumblingWindow(10),
            "session / time": lambda: SessionWindow(5),
            "punctuation (FCF) / time": lambda: PunctuationWindow(),
            "last-n-every (FCA) / count": lambda: LastNEveryWindow(10, 5),
        }
        # One letter per function, in the order above: K keeps, d drops.
        keeps = {
            ("in order", "context-free / time"): "dddd",
            ("in order", "context-free / count"): "dddd",
            ("in order", "session / time"): "dddd",
            ("in order", "punctuation (FCF) / time"): "dddd",
            ("in order", "last-n-every (FCA) / count"): "KKKK",
            ("out of order", "context-free / time"): "dddK",
            ("out of order", "context-free / count"): "KKKK",
            ("out of order", "session / time"): "dddK",
            ("out of order", "punctuation (FCF) / time"): "KKKK",
            ("out of order", "last-n-every (FCA) / count"): "KKKK",
        }
        assert len(keeps) == 2 * len(windows)
        wrong = [
            (order, window, function)
            for (order, window), row in keeps.items()
            for (function, make), letter in zip(functions.items(), row)
            if requires_tuple_storage([q(windows[window](), make())], order == "in order")
            is not (letter == "K")
        ]
        assert wrong == []

    def test_any_query_can_force_storage(self):
        queries = [
            q(TumblingWindow(10), Sum(), 0),
            q(CountTumblingWindow(10), Sum(), 1),
        ]
        assert requires_tuple_storage(queries, False)
        assert not requires_tuple_storage(queries[:1], False)


class TestFigure5Splits:
    def test_inorder_cf_never_splits(self):
        assert not requires_splits([q(SlidingWindow(10, 5), Sum())], True)

    def test_inorder_fca_splits(self):
        assert requires_splits([q(LastNEveryWindow(10, 5), Sum())], True)

    def test_inorder_fcf_no_splits(self):
        assert not requires_splits([q(PunctuationWindow(), Sum())], True)

    def test_ooo_fcf_splits(self):
        assert requires_splits([q(PunctuationWindow(), Sum())], False)

    def test_ooo_session_never_splits(self):
        assert not requires_splits([q(SessionWindow(5), Sum())], False)

    def test_ooo_cf_never_splits(self):
        assert not requires_splits([q(TumblingWindow(10), Sum())], False)


class TestFigure6Removal:
    def test_time_measure_never_removes(self):
        assert removal_strategy(q(TumblingWindow(10), Sum()), False) is RemovalStrategy.NOT_NEEDED

    def test_inorder_count_never_removes(self):
        assert removal_strategy(q(CountTumblingWindow(10), Sum()), True) is RemovalStrategy.NOT_NEEDED

    def test_ooo_count_invertible_uses_invert(self):
        assert removal_strategy(q(CountTumblingWindow(10), Sum()), False) is RemovalStrategy.INVERT

    def test_ooo_count_noninvertible_recomputes(self):
        assert removal_strategy(q(CountTumblingWindow(10), Min()), False) is RemovalStrategy.RECOMPUTE


class TestWorkloadCharacteristics:
    def test_aggregates_query_properties(self):
        queries = [
            q(TumblingWindow(10), Sum(), 0),
            q(SessionWindow(5), Sum(), 1),
        ]
        chars = WorkloadCharacteristics(queries, stream_in_order=False)
        assert chars.has_sessions
        assert chars.has_context_aware
        assert not chars.has_count_measure
        assert chars.all_commutative
        assert not chars.store_tuples

    def test_removal_strategies_by_query(self):
        queries = [
            q(CountTumblingWindow(10), Sum(), 0),
            q(CountTumblingWindow(10), Min(), 1),
        ]
        chars = WorkloadCharacteristics(queries, stream_in_order=False)
        assert chars.removal_strategies[0] is RemovalStrategy.INVERT
        assert chars.removal_strategies[1] is RemovalStrategy.RECOMPUTE

    def test_describe_mentions_order(self):
        chars = WorkloadCharacteristics([q(TumblingWindow(10), Sum())], True)
        assert "in-order" in chars.describe()

    def test_noncommutative_flag(self):
        chars = WorkloadCharacteristics([q(TumblingWindow(10), CollectList())], False)
        assert not chars.all_commutative
        assert chars.store_tuples
