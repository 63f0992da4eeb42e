"""The regression corpus: every known wrong result, one row each.

``REGRESSIONS`` maps a name that says what went wrong to a :class:`Case`,
the name -> generator registry idiom of ``repro.experiments.FIGURES``.
``tests/test_regressions.py`` replays every row on every path that
applies to it.  A new wrong result becomes a row here (the differential
fuzz prints its shrunk case as a ``Case(...)`` literal); a bespoke test
stays only for what a row cannot say: internals, write counts, runtime
and storage behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro import Record, Watermark
from repro.aggregations import Average, Max, Median, Sum
from repro.core.operator_base import StreamOrderViolation
from repro.core.types import Punctuation
from repro.windows import (
    ExplicitEdgesWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)
from repro.windows.count import CountSlidingWindow, CountTumblingWindow
from repro.windows.multimeasure import LastNEveryWindow


@dataclass(frozen=True)
class AddQuery:
    """Stream marker: register ``window`` x ``function`` here."""

    window: Any
    function: Any


@dataclass(frozen=True)
class RemoveQuery:
    """Stream marker: remove query ``query_id`` here."""

    query_id: int


@dataclass(frozen=True)
class Case:
    """One known wrong result.

    ``queries`` get ids 0, 1, ... in order; ``stream`` may hold
    :class:`AddQuery` / :class:`RemoveQuery` markers; ``options`` are
    :class:`~repro.GeneralSlicingOperator` keywords (a row that sets
    ``eager`` or ``share_windows`` runs only that variant).  ``issue`` is
    the commit that fixed the defect, or the ROADMAP item that will;
    ``xfail`` maps an ``fnmatch`` pattern of path IDs to that item, a
    strict ``xfail``.  A row is checked against :mod:`repro.reference`
    unless its ``process`` run drops ``drops`` late records or raises
    ``raises``: then against that run.  ``check(operator)`` runs after
    the ``process`` path only.
    """

    queries: Sequence[Tuple[Any, Any]]
    stream: Sequence[Any]
    options: Mapping[str, Any] = field(default_factory=dict)
    issue: str = ""
    why: str = ""
    xfail: Mapping[str, str] = field(default_factory=dict)
    check: Optional[Callable[[Any], None]] = None
    drops: int = 0
    raises: Optional[type] = None


IN_ORDER = {"stream_in_order": True}
WATERMARKS = {"stream_in_order": False, "allowed_lateness": 0}


def marked(records, marks) -> list:
    """``records``, each watermark of ``marks`` ahead of the first record
    at or after it (the rest at the end)."""
    elements, marks = [], list(marks)
    for record in records:
        while marks and marks[0] <= record.ts:
            elements.append(Watermark(marks.pop(0)))
        elements.append(record)
    return elements + [Watermark(mark) for mark in marks]


def ones(stamps) -> list:
    return [Record(ts, 1.0) for ts in stamps]


def _out_of_order_too(name: str, case: Case, stream=None) -> Dict[str, Case]:
    """``case``, and as ``<name>_out_of_order`` the same on the
    out-of-order path (over ``stream``, if given)."""
    twin = replace(case, options=WATERMARKS, stream=case.stream if stream is None else stream)
    return {name: case, f"{name}_out_of_order": twin}


class Scaled(Sum):
    def lift(self, value):
        return value * 2


class AbsMax(Max):
    lift = staticmethod(abs)


class FuelSum(Sum):
    """Sum over the second component of a pair: ``lift`` changes the type."""

    def lift(self, value):
        return value[1]


def _slices_at_most(count: int) -> Callable[[Any], None]:
    def check(operator) -> None:
        assert operator.total_slices() <= count, operator.total_slices()

    return check


def _first_retained_slice_starts_at(ts: int) -> Callable[[Any], None]:
    def check(operator) -> None:
        (store,) = operator.state_objects()
        assert store.slices[0].first_ts == ts, store.slices[0]

    return check


def _edge_delimited(marks=()) -> list:
    elements = []
    for ts in range(200):
        elements += [Punctuation(ts)] if ts in marks else []
        elements += [Record(ts, 1.0)] + ([Watermark(ts)] if ts % 10 == 9 else [])
    return elements


def _punctuated() -> list:
    """Two records every 10 ms, punctuations at 55, 155, 255."""
    elements = []
    for t in range(0, 300, 10):
        elements += [Punctuation(t - 5)] if t % 100 == 60 else []
        elements += [Record(t, 1.0), Record(t + 1, 2.0)]
    return elements + [Watermark(1_000)]


_HALVED_TAIL = ones([*range(0, 13), *range(17, 46)])
_HALVED_CARRY = ones([*range(20, 32), *range(40, 71)])
_TENTHS = [Record(t, 1.0) for t in range(0, 250, 10)]
_OVERTAKEN = _TENTHS[:20] + [Watermark(1_000), Record(203, 7.0), Watermark(2_000)]
_ROADMAP_5 = {"*": "ROADMAP 5: a changed query set drops the open windows of the others"}


def _changed_at_150(marker) -> list:
    return _TENTHS[:15] + [marker] + _TENTHS[15:] + [Watermark(1_000)]


REGRESSIONS: Dict[str, Case] = {
    "ten_tenths_sum_like_the_per_record_path": Case(
        [(TumblingWindow(10), Sum()), (TumblingWindow(10), Average())],
        [Record(t, 0.1) for t in range(21)], IN_ORDER, "commit bf05c31",
        "From Python 3.12 on the builtin sum() compensates float rounding: ten 0.1s give 1.0, "
        "and 0.9999999999999999 by repeated addition as combine does; a batch fold built on "
        "sum() diverged from process.",
        {"eager-*": "ROADMAP 12(a): subtract-on-evict reads [20, 30) as 0.09999999999999987"},
    ),
    "explicit_edges_next_to_fine_tumbling": Case(
        [(ExplicitEdgesWindow([0, 100, 200]), Sum()), (TumblingWindow(10), Sum())],
        _edge_delimited() + [Watermark(210)], WATERMARKS, "commit bf05c31",
        "An edge-list window reaches back to the start of the window still open; eviction "
        "took one tumbling window's length instead.",
        check=_slices_at_most(2),
    ),
    "punctuation_windows_next_to_fine_tumbling": Case(
        [(PunctuationWindow(), Sum()), (TumblingWindow(10), Sum())],
        _edge_delimited(marks=(100,)) + [Punctuation(200), Watermark(210)], WATERMARKS,
        "commit bf05c31", "As with an edge list, to the punctuation that opened the window.",
        check=_slices_at_most(2),
    ),
    "a_session_is_evicted_whole_or_not_at_all": Case(
        [(SessionWindow(16), Sum()), (SlidingWindow(13, 2), Sum())],
        marked(ones(range(100, 161, 3)), range(105, 201, 5)) + ones([400]) + [Watermark(500)],
        WATERMARKS, "commit 0d14e83",
        "The watermark at 180 evicted all of the timed-out session 100 .. 160 but the open "
        "head, which came back as a session of its own: (160, 176) beside (100, 176).",
    ),
    **_out_of_order_too(
        "the_next_session_starts_where_the_tail_slice_ends",
        Case(
            [(SessionWindow(5), Sum()), (TumblingWindow(10), Sum())],
            _HALVED_TAIL + [Watermark(200)], IN_ORDER, "commit 0d14e83",
            "The tail slice [10, 17) ends where the next session starts; a horizon pinned "
            "one before 17 dropped [0, 10) and kept it: (10, 17) beside (0, 17).",
            check=_first_retained_slice_starts_at(17),
        ),
        marked(_HALVED_TAIL, range(10, 45, 10)) + [Watermark(200)],
    ),
    **_out_of_order_too(
        "a_carry_lowers_the_horizon_into_a_session_judged_gone",
        Case(
            [(SlidingWindow(25, 10), Median()), (SessionWindow(3), Sum())],
            _HALVED_CARRY + [Watermark(200)], IN_ORDER, "commit 0d14e83",
            "At 60 the session 20 .. 31 may go whole; the carry of [30, 55), applied after "
            "the sessions were judged, kept its tail: (30, 34) beside (20, 34).",
            check=_first_retained_slice_starts_at(40),
        ),
        marked(_HALVED_CARRY, range(10, 70, 10)) + [Watermark(200)],
    ),
    **_out_of_order_too(
        "a_session_timed_out_in_the_open_head_is_emitted_once",
        Case(
            [(SessionWindow(4), Sum()), (TumblingWindow(20), Sum())],
            ones((1, 2, 34, 36)) + [Watermark(71), Record(71, 1.0), Watermark(200)], IN_ORDER,
            "commit 0d14e83",
            "(34, 40) was emitted out of the open head, which no eviction takes, and "
            "forgotten behind the horizon: it came out again.",
        ),
    ),
    "count_positions_survive_eviction": Case(
        [(LastNEveryWindow(3, 10), Sum())],
        marked([Record(t, float(t)) for t in range(0, 60, 2)], range(10, 61, 10)), WATERMARKS,
        "commit 0d14e83",
        "Trigger edges counted over the retained slices came out short by the evicted "
        "records: four of six windows, (10, 13) -> 66.0 wrong.",
        check=_slices_at_most(3),
    ),
    "a_subclass_that_overrides_lift_folds_with_it_in_bulk": Case(
        [(TumblingWindow(100), Scaled()), (TumblingWindow(100), AbsMax())],
        [Record(t, -float(t % 70)) for t in range(0, 300, 10)], IN_ORDER, "commit c362709",
        "Sum.fold_values / Max.fold_values reduce raw values, which is lift only for Sum / "
        "Max: a subclass lost its own lift on the bulk paths.",
    ),
    "a_lift_that_changes_the_type_folds_with_it_in_bulk": Case(
        [(TumblingWindow(100), FuelSum())], [Record(t, (t, 0.5)) for t in range(0, 300, 10)],
        IN_ORDER, "commit c362709", "As above, with a lift from a pair to a number.",
    ),
    **_out_of_order_too(
        "a_shared_punctuation_window_emits_the_windows_of_every_key",
        Case(
            [(PunctuationWindow(), Sum())], _punctuated(), IN_ORDER, "commit da46615",
            "A keyed factory handing one PunctuationWindow to every key: the second key "
            "found every edge known already and lost its windows.",
        ),
    ),
    "a_key_first_seen_after_a_watermark_drops_a_record_behind_it": Case(
        [(TumblingWindow(100), Sum())],
        [Record(10, 1.0), Watermark(1000), Record(20, 5.0), Record(1010, 2.0), Watermark(1200)],
        WATERMARKS, "commit e50a3d9",
        "A key first seen after a watermark took a record behind it as on time; it now "
        "starts behind the watermark, as an unkeyed operator does.",
        drops=1,
    ),
    "a_key_first_seen_after_a_punctuation_knows_its_edge": Case(
        [(PunctuationWindow(), Sum())],
        [Record(10, 1.0), Record(20, 2.0), Punctuation(55), Record(60, 4.0), Record(70, 8.0)]
        + [Record(80, 16.0), Punctuation(155), Record(160, 32.0), Watermark(1_000)],
        IN_ORDER, "ROADMAP 12(g)",
        "A keyed operator hands a punctuation to the keys it has: the third key, first seen "
        "at 60, never learns the edge at 55 and reports (0, 155) for (55, 155).",
        {"*-keyed-3": "ROADMAP 12(g): a key first seen after a punctuation misses its edge"},
    ),
    "a_carry_seeded_from_one_slice_slides_a_copy_of_its_partial": Case(
        [(SlidingWindow(40, 10), Median())], ones([35, *range(40, 90)]), IN_ORDER,
        "commit e50a3d9",
        "[0, 40) folds to the partial of its one non-empty slice; a carry that slid it in "
        "place edited what the slice still holds.",
    ),
    "an_in_order_record_behind_a_watermark_that_overtook_the_stream_raises": Case(
        [(TumblingWindow(100), Sum())], [Record(10, 1.0), Watermark(1000), Record(20, 5.0)],
        IN_ORDER, "commit 825ee2b",
        "The 5.0 at 20, behind a watermark that emitted [0, 100), reached no window at all; "
        "an in-order operator raises instead.",
        raises=StreamOrderViolation,
    ),
    "a_record_behind_an_overtaking_watermark_is_late": Case(
        [(TumblingWindow(100), Sum())], _OVERTAKEN, {"allowed_lateness": 10_000},
        "commit 9fe9a1c",
        "A record behind an overtaking watermark but behind no record took the in-order "
        "path: [200, 300) was never emitted.",
    ),
    "a_record_behind_an_overtaking_watermark_beyond_the_lateness_is_dropped": Case(
        [(TumblingWindow(100), Sum())], _OVERTAKEN, WATERMARKS, "commit 9fe9a1c",
        "The same record beyond the lateness vanished unreported.",
        drops=1,
    ),
    "a_record_behind_an_overtaking_watermark_is_sliced_at_the_edges_it_passed": Case(
        [(TumblingWindow(100), Sum()), (SlidingWindow(300, 100), Median())]
        + [(CountTumblingWindow(7), Sum()), (SessionWindow(40), Sum())],
        _TENTHS[:20]
        + [Watermark(10_000), Record(195, 2.0), Record(203, 7.0), Record(203, 1.0)]
        + [Record(450, 3.0), Record(10_005, 4.0), Record(320, 5.0), Watermark(20_000)],
        {"allowed_lateness": 100_000}, "commit 9fe9a1c",
        "The open head must not swallow it: [100, ...) is cut at 200, and the count chain "
        "cuts where its in-order position says.",
    ),
    "a_first_record_behind_the_watermark_is_late_too": Case(
        [(TumblingWindow(10), Sum())],
        [Watermark(100), Record(50, 1.0), Record(105, 2.0), Watermark(200)], WATERMARKS,
        "commit 9fe9a1c", "A watermark before any record: the first record behind it is late.",
        drops=1,
    ),
    "a_watermark_on_a_count_edge_does_not_lose_the_cut": Case(
        [(CountTumblingWindow(10), Sum()), (CountSlidingWindow(100, 10), Sum())],
        marked([Record(t, float(t % 7)) for t in range(300)], range(10, 300, 10)), IN_ORDER,
        "commit 76167a6",
        "After an evicting watermark the refreshed edge cache looked one past the count edge "
        "the next record sat on: the head swallowed the next window's records.",
    ),
    **_out_of_order_too(
        "adding_a_query_keeps_the_results_of_the_others",
        Case(
            [(TumblingWindow(100), Sum())], _changed_at_150(AddQuery(TumblingWindow(100), Max())),
            IN_ORDER, "ROADMAP 5",
            "A changed query set gets a fresh chain: [100, 200) reads 5.0 in order, and out "
            "of order [0, 100) is never emitted.  Every baseline reads 10.0.",
            _ROADMAP_5,
        ),
    ),
    "removing_a_query_keeps_the_results_of_the_others": Case(
        [(TumblingWindow(100), Max()), (TumblingWindow(100), Sum())],
        _changed_at_150(RemoveQuery(0)), IN_ORDER, "ROADMAP 5",
        "Removing a query rebuilds the chain too: the Sum reads 5.0.", _ROADMAP_5,
    ),
    "a_late_record_fills_a_last_n_window_empty_at_its_edge": Case(
        [(LastNEveryWindow(count=5, every=25), Sum())],
        [Record(t, float(t)) for t in (526, 529, 531)] + [Watermark(570)]
        + [Record(t, float(t)) for t in (520, 521, 522)] + [Watermark(600)],
        {"allowed_lateness": 100}, "ROADMAP 12(f)",
        "The late 520 fills the window at edge 525, empty when the watermark passed it, and "
        "no update comes; edge 550's updates move its count range (0, 3) -> (1, 6), and an "
        "upserting consumer keeps three ranges no window has.  One late record per key.",
        {"*": "ROADMAP 12(f): a late record's last-n windows are missed or renamed"},
    ),
    "a_late_record_before_an_emptied_count_boundary": Case(
        [(LastNEveryWindow(count=5, every=25), Sum())],
        ones((526, 527, 527, 529, 530)) + [Watermark(570)]
        + ones((527, 520, 520)) + [Watermark(1_000)],
        {"allowed_lateness": 10_000}, "ROADMAP 12(e)",
        "The late 520 shifts the one record out of the slice that ends at edge 550's count "
        "boundary; the second 520 finds it empty: ValueError in SliceManager._count_cascade.",
        {"*": "ROADMAP 12(e): an emptied count-ended slice has nothing to hand on"},
    ),
}
