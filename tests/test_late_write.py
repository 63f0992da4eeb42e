"""The operator's write of a late record: one write per record.

Every late record is written inside
``GeneralSlicingOperator._process_out_of_order``, through the chain's
bound ``accumulate``s, with non-commutative partials refolded from the
slice's records.  The slice manager only places the record (gap slices,
session splits, count ties) and settles the chain after the write
(session merges, the count cascade); the window manager is asked only
when the record lands behind its watermark.  These tests pin that the
write is the one ``Slice.add_out_of_order`` makes -- the partials, the
record list, the count and the first / last timestamps -- record by
record, over random out-of-order operators; that final results equal the
reference; that no late record reaches a ``Slice`` write method, on any
chain; that the slice manager is asked only where structure is needed;
that the session walk survives a late record ahead of the watermark;
and that what the path reads is derived, never pickled.
"""

from __future__ import annotations

import pickle
import random

import pytest

from conftest import CountingSum, final_values, run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Average, CollectList, Max, Median, Min, Sum
from repro.core.slice_ import Slice
from repro.core.slice_manager import SliceManager
from repro.core.types import Punctuation
from repro.core.window_manager import WindowManager
from repro.reference import reference_results
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

WINDOWS = (
    lambda rng: TumblingWindow(rng.choice((50, 100, 250))),
    lambda rng: SlidingWindow(rng.choice((100, 200)), rng.choice((25, 50))),
    lambda rng: PunctuationWindow(),
)
FUNCTIONS = (Sum, Max, Min, Average, Median, CollectList)
#: Wide keeps every record; tight drops some behind the watermarks.
LATENESS = {"wide": 100_000, "tight": 40}


def _draw_operator(rng: random.Random, lateness: int):
    operator = GeneralSlicingOperator(
        stream_in_order=False, eager=rng.random() < 0.5, allowed_lateness=lateness
    )
    queries = []
    for _ in range(rng.randint(1, 4)):
        query = (rng.choice(WINDOWS)(rng), rng.choice(FUNCTIONS)())
        operator.add_query(*query)
        queries.append(query)
    return operator, queries


def _draw_stream(rng: random.Random, n: int) -> list:
    """Records at non-decreasing event times, a third of them delayed in
    arrival; now and then a watermark trailing the arrivals and a
    punctuation ahead of everything so far (never a late one)."""
    arrivals, ts = [], 0
    for position in range(n):
        ts += rng.choice((0, 1, 3, 7, 7, 20, 90))
        delay = rng.randrange(1, 120) if rng.random() < 0.3 else 0
        arrivals.append((ts + delay, position, Record(ts, float(rng.randrange(-50, 50)))))
    arrivals.sort()
    elements, frontier = [], 0
    for arrival, _, record in arrivals:
        if rng.random() < 0.03:
            elements.append(Punctuation(frontier + rng.randrange(1, 60)))
        elements.append(record)
        frontier = max(frontier, record.ts)
        if rng.random() < 0.1:
            mark = arrival - rng.randrange(60)
            elements.append(Watermark(mark))
            frontier = max(frontier, mark)
    return elements


def _copy(slice_: Slice) -> Slice:
    """A detached slice holding what ``slice_`` holds now."""
    shadow = Slice(slice_.start, slice_.end, len(slice_.aggs), slice_.records is not None)
    shadow.aggs = list(slice_.aggs)
    if slice_.records is not None:
        shadow.records = list(slice_.records)
    shadow.record_count = slice_.record_count
    shadow.first_ts, shadow.last_ts = slice_.first_ts, slice_.last_ts
    return shadow


def _fields(slice_: Slice) -> tuple:
    return (slice_.aggs, slice_.records, slice_.record_count, slice_.first_ts, slice_.last_ts)


def _target(chain, ts: int):
    """The slice a late record at ``ts`` is written into, or ``None`` for
    a gap or the front of the open head (the slice manager's cases)."""
    index = chain.store.find_index(ts)
    if index is None:
        return None
    slice_ = chain.store.slices[index]
    if slice_.end is None and (slice_.last_ts is None or ts >= slice_.last_ts):
        return None
    return slice_


@pytest.mark.parametrize("lateness", sorted(LATENESS))
@pytest.mark.parametrize("seed", range(12))
def test_the_operator_writes_a_late_record_as_slice_add_out_of_order_would(seed, lateness):
    rng = random.Random(seed)
    operator, queries = _draw_operator(rng, LATENESS[lateness])
    dropped: list = []
    operator.on_late_record = dropped.append
    stream = _draw_stream(rng, 400)
    horizon = max(e.ts for e in stream if isinstance(e, Record)) + 300
    stream.append(Watermark(horizon))
    (chain,) = operator._chain_list

    final: dict = {}
    frontier = None
    late = 0
    for element in stream:
        shadow = target = None
        if isinstance(element, Record) and frontier is not None and element.ts < frontier:
            target = _target(chain, element.ts)
            if target is not None:
                shadow = _copy(target)
        for result in operator.process(element):
            final[(result.query_id, result.start, result.end)] = result.value
        operator.check_invariants()
        if target is not None:
            if not (dropped and dropped[-1] is element):
                shadow.add_out_of_order(element, chain.functions)
                late += 1
            assert _fields(target) == _fields(shadow), (seed, element.ts, target)
        if not isinstance(element, Punctuation):
            frontier = element.ts if frontier is None else max(frontier, element.ts)

    assert late > 50
    assert bool(dropped) is (lateness == "tight")
    kept = {id(record) for record in dropped}
    expected = reference_results(
        queries, [e for e in stream if id(e) not in kept], horizon=horizon
    )
    assert final == expected


def test_a_late_record_costs_one_accumulate_and_no_slice_manager_call(monkeypatch):
    calls = []
    monkeypatch.setattr(SliceManager, "add_out_of_order", lambda *args: calls.append(args))
    monkeypatch.setattr(Slice, "add_out_of_order", lambda *args: calls.append(args))
    asked = []
    original = WindowManager.on_modification

    def spy(self, ts, count_position=None):
        asked.append(ts)
        return original(self, ts, count_position)

    monkeypatch.setattr(WindowManager, "on_modification", spy)
    operator = GeneralSlicingOperator(stream_in_order=False, eager=True, allowed_lateness=1_000)
    for length in (100, 250, 1_000):
        operator.add_query(TumblingWindow(length), CountingSum())
    # Every fourth record arrives 40 late; a watermark trailing by 20
    # arrives with each in-order record at a multiple of 500.
    arrivals = sorted((ts + 40 if ts % 20 == 15 else ts, ts) for ts in range(0, 5_000, 5))
    stream = []
    for arrival, ts in arrivals:
        if arrival == ts and ts % 500 == 0 and ts:
            stream.append(Watermark(ts - 20))
        stream.append(Record(ts, 1.0))
    stream.append(Watermark(5_000))
    CountingSum.calls = 0
    final = final_values(operator, stream)

    assert calls == []
    # Three queries share one partial: one accumulate per record.
    assert CountingSum.calls == 1_000
    # Asked only for the late records behind the watermark: of those a
    # mark overtakes, the one below the mark itself.
    assert asked == list(range(475, 4_500, 500))
    assert final[(0, 900, 1_000)] == 20.0
    assert final[(1, 750, 1_000)] == 50.0
    assert final[(2, 0, 1_000)] == 200.0


def test_a_late_record_behind_the_watermark_re_emits_its_windows():
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=100)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(SlidingWindow(20, 10), Max())
    emitted = run_operator(
        operator, [Record(1, 1.0), Record(12, 4.0), Record(25, 2.0), Watermark(20)]
    )
    assert {(r.query_id, r.start, r.end): r.value for r in emitted} == {
        (0, 0, 10): 1.0,
        (0, 10, 20): 4.0,
        (1, 0, 20): 4.0,
    }
    updates = operator.process(Record(5, 7.0))
    assert [(r.query_id, r.start, r.end, r.value, r.is_update) for r in updates] == [
        (0, 0, 10, 8.0, True),
        (1, 0, 20, 7.0, True),
    ]
    # Ahead of the watermark: nothing emitted can hold it.
    assert operator.process(Record(21, 9.0)) == []


@pytest.fixture
def routed(monkeypatch) -> list:
    """The timestamps of the records that reach ``SliceManager.add_out_of_order``."""
    seen: list = []
    original = SliceManager.add_out_of_order

    def spy(self, record):
        seen.append(record.ts)
        return original(self, record)

    monkeypatch.setattr(SliceManager, "add_out_of_order", spy)
    return seen


def _ooo_operator(*queries) -> GeneralSlicingOperator:
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=1_000)
    for window, function in queries:
        operator.add_query(window, function)
    return operator


@pytest.mark.parametrize(
    "queries, stream, placed",
    [
        pytest.param(
            [(TumblingWindow(10), CountingSum())],
            [Record(0, 1.0), Record(50, 1.0), Record(25, 1.0)],
            True,
            id="gap_slice",
        ),
        pytest.param(
            [(SessionWindow(5), CountingSum())],
            [Record(0, 1.0), Record(3, 1.0), Record(20, 1.0), Record(1, 1.0)],
            True,
            id="session",
        ),
        pytest.param(
            [(CountTumblingWindow(3), CountingSum())],
            [Record(0, 1.0), Record(5, 1.0), Record(9, 1.0), Record(2, 1.0)],
            True,
            id="count",
        ),
        pytest.param(
            [(LastNEveryWindow(3, 100), CountingSum())],
            [Record(0, 1.0), Record(5, 1.0), Record(9, 1.0), Record(2, 1.0)],
            True,
            id="last_n",
        ),
        pytest.param(
            [(TumblingWindow(10), CountingSum()), (TumblingWindow(10), CollectList())],
            [Record(0, 1.0), Record(5, 1.0), Record(9, 1.0), Record(2, 1.0)],
            False,
            id="non_commutative",
        ),
        pytest.param(
            [(TumblingWindow(100), CountingSum()), (SessionWindow(5), CountingSum())],
            [Record(10, 1.0), Watermark(50), Record(40, 1.0)],
            False,
            id="overtaken_head",
        ),
    ],
)
def test_no_late_record_is_written_outside_the_operator(
    monkeypatch, routed, queries, stream, placed
):
    writes = []
    for name in ("add_out_of_order", "add_inorder"):
        monkeypatch.setattr(Slice, name, lambda *args, name=name: writes.append(name))
    operator = _ooo_operator(*queries)
    CountingSum.calls = 0
    final = final_values(operator, stream + [Watermark(200)])
    operator.check_invariants()

    assert writes == []
    # One chain, one shared CountingSum partial: one accumulate per record.
    assert CountingSum.calls == sum(isinstance(e, Record) for e in stream)
    # The slice manager places only what needs structure; a late record
    # inside a slice, or behind no record of the open head, it never sees.
    assert routed == ([stream[-1].ts] if placed else [])
    assert final == reference_results(queries, stream, horizon=200)


def test_a_time_chain_writes_late_beside_a_count_chain_that_does_not(routed):
    operator = _ooo_operator((TumblingWindow(10), Sum()), (CountTumblingWindow(2), Sum()))
    stream = [Record(0, 1.0), Record(5, 2.0), Record(12, 4.0), Record(3, 8.0), Watermark(30)]
    final = final_values(operator, stream)
    # The count chain's placement; the time chain placed the record itself.
    assert routed == [3]
    assert final == reference_results(
        [(TumblingWindow(10), Sum()), (CountTumblingWindow(2), Sum())], stream, horizon=30
    )


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
def test_a_late_record_ahead_of_the_watermark_keeps_the_session_walk(eager):
    """Bursts of four records 10 apart: gaps of 7 part the sessions of
    gap 5, and all of them make one session of gap 20, so eviction pins
    the chain and its walk (``WindowManager.pin_horizon``) stands inside
    that session, past its first slices.  A late record ahead of the
    watermark bridges two gap-5 sessions beyond the walk: the slices it
    merges were not walked, so the walk stays, and the next watermark's
    eviction resumes it."""
    queries = [(SessionWindow(5), Sum()), (SessionWindow(20), Max())]
    operator = GeneralSlicingOperator(stream_in_order=False, eager=eager, allowed_lateness=0)
    for window, function in queries:
        operator.add_query(window, function)
    bursts = [Record(ts, float(ts)) for start in range(0, 200, 10) for ts in range(start, start + 4)]
    head = bursts + [Watermark(150)]
    final = final_values(operator, head)
    (chain,) = operator._chain_list
    walk = chain.window_manager._session_walk
    assert walk[0] > 0 and walk[1] == 0
    slices = len(chain.store.slices)

    late = Record(166, 7.0)  # 3 after the burst at 160, 4 before the one at 170
    final.update(final_values(operator, [late]))
    assert len(chain.store.slices) == slices - 1  # the two sessions merged
    assert chain.window_manager._session_walk == walk
    operator.check_invariants()

    tail = [Watermark(180), Watermark(400)]
    final.update(final_values(operator, tail))
    operator.check_invariants()
    assert final == reference_results(queries, head + [late] + tail, horizon=400)
    assert (0, 160, 178) in final


#: Query sets with, per chain, whether it is structured and which of its
#: functions (by partial index) refold.
FLAG_CASES = [
    ([(SlidingWindow(200, 50), Sum()), (TumblingWindow(100), Median())], [False], [()]),
    (
        [
            (SessionWindow(40), Sum()),
            (TumblingWindow(100), CollectList()),
            (CountTumblingWindow(5), Max()),
        ],
        [True, True],
        [((1, CollectList),), ()],
    ),
]


def test_the_structured_and_refolds_flags_are_derived_and_never_pickled():
    rng = random.Random(7)
    stream = [
        Record(ts - (rng.randrange(80) if rng.random() < 0.3 else 0), float(ts % 13))
        for ts in range(100, 3_000, 3)
    ]
    for queries, structured, refolds in FLAG_CASES:
        operator = GeneralSlicingOperator(stream_in_order=False, eager=True, allowed_lateness=500)
        for window, function in queries:
            operator.add_query(window, function)
        run_operator(operator, stream[:400])

        frame = pickle.dumps(operator)
        for name in (b"structured", b"refolds", b"accumulators", b"late_write"):
            assert name not in frame
        restored = pickle.loads(frame)
        chains = restored._chain_list
        assert [chain.structured for chain in chains] == structured
        assert [
            tuple((index, type(function)) for index, function in chain.refolds)
            for chain in chains
        ] == refolds
        for chain in chains:
            for (index, accumulate), function in zip(chain.accumulators, chain.functions):
                assert accumulate.__self__ is function
            for index, function in chain.refolds:
                assert chain.functions[index] is function
        tail = stream[400:] + [Watermark(3_500)]
        assert run_operator(restored, tail) == run_operator(operator, tail)


def test_a_record_behind_an_overtaking_watermark_moves_the_session_edge():
    """Written into the open head, the record is the newest one: the
    session edge the slicer cuts at moves with it, or the next session
    would share its slice and be taken for the same one."""
    operator = _ooo_operator((SessionWindow(5), Sum()))
    stream = [Record(0, 1.0), Record(1, 1.0), Watermark(50), Record(40, 2.0), Record(41, 2.0)]
    results = run_operator(operator, stream + [Record(60, 4.0), Watermark(200)])
    operator.check_invariants()
    # Behind the watermark, each record emits its session as it grows.
    assert [(r.start, r.end, r.value, r.is_update) for r in results] == [
        (0, 6, 2.0, False),
        (40, 45, 2.0, False),
        (40, 46, 4.0, True),
        (60, 65, 4.0, False),
    ]
