"""The operator's write into the open head: one frame per in-order record.

An in-order record below the slicer's guard enters the chain's open head
inside ``GeneralSlicingOperator.process_record``, through the chain's
bound ``accumulate``s, instead of through ``Slice.add_inorder``.  These
tests pin that the write is the one ``Slice.add_inorder`` makes -- the
partials, the record list, the count and the first / last timestamps --
record by record, over random query sets in and out of order; that it
is the only call on that path; and that the bound methods never reach a
frame.
"""

from __future__ import annotations

import pickle
import random

import pytest

from conftest import CountingSum, run_operator
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Average, CollectList, Max, Median, Min, Sum
from repro.core.slice_ import Slice
from repro.windows import (
    CountSlidingWindow,
    CountTumblingWindow,
    LastNEveryWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

WINDOWS = (
    lambda rng: TumblingWindow(rng.choice((50, 100, 250))),
    lambda rng: SlidingWindow(rng.choice((100, 200)), rng.choice((25, 50))),
    lambda rng: SessionWindow(rng.choice((30, 80))),
    lambda rng: CountTumblingWindow(rng.choice((3, 7))),
    lambda rng: CountSlidingWindow(6, rng.choice((2, 3))),
    lambda rng: LastNEveryWindow(rng.choice((3, 5)), rng.choice((40, 100))),
)
FUNCTIONS = (Sum, Max, Min, Average, Median, CollectList)


def _draw_operator(rng: random.Random, in_order: bool) -> GeneralSlicingOperator:
    operator = GeneralSlicingOperator(
        stream_in_order=in_order, eager=rng.random() < 0.5, allowed_lateness=10_000
    )
    for _ in range(rng.randint(1, 4)):
        operator.add_query(rng.choice(WINDOWS)(rng), rng.choice(FUNCTIONS)())
    return operator


def _draw_stream(rng: random.Random, n: int) -> list:
    """Non-decreasing timestamps with ties and idle gaps, a watermark
    behind the newest record now and then (out-of-order operators only)."""
    stream, ts = [], 0
    for _ in range(n):
        ts += rng.choice((0, 1, 3, 7, 7, 20, 150))
        stream.append(Record(ts, float(rng.randrange(-50, 50))))
        if rng.random() < 0.05:
            stream.append(Watermark(max(0, ts - rng.randrange(200))))
    return stream


def _fields(slice_: Slice) -> tuple:
    return (slice_.aggs, slice_.records, slice_.record_count, slice_.first_ts, slice_.last_ts)


@pytest.mark.parametrize("in_order", [True, False], ids=["in_order", "out_of_order"])
@pytest.mark.parametrize("seed", range(12))
def test_the_operator_writes_the_head_as_slice_add_inorder_would(seed, in_order):
    rng = random.Random(seed)
    operator = _draw_operator(rng, in_order)
    stream = _draw_stream(rng, 400)
    if in_order:
        stream = [element for element in stream if isinstance(element, Record)]
    # Per head slice, the same records folded by Slice.add_inorder.
    shadows: dict = {}
    for element in stream:
        operator.process(element)
        operator.check_invariants()
        if not isinstance(element, Record):
            continue
        for chain in operator._chain_list:
            head = chain.store.slices[-1]
            shadow = shadows.get(head)
            if shadow is None:
                # A head first seen now was opened for this record.
                shadow = shadows[head] = Slice(
                    head.start, None, len(chain.functions), head.records is not None
                )
            shadow.add_inorder(element, chain.functions)
            assert _fields(head) == _fields(shadow), (seed, element.ts, head)


def test_an_in_order_record_costs_one_accumulate_and_no_slice_call(monkeypatch):
    calls = []
    monkeypatch.setattr(Slice, "add_inorder", lambda *args: calls.append(args))
    operator = GeneralSlicingOperator(stream_in_order=True)
    for length in (100, 250, 1_000):
        operator.add_query(TumblingWindow(length), CountingSum())
    CountingSum.calls = 0
    results = run_operator(operator, [Record(ts, 1.0) for ts in range(0, 5_000, 5)])

    assert calls == []
    # Three queries share one partial: one accumulate per record.
    assert CountingSum.calls == 1_000
    assert {(r.start, r.end): r.value for r in results if r.end == 1_000} == {
        (0, 1_000): 200.0,
        (750, 1_000): 50.0,
        (900, 1_000): 20.0,
    }


def test_a_record_behind_an_overtaking_watermark_is_written_by_the_operator(monkeypatch):
    writes = []
    for name in ("add_inorder", "add_out_of_order"):
        monkeypatch.setattr(Slice, name, lambda *args, name=name: writes.append(name))
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=20)
    operator.add_query(TumblingWindow(100), CountingSum())
    CountingSum.calls = 0
    results = run_operator(
        operator, [Record(10, 1.0), Watermark(50), Record(40, 2.0), Watermark(200)]
    )
    # Behind the watermark but behind no record: sliced as in order and
    # written, like every late record, in the operator's frame.
    assert writes == [] and CountingSum.calls == 2
    assert [(r.start, r.end, r.value) for r in results] == [(0, 100, 3.0)]


def test_the_bound_accumulates_are_derived_and_never_pickled():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(SlidingWindow(200, 50), Sum())
    operator.add_query(TumblingWindow(100), Median())
    stream = [Record(ts, float(ts % 13)) for ts in range(0, 2_000, 3)]
    run_operator(operator, stream[:300])

    frame = pickle.dumps(operator)
    assert b"accumulators" not in frame
    restored = pickle.loads(frame)
    (chain,) = restored._chain_list
    assert [index for index, _ in chain.accumulators] == [0, 1]
    for (index, accumulate), function in zip(chain.accumulators, chain.functions):
        assert accumulate.__self__ is function
    assert run_operator(restored, stream[300:]) == run_operator(operator, stream[300:])
