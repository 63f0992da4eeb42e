"""Every row of ``tests/regressions.py`` on every path that applies to it.

A path is a store, lazy or eager, and a driver: ``process``, also with
shared windows off (``process-unshared``); ``batch-1`` / ``-7`` /
``-1024``, ``process_batch`` in chunks; ``restore``, ``process`` with a
snapshot restored at three cuts seeded by the row's name; ``keyed-1`` /
``keyed-3``, a :class:`KeyedWindowOperator` over the records re-keyed to
one key or to three in turn; ``supervised``, a :class:`SupervisedPipeline`
over a :class:`FaultInjectingOperator` that crashes once, at a seeded
record.  Keyed and supervised drivers skip a row that changes its query
set.  Every path ends with ``flush()``.  Its final results must equal
:mod:`repro.reference` (per key on the keyed paths), or the row's own
``process`` run outside the oracle's domain; no window may come twice
unless as an update; ``check_invariants()`` must hold after every element
or batch.  Test IDs read ``<row>-<store>-<driver>``.
"""

from __future__ import annotations

import copy
import fnmatch
import random

import pytest

from repro import GeneralSlicingOperator, Record, Watermark
from repro.core.types import Punctuation
from repro.reference import reference_results
from repro.runtime import (
    CollectSink,
    FaultInjectingOperator,
    KeyedWindowOperator,
    SupervisedPipeline,
    restore,
    snapshot,
)
from repro.runtime.recovery import PipelineFailed
from repro.windows import SessionWindow, SlidingWindow, TumblingWindow
from repro.windows.multimeasure import LastNEveryWindow

from regressions import REGRESSIONS, AddQuery, RemoveQuery

MARKERS = (AddQuery, RemoveQuery)


def _feed(operator, stream, size=None, cuts=()):
    """``stream`` one element at a time, or in chunks of ``size``, with a
    snapshot restored before each position of ``cuts``; then ``flush()``."""
    results, chunk = [], []
    for position, element in enumerate(list(stream) + [None]):
        if chunk and (element is None or isinstance(element, MARKERS) or len(chunk) == size):
            results += operator.process_batch(chunk)
            operator.check_invariants()
            chunk = []
        if position in cuts:
            operator = restore(snapshot(operator))
        if isinstance(element, AddQuery):
            operator.add_query(copy.deepcopy(element.window), copy.deepcopy(element.function))
        elif isinstance(element, RemoveQuery):
            operator.remove_query(element.query_id)
        elif element is not None and size is None:
            results += operator.process(element)
            operator.check_invariants()
        elif element is not None:
            chunk.append(element)
    return results + operator.flush(), operator


def _restore(make, stream, name):
    cuts = random.Random(f"{name}:restore").sample(range(1, len(stream)), min(3, len(stream) - 1))
    return _feed(make(), stream, cuts=set(cuts))


def _supervised(make, stream, name):
    records = sum(1 for element in stream if isinstance(element, Record))
    crash = random.Random(f"{name}:supervised").randrange(records)
    wrapper, sink = FaultInjectingOperator(make(), crash_at=[crash]), CollectSink()
    pipeline = SupervisedPipeline(wrapper, sink, batch_size=7, checkpoint_every=records // 3 + 1)
    try:
        pipeline.run(stream)
    except PipelineFailed as exc:
        raise exc.failures[-1] from exc  # what the operator raised, restart after restart
    assert wrapper.fired == {crash}
    wrapper.check_invariants()
    return sink.results + wrapper.flush(), wrapper


DRIVERS = {
    "process": lambda make, stream, name: _feed(make(), stream),
    "batch-1": lambda make, stream, name: _feed(make(), stream, 1),
    "batch-7": lambda make, stream, name: _feed(make(), stream, 7),
    "batch-1024": lambda make, stream, name: _feed(make(), stream, 1024),
    "restore": _restore,
    # The test re-keys the stream to one key or to three before these two.
    "keyed-1": lambda make, stream, name: _feed(KeyedWindowOperator(make), stream, 7),
    "keyed-3": lambda make, stream, name: _feed(KeyedWindowOperator(make), stream, 7),
    "supervised": _supervised,
}


def _queries_over(case, stream):
    """Every query ``stream`` registers, where it is registered, and the
    ids of those it removes."""
    queries, starts, removed = list(case.queries), [0] * len(case.queries), set()
    for position, element in enumerate(stream):
        if isinstance(element, AddQuery):
            queries.append((element.window, element.function))
            starts.append(position)
        elif isinstance(element, RemoveQuery):
            removed.add(element.query_id)
    return queries, starts, removed


def _final(results, queries, removed, key=None) -> dict:
    """The last value of every window, asserting that none comes twice
    unless as an update.  A session replaces those it overlaps (a late
    record can extend or bridge them); a last-n window is named by its
    count range, which repeats at every edge no record passed."""
    final, emitted = {}, set()
    for result in results:
        if result.query_id in removed:
            continue
        window_type = type(queries[result.query_id][0])
        window = (result.key if key is None else key, result.query_id, result.start, result.end)
        repeats = result.is_update or issubclass(window_type, LastNEveryWindow)
        assert repeats or window not in emitted, f"{window} emitted twice"
        emitted.add(window)
        if issubclass(window_type, SessionWindow):
            overlapped = [o for o in final if o[:2] == window[:2] and result.start < o[3]]
            for other in [o for o in overlapped if o[2] < result.end]:
                del final[other]
        final[window] = result.value
    return final


def _expected(case, stream, key=None):
    """``(final results, late drops)`` of ``stream``, or the type of the
    exception it raises."""
    queries, starts, removed = _queries_over(case, stream)
    if case.drops or case.raises is not None:
        operator = GeneralSlicingOperator(**case.options)
        for window, function in copy.deepcopy(case.queries):
            operator.add_query(window, function)
        try:
            results, operator = _feed(operator, stream)
        except Exception as exc:  # noqa: BLE001 - the row's own outcome
            return type(exc)
        return _final(results, queries, removed, key), operator.dropped_late_records
    elements = [e for e in stream if not isinstance(e, MARKERS)]
    newest = max(e.ts for e in elements if isinstance(e, Record))
    flushed = max(window.flush_horizon(newest) for window, _ in queries)
    horizon = max(newest, flushed) + case.options.get("allowed_lateness", 0) + 1
    horizon = max([horizon] + [e.ts for e in elements if isinstance(e, Watermark)])
    expected = {}
    for qid, (query, start) in enumerate(zip(queries, starts)):
        if qid in removed:
            continue
        # No tumbling or sliding window past its flush horizon holds a
        # record: stop there, or a large lateness costs millions of empty ones.
        reach = horizon
        if isinstance(query[0], (TumblingWindow, SlidingWindow)):
            reach = min(horizon, query[0].flush_horizon(newest))
        seen = [e for e in stream[start:] if not isinstance(e, MARKERS)]
        for (_, lo, hi), value in reference_results([query], seen, horizon=reach).items():
            expected[(key, qid, lo, hi)] = value
    return expected, 0


def _per_key(case, stream, keys: int):
    """The records re-keyed to ``keys`` keys in turn, and what a keyed
    operator must produce: each key's operator sees its records, every
    punctuation, and every watermark from its first record on (out of
    order, also the highest one before it)."""
    records = [e for e in stream if isinstance(e, Record)]
    keyed = {id(r): Record(r.ts, r.value, f"k{i % keys}") for i, r in enumerate(records)}
    stream = [keyed.get(id(e), e) for e in stream]
    in_order = case.options.get("stream_in_order", False)
    final, drops = {}, 0
    for key in [f"k{i}" for i in range(min(keys, len(records)))]:
        first = next(i for i, e in enumerate(stream) if isinstance(e, Record) and e.key == key)
        substream = [
            e
            for i, e in enumerate(stream)
            if (e.key == key if isinstance(e, Record) else i > first or not in_order)
            or isinstance(e, Punctuation)
        ]
        outcome = _expected(case, substream, key)
        if isinstance(outcome, type):
            return stream, outcome
        final.update(outcome[0])
        drops += outcome[1]
    return stream, (final, drops)


def _params():
    for name, case in REGRESSIONS.items():
        changes_queries = any(isinstance(e, MARKERS) for e in case.stream)
        drivers = [d for d in DRIVERS if not (changes_queries and d.startswith(("keyed", "super")))]
        paths = [(driver, True) for driver in drivers]
        paths += [] if "share_windows" in case.options else [("process", False)]
        for eager in [case.options["eager"]] if "eager" in case.options else [False, True]:
            for driver, share in paths:
                path = f"{'eager' if eager else 'lazy'}-{driver}{'' if share else '-unshared'}"
                marks = [
                    pytest.mark.xfail(strict=True, reason=reason)
                    for pattern, reason in case.xfail.items()
                    if fnmatch.fnmatchcase(path, pattern)
                ][:1]
                yield pytest.param(name, eager, share, driver, id=f"{name}-{path}", marks=marks)


@pytest.mark.parametrize("name, eager, share, driver", _params())
def test_regression(name, eager, share, driver):
    case = REGRESSIONS[name]
    stream = list(case.stream)
    if driver.startswith("keyed"):
        stream, expected = _per_key(case, stream, int(driver[-1]))
    else:
        expected = _expected(case, stream)
        # The row's own process run has the outcome the row declares.
        assert expected is case.raises if case.raises else expected[1] == case.drops
    # One set of query objects for every operator of a path, as a keyed
    # factory written by hand would share them.
    queries = copy.deepcopy(case.queries)

    def make():
        shared = share and case.options.get("share_windows", True)
        operator = GeneralSlicingOperator(**dict(case.options, eager=eager, share_windows=shared))
        for window, function in queries:
            operator.add_query(window, function)
        return operator

    if isinstance(expected, type):
        with pytest.raises(expected):
            DRIVERS[driver](make, stream, name)
        return
    results, operator = DRIVERS[driver](make, stream, name)
    queries_over, _, removed = _queries_over(case, stream)
    assert _final(results, queries_over, removed) == expected[0]
    assert operator.dropped_late_records == expected[1]
    if case.check is not None and driver == "process" and share:
        case.check(operator)
