"""Property-based differential fuzzing against the brute-force oracle.

Each case draws a random stream (rate, event-time ties, idle gaps,
disorder, key cardinality) and a random window set (tumbling / sliding /
session, time- and count-measure) from a seeded RNG, runs it through
every technique whose capability set covers the draw, and requires the
final results to be bit-identical to :mod:`repro.reference`.

One axis runs the slicing operators with eviction on: a drawn allowed
lateness (none, a few slides, unbounded) and a watermark every few
records, delays bounded by the lateness so that nothing is dropped and
the reference still applies.

Reproducibility: the base seed comes from ``REPRO_FUZZ_SEED`` (default
pinned), and each parametrized case derives its own child seed, so a CI
failure names the exact case.  On a mismatch the failing stream is
greedily shrunk (drop one arrival at a time while the disagreement
persists) and the minimal reproducing case is printed as a ``Case(...)``
literal that pastes straight into ``tests/regressions.py``'s
``REGRESSIONS``, where every path replays it (``tests/test_regressions.py``).
"""

from __future__ import annotations

import os
import pickle
import random
from typing import Callable, List, Sequence, Tuple

import pytest

from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Average, Max, Median, Min, Percentile, Sum
from repro.baselines import (
    AggregateBucketsOperator,
    AggregateTreeOperator,
    CuttyOperator,
    PairsOperator,
    TupleBucketsOperator,
    TupleBufferOperator,
)
from repro.reference import reference_results
from repro.runtime.keyed import KeyedWindowOperator
from repro.windows import SessionWindow, SlidingWindow, TumblingWindow
from repro.windows.count import CountSlidingWindow, CountTumblingWindow

pytestmark = pytest.mark.fuzz

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20190326"))

# Lateness bound handed to out-of-order operators: effectively "never
# drop anything", so the reference (which sees the full stream) applies.
LATENESS = 10_000_000


def _horizon(arrival: Sequence[object]) -> int:
    """A flushing watermark just past every window the stream can close.

    Tight on purpose: the brute-force reference enumerates every trigger
    window up to the horizon, so a fixed huge horizon would turn each
    differential check into millions of empty windows.
    """
    return max(element.ts for element in arrival if isinstance(element, Record)) + 1_000

#: Iteration multiplier for long fuzz campaigns (the ``fuzz-long`` CI
#: job runs with ``REPRO_FUZZ_SCALE=10``); 1 keeps PR runs fast.
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))

INORDER_CASES = 12 * FUZZ_SCALE
OOO_CASES = 8 * FUZZ_SCALE
KEYED_CASES = 6 * FUZZ_SCALE
HOLISTIC_CASES = 6 * FUZZ_SCALE
EVICTION_CASES = 12 * FUZZ_SCALE

#: Every this many stream elements the state objects that can check
#: their own structure (the aggregate stores) and the slicing operator
#: (the same stores plus the slicer's guard, on a pickled copy, and the
#: window managers' carries, on the live one) do so.
INVARIANT_EVERY = 5

# A query draw is a (window factory, aggregation factory) pair: window
# and aggregation objects hold per-operator state, so every operator
# gets fresh instances.
QueryDraw = Tuple[Callable[[], object], Callable[[], object], str]


def _child_seed(kind: str, index: int) -> int:
    return random.Random(f"{BASE_SEED}:{kind}:{index}").randrange(2**63)


# ----------------------------------------------------------------------
# random draws


def _draw_stream(
    rng: random.Random, *, key_cardinality: int = 0, fractional: bool = False
) -> List[Record]:
    """A stream with random rate, ties, and occasional idle gaps.

    Values are integer-valued floats, or with ``fractional`` tenths
    (non-integer, still repeating often enough to share RLE runs).
    """
    length = rng.randint(20, 220)
    max_step = rng.choice([1, 2, 4, 8])  # 0-step draws create ts ties
    gap_chance = rng.random() * 0.08
    ts = rng.randint(0, 40)
    stream = []
    for _ in range(length):
        if rng.random() < gap_chance:
            ts += rng.randint(60, 400)  # idle period: empty windows, session breaks
        else:
            ts += rng.randint(0, max_step)
        key = f"k{rng.randrange(key_cardinality)}" if key_cardinality else None
        value = rng.randint(-200, 200) / 10 if fractional else float(rng.randint(-20, 20))
        stream.append(Record(ts, value, key=key))
    return stream


def _draw_disorder(rng: random.Random, stream: List[Record]) -> List[Record]:
    """Delay a random fraction of records by a random bound."""
    fraction = 0.1 + rng.random() * 0.4
    max_delay = rng.choice([10, 40, 120])
    indexed = []
    for position, record in enumerate(stream):
        delay = rng.randint(1, max_delay) if rng.random() < fraction else 0
        indexed.append((position + delay * len(stream), position, record))
    indexed.sort()
    return [record for _, _, record in indexed]


def _algebraic(rng: random.Random) -> Tuple[Callable[[], object], str]:
    cls = rng.choice([Sum, Min, Max, Average])
    return cls, cls.__name__


def _draw_queries(
    rng: random.Random, *, kinds: Sequence[str]
) -> Tuple[List[QueryDraw], bool, bool]:
    """1-3 random queries; returns (draws, any_session, any_count)."""
    draws: List[QueryDraw] = []
    any_session = any_count = False
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(list(kinds))
        agg, agg_name = _algebraic(rng)
        if kind == "tumbling":
            length = rng.randint(5, 60)
            label = f"(TumblingWindow({length}), {agg_name}())"
            draws.append((lambda l=length: TumblingWindow(l), agg, label))
        elif kind == "sliding":
            length = rng.randint(6, 60)
            slide = rng.randint(2, length)
            label = f"(SlidingWindow({length}, {slide}), {agg_name}())"
            draws.append((lambda l=length, s=slide: SlidingWindow(l, s), agg, label))
        elif kind == "session":
            gap = rng.randint(3, 30)
            label = f"(SessionWindow({gap}), {agg_name}())"
            draws.append((lambda g=gap: SessionWindow(g), agg, label))
            any_session = True
        elif kind == "count_tumbling":
            length = rng.randint(3, 25)
            label = f"(CountTumblingWindow({length}), {agg_name}())"
            draws.append((lambda l=length: CountTumblingWindow(l), agg, label))
            any_count = True
        else:  # count_sliding
            length = rng.randint(4, 25)
            slide = rng.randint(2, length)
            label = f"(CountSlidingWindow({length}, {slide}), {agg_name}())"
            draws.append((lambda l=length, s=slide: CountSlidingWindow(l, s), agg, label))
            any_count = True
    return draws, any_session, any_count


# ----------------------------------------------------------------------
# technique matrices, bounded by capability (Table 2)


def _inorder_operators(*, periodic_only_ok: bool):
    operators = [
        ("lazy", lambda: GeneralSlicingOperator(stream_in_order=True)),
        ("eager", lambda: GeneralSlicingOperator(stream_in_order=True, eager=True)),
        ("buffer", lambda: TupleBufferOperator(stream_in_order=True)),
        ("tree", lambda: AggregateTreeOperator(stream_in_order=True)),
        ("agg-buckets", lambda: AggregateBucketsOperator(stream_in_order=True)),
        ("tuple-buckets", lambda: TupleBucketsOperator(stream_in_order=True)),
    ]
    if periodic_only_ok:
        # Pairs and Cutty only define semantics for periodic time windows.
        operators.append(("pairs", lambda: PairsOperator()))
        operators.append(("cutty", lambda: CuttyOperator()))
    return operators


def _ooo_operators():
    return [
        ("lazy", lambda: GeneralSlicingOperator(stream_in_order=False, allowed_lateness=LATENESS)),
        ("eager", lambda: GeneralSlicingOperator(stream_in_order=False, eager=True, allowed_lateness=LATENESS)),
        ("buffer", lambda: TupleBufferOperator(stream_in_order=False, allowed_lateness=LATENESS)),
        ("tree", lambda: AggregateTreeOperator(stream_in_order=False, allowed_lateness=LATENESS)),
        ("agg-buckets", lambda: AggregateBucketsOperator(stream_in_order=False, allowed_lateness=LATENESS)),
    ]


def _subtract_legal(draws: List[QueryDraw]) -> bool:
    """Whether every drawn aggregation supports the subtract kernel."""
    return all(
        make_agg().invertible and make_agg().exact_invert for _, make_agg, _ in draws
    )


def _kernel_override_operators(draws: List[QueryDraw], *, in_order: bool, lateness=None):
    """Forced-kernel / sharing-ablation axis: every kernel faces the
    same random streams and window sets as the auto-selected operators.

    Forcing is *legal but slow* off a kernel's sweet spot (two-stacks
    under out-of-order inserts degrades to O(s) rebuilds); only
    subtract-on-evict without an invertible function is rejected at
    construction, so that variant joins only when every drawn
    aggregation supports it.
    """
    if lateness is None:
        lateness = 0 if in_order else LATENESS

    def make(**kwargs):
        return lambda: GeneralSlicingOperator(
            stream_in_order=in_order, allowed_lateness=lateness, **kwargs
        )

    operators = [
        ("lazy-unshared", make(share_windows=False)),
        ("eager-flatfat", make(eager=True, kernel="flatfat")),
        ("eager-finger", make(eager=True, kernel="finger_tree")),
        ("eager-two-stacks", make(eager=True, kernel="two_stacks")),
    ]
    if _subtract_legal(draws):
        operators.append(
            ("eager-subtract", make(eager=True, kernel="subtract_on_evict"))
        )
    return operators


# ----------------------------------------------------------------------
# differential check + shrinking


def _final_results(make_operator, draws: List[QueryDraw], arrival: List[Record]):
    operator = make_operator()
    for make_window, make_agg, _ in draws:
        operator.add_query(make_window(), make_agg())
    sessions = {
        index for index, (make_window, _, _) in enumerate(draws) if isinstance(make_window(), SessionWindow)
    }
    final = {}
    for position, element in enumerate(list(arrival) + [Watermark(_horizon(arrival))]):
        for result in operator.process(element):
            if result.query_id in sessions:
                # A late record can extend or bridge sessions that were
                # emitted already: the update replaces what it overlaps.
                for key in [
                    key
                    for key in final
                    if key[0] == result.query_id and key[1] < result.end and result.start < key[2]
                ]:
                    del final[key]
            final[(result.query_id, result.start, result.end)] = result.value
        if position % INVARIANT_EVERY == 0:
            # Slice chains keep their shape and eager kernels agree with
            # the slices mid-stream; a violation raises and is shrunk
            # like any other crash.
            for state in operator.state_objects():
                if hasattr(state, "check_invariants"):
                    state.check_invariants()
            # Slice chains and the slicer's guard, on a pickled copy so
            # that the check cannot repair what it inspects (and the
            # guard is shown to ride the pickle); then on the live
            # operator, whose window managers alone hold carries.
            if isinstance(operator, GeneralSlicingOperator):
                pickle.loads(pickle.dumps(operator)).check_invariants()
                operator.check_invariants()
    return final


def _disagrees(make_operator, draws: List[QueryDraw], arrival: List[Record]) -> bool:
    queries = [(make_window(), make_agg()) for make_window, make_agg, _ in draws]
    expected = reference_results(queries, arrival, horizon=_horizon(arrival))
    try:
        actual = _final_results(make_operator, draws, arrival)
    except Exception:
        return True  # a crash on a sub-stream still reproduces the bug
    return actual != expected


def _shrink(make_operator, draws: List[QueryDraw], arrival: List[Record]) -> List[Record]:
    """Greedy delta-debugging: drop arrivals while the mismatch persists."""
    current = list(arrival)
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + 1 :]
            if candidate and _disagrees(make_operator, draws, candidate):
                current = candidate
                changed = True
            else:
                index += 1
    return current


def _case_source(name, make_operator, draws, minimal, seed) -> str:
    """The shrunk case as a ``Case(...)`` literal for ``REGRESSIONS`` in
    ``tests/regressions.py`` (a baseline gives its stream order and
    lateness as the general slicing operator's options)."""
    operator = make_operator()
    options = {key: getattr(operator, key, 0) for key in ("stream_in_order", "allowed_lateness")}
    if isinstance(operator, GeneralSlicingOperator):
        options.update(eager=operator.eager, share_windows=operator.share_windows)
        if operator.kernel is not None:
            options["kernel"] = operator.kernel.value
    defaults = dict(stream_in_order=False, allowed_lateness=0, eager=False, share_windows=True)
    options = {key: value for key, value in options.items() if defaults.get(key) != value}
    stream = [
        f"Watermark({e.ts})"
        if isinstance(e, Watermark)
        else f"Record({e.ts}, {e.value!r}" + (f", key={e.key!r})" if e.key is not None else ")")
        for e in list(minimal) + [Watermark(_horizon(minimal))]
    ]
    return (
        f"Case(\n    [{', '.join(label for _, _, label in draws)}],\n"
        f"    [{', '.join(stream)}],\n    {options!r},\n"
        '    issue="",  # the commit that fixes it, or the ROADMAP item that will\n'
        f'    why="Found by the differential fuzz on technique {name!r}, seed {seed}.",\n)'
    )


def _check_technique(name, make_operator, draws, arrival, seed):
    if not _disagrees(make_operator, draws, arrival):
        return
    minimal = _shrink(make_operator, draws, arrival)
    queries = [(make_window(), make_agg()) for make_window, make_agg, _ in draws]
    expected = reference_results(queries, minimal, horizon=_horizon(minimal))
    try:
        actual = _final_results(make_operator, draws, minimal)
    except Exception as exc:  # pragma: no cover - only on real bugs
        actual = f"<crash: {type(exc).__name__}: {exc}>"
    pytest.fail(
        f"technique {name!r} disagrees with the reference (seed {seed})\n"
        f"minimal reproducing case ({len(minimal)} of {len(arrival)} arrivals, "
        f"in arrival order), a row for tests/regressions.py:\n"
        f"{_case_source(name, make_operator, draws, minimal, seed)}\n"
        f"expected: {expected}\n"
        f"actual:   {actual}"
    )


# ----------------------------------------------------------------------
# the fuzz cases


@pytest.mark.parametrize("case", range(INORDER_CASES))
def test_fuzz_inorder_all_techniques(case):
    seed = _child_seed("inorder", case)
    rng = random.Random(seed)
    draws, any_session, any_count = _draw_queries(
        rng, kinds=("tumbling", "sliding", "session", "count_tumbling", "count_sliding")
    )
    stream = _draw_stream(rng)
    periodic_only_ok = not (any_session or any_count)
    for name, make_operator in _inorder_operators(periodic_only_ok=periodic_only_ok):
        _check_technique(name, make_operator, draws, stream, seed)
    for name, make_operator in _kernel_override_operators(draws, in_order=True):
        _check_technique(name, make_operator, draws, stream, seed)


@pytest.mark.ooo
@pytest.mark.parametrize("case", range(OOO_CASES))
def test_fuzz_out_of_order_general_techniques(case):
    seed = _child_seed("ooo", case)
    rng = random.Random(seed)
    draws, _, _ = _draw_queries(
        rng, kinds=("tumbling", "sliding", "session", "count_tumbling")
    )
    arrival = _draw_disorder(rng, _draw_stream(rng))
    for name, make_operator in _ooo_operators():
        _check_technique(name, make_operator, draws, arrival, seed)
    for name, make_operator in _kernel_override_operators(draws, in_order=False):
        _check_technique(name, make_operator, draws, arrival, seed)


@pytest.mark.ooo
@pytest.mark.parametrize("case", range(HOLISTIC_CASES))
def test_fuzz_holistic_median_record_keeping_techniques(case):
    seed = _child_seed("holistic", case)
    rng = random.Random(seed)
    length = rng.randint(4, 40)
    draws: List[QueryDraw] = [
        (lambda l=length: TumblingWindow(l), Median, f"(TumblingWindow({length}), Median())")
    ]
    arrival = _draw_disorder(rng, _draw_stream(rng))
    operators = [
        ("lazy", lambda: GeneralSlicingOperator(stream_in_order=False, allowed_lateness=LATENESS)),
        ("buffer", lambda: TupleBufferOperator(stream_in_order=False, allowed_lateness=LATENESS)),
        ("tuple-buckets", lambda: TupleBucketsOperator(stream_in_order=False, allowed_lateness=LATENESS)),
    ]
    for name, make_operator in operators:
        _check_technique(name, make_operator, draws, arrival, seed)


@pytest.mark.ooo
@pytest.mark.parametrize("case", range(HOLISTIC_CASES))
def test_fuzz_holistic_fractional_values_shared_and_unshared(case):
    """Nested sliding percentiles over non-integer floats.  A multiset is
    exact in any grouping, so the bulk combine -- direct, or extending a
    shared suffix through the plan -- must match the reference exactly."""
    seed = _child_seed("holistic-fractional", case)
    rng = random.Random(seed)
    slide = rng.randint(2, 6)
    q = rng.choice([0.1, 0.25, 0.5, 0.9])
    draws: List[QueryDraw] = []
    for factor in rng.sample(range(2, 16), rng.randint(2, 4)):
        make_agg = Median if q == 0.5 else (lambda q=q: Percentile(q))
        draws.append(
            (
                lambda l=factor * slide, s=slide: SlidingWindow(l, s),
                make_agg,
                f"(SlidingWindow({factor * slide}, {slide}), Percentile({q}))",
            )
        )
    stream = _draw_stream(rng, fractional=True)
    for in_order, arrival in ((True, stream), (False, _draw_disorder(rng, stream))):
        for share in (True, False):
            make_operator = lambda: GeneralSlicingOperator(
                stream_in_order=in_order,
                allowed_lateness=0 if in_order else LATENESS,
                share_windows=share,
            )
            name = f"lazy-{'inorder' if in_order else 'ooo'}-{'shared' if share else 'unshared'}"
            _check_technique(name, make_operator, draws, arrival, seed)


def _draw_watermarked_arrival(rng: random.Random, stream: List[Record], lateness: int) -> list:
    """``stream`` in arrival order with a watermark every few records.

    A record arrives at event time ``ts + delay`` with a delay of at most
    ``lateness`` (none: in order), and a watermark carries the arrival
    time of the record before it.  Whatever arrives later has
    ``ts >= watermark - lateness``: nothing is ever dropped.
    """
    fraction = 0.1 + rng.random() * 0.4
    max_delay = min(lateness, 120)
    arrivals = []
    for position, record in enumerate(stream):
        delay = rng.randint(1, max_delay) if max_delay and rng.random() < fraction else 0
        arrivals.append((record.ts + delay, position, record))
    arrivals.sort()
    every = rng.randint(1, 8)
    elements: list = []
    for index, (arrival, _, record) in enumerate(arrivals):
        elements.append(record)
        if index % every == every - 1:
            elements.append(Watermark(arrival))
    return elements


@pytest.mark.ooo
@pytest.mark.parametrize("case", range(EVICTION_CASES))
def test_fuzz_eviction_under_frequent_watermarks(case):
    """Every other case flushes with one final watermark under a lateness
    that keeps everything; here slices are evicted as the stream goes,
    behind watermarks and (in order) behind the records themselves."""
    seed = _child_seed("eviction", case)
    rng = random.Random(seed)
    draws, _, _ = _draw_queries(
        rng, kinds=("tumbling", "sliding", "session", "count_tumbling", "count_sliding")
    )
    if rng.random() < 0.3:
        length = rng.randint(6, 40)
        slide = rng.randint(2, length)
        draws.append(
            (
                lambda l=length, s=slide: SlidingWindow(l, s),
                Median,
                f"(SlidingWindow({length}, {slide}), Median())",
            )
        )
    # None, a few slides (drawn windows are 5 .. 60 wide), or unbounded.
    lateness = [0, rng.randint(5, 60), LATENESS][case % 3]
    arrival = _draw_watermarked_arrival(rng, _draw_stream(rng), lateness)

    def make(**kwargs):
        return lambda: GeneralSlicingOperator(allowed_lateness=lateness, **kwargs)

    operators = [("lazy", make()), ("eager", make(eager=True))]
    if lateness == 0:
        operators += [
            ("lazy-inorder", make(stream_in_order=True)),
            ("eager-inorder", make(stream_in_order=True, eager=True)),
        ]
    holistic = any(make_agg is Median for _, make_agg, _ in draws)
    for name, make_operator in operators:
        _check_technique(name, make_operator, draws, arrival, seed)
    for name, make_operator in _kernel_override_operators(draws, in_order=False, lateness=lateness):
        if holistic and name == "eager-finger":
            continue  # the finger tree needs an associative combine it cannot check here
        _check_technique(name, make_operator, draws, arrival, seed)


@pytest.mark.ooo
@pytest.mark.parametrize("case", range(EVICTION_CASES))
def test_fuzz_sessions_are_evicted_whole_around_silences_of_about_the_gap(case):
    """Where eviction can cut a session in two: silences one short of the
    gap, exactly the gap (the next session starts where the last tail
    slice ends) and just over it, next to windows that cut the sessions
    into slices and a carry that lowers the horizon into them.  In order
    (every cut evicts) and with a watermark every few records."""
    seed = _child_seed("session-eviction", case)
    rng = random.Random(seed)
    gap = rng.randint(2, 6)
    draws: List[QueryDraw] = [(lambda: SessionWindow(gap), Sum, f"(SessionWindow({gap}), Sum())")]
    if rng.random() < 0.4:
        other = rng.randint(2, 9)
        draws.append((lambda: SessionWindow(other), Sum, f"(SessionWindow({other}), Sum())"))
    length = rng.randint(3, 25)
    slide = rng.randint(1, length)
    agg = rng.choice([Sum, Median])
    draws.append(
        (
            lambda: SlidingWindow(length, slide),
            agg,
            f"(SlidingWindow({length}, {slide}), {agg.__name__}())",
        )
    )
    ts = 0
    stream = []
    for _ in range(rng.randint(20, 120)):
        ts += rng.choices(
            [rng.randint(0, 2), gap + rng.randint(-1, 1), rng.randint(gap, 40)], [70, 15, 15]
        )[0]
        stream.append(Record(ts, float(rng.randint(0, 5))))
    marked = _draw_watermarked_arrival(rng, stream, 0)
    for eager in (False, True):
        for order, arrival in (("inorder", stream), ("marked", marked)):
            make_operator = lambda: GeneralSlicingOperator(  # noqa: E731
                stream_in_order=order == "inorder", eager=eager
            )
            name = f"{'eager' if eager else 'lazy'}-{order}"
            _check_technique(name, make_operator, draws, arrival, seed)


@pytest.mark.parametrize("case", range(KEYED_CASES))
def test_fuzz_keyed_routing_matches_per_key_reference(case):
    seed = _child_seed("keyed", case)
    rng = random.Random(seed)
    cardinality = rng.choice([1, 2, 5, 9])
    draws, _, _ = _draw_queries(rng, kinds=("tumbling", "sliding", "session"))
    stream = _draw_stream(rng, key_cardinality=cardinality)

    operator = KeyedWindowOperator(
        lambda: _build_operator(GeneralSlicingOperator(stream_in_order=True), draws)
    )
    final = {}
    for element in stream + [Watermark(_horizon(stream))]:
        for result in operator.process(element):
            final[(result.key, result.query_id, result.start, result.end)] = result.value

    expected = {}
    for key in {record.key for record in stream}:
        per_key = [record for record in stream if record.key == key]
        queries = [(make_window(), make_agg()) for make_window, make_agg, _ in draws]
        for (qi, start, end), value in reference_results(
            queries, per_key, horizon=_horizon(stream)
        ).items():
            expected[(key, qi, start, end)] = value

    assert final == expected, (
        f"keyed routing diverged from per-key reference (seed {seed}, "
        f"cardinality {cardinality}, queries {[label for _, _, label in draws]})"
    )


def _build_operator(operator, draws: List[QueryDraw]):
    for make_window, make_agg, _ in draws:
        operator.add_query(make_window(), make_agg())
    return operator


def test_fuzz_seed_env_changes_draws():
    """REPRO_FUZZ_SEED really parameterizes the suite (guard the plumbing)."""
    a = random.Random("1:inorder:0").randrange(2**63)
    b = random.Random("2:inorder:0").randrange(2**63)
    assert a != b
    assert _child_seed("inorder", 0) == random.Random(
        f"{BASE_SEED}:inorder:0"
    ).randrange(2**63)
