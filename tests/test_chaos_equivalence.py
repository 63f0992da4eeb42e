"""Chaos equivalence: crashes must never change window results.

For every technique x window-type combination the suite runs the same
stream twice -- once uninterrupted, once under a supervised pipeline
with (at least) three injected crashes -- and requires the sink output
to be bit-identical, in content *and* order.  This is the paper-level
correctness property of checkpoint-and-replay: fault tolerance is
invisible in the results.

Seeds are fixed for reproducibility; override with ``REPRO_CHAOS_SEED``
to explore a different (still deterministic) chaos schedule.
"""

import os
import random
import zlib

import pytest

from conftest import run_operator, shuffled_with_disorder
from repro import Record, Watermark
from repro.aggregations import Average, Sum
from repro.core.operator_ import GeneralSlicingOperator
from repro.experiments.harness import make_operator
from repro.runtime import (
    CollectSink,
    FaultInjectingOperator,
    FaultPlan,
    FaultySource,
    RestartPolicy,
    SupervisedPipeline,
)
from repro.runtime.checkpoint import restore
from repro.runtime.durability import InMemoryStore
from repro.windows import (
    CountTumblingWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1729"))
CRASHES = 3
N_RECORDS = 450
LATENESS = 100

WINDOWS = {
    "tumbling": lambda: TumblingWindow(50),
    "sliding": lambda: SlidingWindow(80, 20),
    "session": lambda: SessionWindow(7),
    "count": lambda: CountTumblingWindow(64),
}

GENERAL_TECHNIQUES = (
    "Lazy Slicing",
    "Eager Slicing",
    "Tuple Buffer",
    "Aggregate Tree",
    "Buckets",
    "Tuple Buckets",
)
#: Pairs/Cutty: in-order deterministic windows only (no sessions).
RESTRICTED_TECHNIQUES = {
    "Pairs": ("tumbling", "sliding", "count"),
    "Cutty": ("tumbling", "sliding", "count"),
}

INORDER_MATRIX = [
    (tech, window) for tech in GENERAL_TECHNIQUES for window in WINDOWS
] + [
    (tech, window)
    for tech, windows in RESTRICTED_TECHNIQUES.items()
    for window in windows
]
OOO_MATRIX = [(tech, window) for tech in GENERAL_TECHNIQUES for window in WINDOWS]


def combo_seed(tech: str, window: str, order: str) -> int:
    """Stable per-combination seed (crc32: deterministic across runs)."""
    return CHAOS_SEED + zlib.crc32(f"{tech}:{window}:{order}".encode())


def inorder_stream() -> list:
    rng = random.Random(CHAOS_SEED)
    ts = 0
    out = []
    for _ in range(N_RECORDS):
        ts += rng.choice([0, 1, 1, 2, 3]) + (12 if rng.random() < 0.05 else 0)
        out.append(Record(ts, float(rng.randint(0, 9))))
    return out


def ooo_stream() -> list:
    base = inorder_stream()
    records = shuffled_with_disorder(base, 0.2, 20, seed=CHAOS_SEED + 1)
    elements = []
    high = 0
    for index, record in enumerate(records):
        elements.append(record)
        high = max(high, record.ts)
        if index % 60 == 59:
            elements.append(Watermark(high - 25))
    elements.append(Watermark(high + 1_000))
    return elements


def run_chaos(factory, elements, seed, *, crashes=CRASHES, errors=0, hiccups=0):
    """One supervised run under an injected-fault plan; returns
    (sink results, stats, uninterrupted results)."""
    expected = run_operator(factory(), elements)

    plan = FaultPlan(seed, N_RECORDS, crashes=crashes, errors=errors, hiccups=hiccups)
    source = FaultySource(elements, plan=plan) if hiccups else elements
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(factory(), plan=plan),
        sink,
        checkpoint_every=120,
        batch_size=16,
        restart_policy=RestartPolicy(max_restarts=crashes + errors + hiccups + 2),
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(source)
    # The operator that survived the restarts, through its fault wrapper.
    pipeline.operator.check_invariants()
    return sink.results, stats, expected


@pytest.mark.parametrize(
    "tech, window", INORDER_MATRIX, ids=[f"{t}-{w}" for t, w in INORDER_MATRIX]
)
def test_inorder_chaos_equivalence(tech, window):
    def factory():
        operator = make_operator(tech, stream_in_order=True, allowed_lateness=0)
        operator.add_query(WINDOWS[window](), Sum())
        return operator

    results, stats, expected = run_chaos(
        factory, inorder_stream(), combo_seed(tech, window, "in")
    )
    assert stats.restarts == CRASHES
    assert results == expected


@pytest.mark.ooo
@pytest.mark.parametrize(
    "tech, window", OOO_MATRIX, ids=[f"{t}-{w}" for t, w in OOO_MATRIX]
)
def test_ooo_chaos_equivalence(tech, window):
    def factory():
        operator = make_operator(
            tech, stream_in_order=False, allowed_lateness=LATENESS
        )
        operator.add_query(WINDOWS[window](), Sum())
        return operator

    results, stats, expected = run_chaos(
        factory, ooo_stream(), combo_seed(tech, window, "ooo")
    )
    assert stats.restarts == CRASHES
    assert results == expected


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
def test_multi_query_chaos_with_all_fault_kinds(eager):
    """Shared slices, three concurrent queries, crashes + operator
    errors + source hiccups in one run."""

    def factory():
        operator = GeneralSlicingOperator(
            stream_in_order=False, eager=eager, allowed_lateness=LATENESS
        )
        operator.add_query(TumblingWindow(50), Sum())
        operator.add_query(SlidingWindow(80, 20), Average())
        operator.add_query(SessionWindow(7), Sum())
        return operator

    results, stats, expected = run_chaos(
        factory,
        ooo_stream(),
        combo_seed("multi", "all", "eager" if eager else "lazy"),
        crashes=4,
        errors=1,
        hiccups=2,
    )
    assert stats.restarts == 5  # 4 crashes + 1 post-record error
    assert stats.source_retries == 2
    assert stats.deduped_results > 0
    assert results == expected


@pytest.mark.parametrize(
    "kernel", ["flatfat", "finger_tree", "two_stacks", "subtract_on_evict"]
)
def test_kernel_state_chaos_equivalence(kernel):
    """Each aggregation kernel's internal state (FlatFAT tree, finger
    B-tree, the two stacks, subtract-on-evict prefixes) must ride
    checkpoints cleanly:
    crash mid-stream, recover, and the remaining windows still close on
    the exact same values as an uninterrupted run."""

    def factory():
        operator = GeneralSlicingOperator(
            stream_in_order=True, eager=True, kernel=kernel, allowed_lateness=0
        )
        operator.add_query(TumblingWindow(50), Sum())
        operator.add_query(SlidingWindow(80, 20), Average())
        return operator

    results, stats, expected = run_chaos(
        factory, inorder_stream(), combo_seed("kernel", kernel, "in")
    )
    assert stats.restarts == CRASHES
    assert results == expected


class _RecordingStore(InMemoryStore):
    """Keeps every snapshot blob it is handed, for inspection."""

    def __init__(self) -> None:
        super().__init__(keep=1)
        self.blobs = []

    def save(self, blob, **kwargs) -> int:
        self.blobs.append(bytes(blob))
        return super().save(blob, **kwargs)


@pytest.mark.parametrize(
    "kernel", ["flatfat", "finger_tree", "two_stacks", "subtract_on_evict"]
)
def test_crash_between_a_record_and_the_next_cut(kernel):
    """The eager store writes the open head into its kernels only when a
    window reads it, so a snapshot taken mid-slice holds kernel leaves
    that lag the head's partials.  One record per tick and
    a cut every 20 ticks; checkpoints after 33, 66 and 99 records all
    fall mid-slice, and each crash fires two records later, before the
    next cut.  The restored operator must finish the slice and emit
    every window bit-identically, in order."""

    def factory():
        operator = GeneralSlicingOperator(
            stream_in_order=True, eager=True, kernel=kernel, allowed_lateness=0
        )
        operator.add_query(SlidingWindow(60, 20), Sum())
        operator.add_query(SlidingWindow(60, 20), Average())
        return operator

    elements = [Record(ts, float(ts % 10)) for ts in range(300)]
    expected = run_operator(factory(), elements)
    store = _RecordingStore()
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(factory(), crash_at=[35, 68, 101]),
        sink,
        checkpoint_every=33,
        batch_size=1,
        restart_policy=RestartPolicy(max_restarts=5),
        store=store,
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements)
    assert stats.restarts == 3
    assert sink.results == expected
    assert len(expected) > 20

    def lagging_at_snapshot(blob):
        """(closed slices lag, the head's leaves lag) in a frame."""
        (state,) = restore(blob).state_objects()
        if not state.slices:
            return False, False
        last = len(state.slices) - 1
        aggs = state.slices[last].aggs
        head = any(kernel.leaf(last) != aggs[i] for i, kernel in enumerate(state.kernels))
        return state.lag_from is not None, head

    lagging = [lagging_at_snapshot(blob) for blob in store.blobs]
    # Every periodic snapshot fell mid-slice (33k is no multiple of 20
    # within this stream), so the head's leaves lag.  The first came
    # before any window closed, so nothing has read [0, 20) either; at
    # the others the emit at the last cut wrote every closed slice.
    # Only the initial one saw an empty store.
    assert lagging[0] == (False, False)
    assert lagging[1] == (True, True)
    assert len(lagging) >= 4 and all(entry == (False, True) for entry in lagging[2:])


@pytest.mark.ooo
def test_cross_kernel_ooo_chaos_equivalence():
    """FlatFAT and the finger tree must be interchangeable *under fire*:
    the same seeded disordered stream, each kernel supervised through
    its own ≥3-crash schedule with per-kernel checkpoint restores, must
    emit identical results -- and identical to both kernels'
    uninterrupted runs.  This pins the pair the selector actually
    chooses between on out-of-order workloads."""

    def factory_for(kernel):
        def factory():
            operator = GeneralSlicingOperator(
                stream_in_order=False,
                eager=True,
                kernel=kernel,
                allowed_lateness=LATENESS,
            )
            operator.add_query(TumblingWindow(50), Sum())
            operator.add_query(SlidingWindow(80, 20), Average())
            operator.add_query(SessionWindow(7), Sum())
            return operator

        return factory

    elements = ooo_stream()
    outcomes = {}
    for kernel in ("flatfat", "finger_tree"):
        results, stats, expected = run_chaos(
            factory_for(kernel), elements, combo_seed("xkernel", kernel, "ooo")
        )
        assert stats.restarts == CRASHES
        assert results == expected, f"{kernel}: chaos run diverged from clean run"
        outcomes[kernel] = results
    assert outcomes["flatfat"] == outcomes["finger_tree"]
    assert len(outcomes["flatfat"]) > 0


def test_chaos_with_tuple_at_a_time_batches():
    """batch_size=1 exercises the boundary case of the replay cursor."""

    def factory():
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(50), Sum())
        return operator

    elements = inorder_stream()
    expected = run_operator(factory(), elements)
    plan = FaultPlan(combo_seed("t1", "t1", "in"), N_RECORDS, crashes=3)
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(factory(), plan=plan),
        sink,
        checkpoint_every=97,  # deliberately co-prime with nothing in the stream
        batch_size=1,
        restart_policy=RestartPolicy(max_restarts=5),
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements)
    assert stats.restarts == 3
    assert sink.results == expected
