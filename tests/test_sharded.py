"""Sharded streaming executor: equivalence, alignment, chaos, backpressure.

The contract under test: :class:`ShardedPipeline` output is *identical*
-- as a multiset and in watermark-aligned order -- to a single-process
:class:`KeyedWindowOperator` aligned the same way
(:func:`run_keyed_reference`), for every technique and window type, with
or without shard crashes.  Worker factories live at module level so they
pickle under the ``spawn`` start method (``REPRO_SHARD_CONTEXT=spawn``,
the CI shard-smoke configuration).
"""

from __future__ import annotations

import functools
import os
import random
import time
from collections import Counter
from typing import List, Tuple

import pytest

from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Average, Max, Min, Sum
from repro.baselines import AggregateBucketsOperator, TupleBufferOperator
from repro.runtime import (
    FaultPlan,
    FaultyStore,
    InMemoryStore,
    PipelineFailed,
    RestartPolicy,
    ShardedPipeline,
    run_keyed_reference,
)
from repro.windows import SessionWindow, SlidingWindow, TumblingWindow

pytestmark = pytest.mark.shard

#: Start method for the pipelines under test; CI runs the suite under
#: ``spawn`` as well as the platform default.
CONTEXT = os.environ.get("REPRO_SHARD_CONTEXT") or None

SEED = int(os.environ.get("REPRO_SHARD_SEED", "20190517"))

_WINDOWS = {
    "tumbling": TumblingWindow,
    "sliding": SlidingWindow,
    "session": SessionWindow,
}
_AGGREGATIONS = {"Sum": Sum, "Min": Min, "Max": Max, "Average": Average}

#: Picklable query description: (window kind, window args, aggregation).
Spec = Tuple[str, tuple, str]


def _build_sharded_operator(technique: str, specs: Tuple[Spec, ...]):
    """Module-level factory (spawn-picklable via functools.partial)."""
    if technique == "lazy":
        operator = GeneralSlicingOperator(stream_in_order=True)
    elif technique == "eager":
        operator = GeneralSlicingOperator(stream_in_order=True, eager=True)
    elif technique == "buffer":
        operator = TupleBufferOperator(stream_in_order=True)
    elif technique == "agg-buckets":
        operator = AggregateBucketsOperator(stream_in_order=True)
    else:  # pragma: no cover - guard against typos in parametrization
        raise ValueError(f"unknown technique {technique!r}")
    for kind, args, agg in specs:
        operator.add_query(_WINDOWS[kind](*args), _AGGREGATIONS[agg]())
    return operator


def _factory(technique: str, specs: Tuple[Spec, ...]):
    return functools.partial(_build_sharded_operator, technique, specs)


class _SlowSlicingOperator(GeneralSlicingOperator):
    """A deliberately slow per-key operator (backpressure tests)."""

    def process_batch(self, elements):
        time.sleep(0.001 * len(elements))
        return super().process_batch(elements)


def _slow_factory():
    operator = _SlowSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(50), Sum())
    return operator


def _draw_specs(rng: random.Random) -> Tuple[Spec, ...]:
    specs: List[Spec] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["tumbling", "sliding", "session"])
        if kind == "tumbling":
            args: tuple = (rng.randint(5, 40),)
        elif kind == "sliding":
            length = rng.randint(6, 40)
            args = (length, rng.randint(2, length))
        else:
            args = (rng.randint(3, 20),)
        specs.append((kind, args, rng.choice(["Sum", "Min", "Max", "Average"])))
    return tuple(specs)


def _keyed_stream(rng: random.Random, *, length=300, cardinality=8, watermark_every=40):
    """In-order keyed records with periodic (slightly lagging) watermarks."""
    ts = 0
    elements: list = []
    for index in range(length):
        ts += rng.randint(0, 3)
        elements.append(
            Record(ts, float(rng.randint(-20, 20)), key=f"k{rng.randrange(cardinality)}")
        )
        if (index + 1) % watermark_every == 0:
            elements.append(Watermark(ts - rng.randint(0, 5)))
    return elements


def _comparable(results) -> List[tuple]:
    """Full identity of each result as a hashable tuple (the value by its
    ``repr``), so results can be counted in a ``Counter``."""
    return [
        (r.query_id, r.start, r.end, repr(r.value), r.is_update, r.key)
        for r in results
    ]


CHAOS_SPECS: Tuple[Spec, ...] = (
    ("tumbling", (10,), "Sum"),
    ("sliding", (30, 10), "Max"),
)


# ----------------------------------------------------------------------
# equivalence across techniques x window types x parallelism


@pytest.mark.parametrize("parallelism", [2, 4])
@pytest.mark.parametrize("case", range(4))
def test_sharded_output_identical_to_keyed_reference(case, parallelism):
    rng = random.Random(f"{SEED}:equiv:{case}:{parallelism}")
    technique = ["lazy", "eager", "agg-buckets", "buffer"][case % 4]
    specs = _draw_specs(rng)
    elements = _keyed_stream(rng, cardinality=rng.choice([1, 3, 8]))
    factory = _factory(technique, specs)

    expected = run_keyed_reference(factory, elements)
    pipeline = ShardedPipeline(
        factory,
        parallelism,
        batch_size=rng.choice([8, 32, 256]),
        queue_capacity=4,
        checkpoint_every=500,
        context=CONTEXT,
    )
    merged = pipeline.run(elements)

    # Multiset equality and watermark-aligned order, separately, so a
    # failure says which property broke.
    assert Counter(_comparable(merged)) == Counter(_comparable(expected)), (
        f"result multiset diverged (technique={technique}, specs={specs})"
    )
    assert _comparable(merged) == _comparable(expected), (
        f"merge order diverged (technique={technique}, specs={specs})"
    )
    assert pipeline.tracer.value("shard.records") == sum(
        1 for e in elements if isinstance(e, Record)
    )


def test_sharded_merge_is_deterministic_across_runs():
    rng = random.Random(f"{SEED}:determinism")
    specs = _draw_specs(rng)
    elements = _keyed_stream(rng)
    factory = _factory("lazy", specs)
    runs = [
        ShardedPipeline(
            factory, 3, batch_size=16, queue_capacity=2, context=CONTEXT
        ).run(elements)
        for _ in range(2)
    ]
    assert _comparable(runs[0]) == _comparable(runs[1])


def test_sharded_flush_false_ends_on_alignment_barrier():
    rng = random.Random(f"{SEED}:barrier")
    specs = (("tumbling", (25,), "Sum"),)
    elements = _keyed_stream(rng, length=150, watermark_every=60)
    factory = _factory("lazy", specs)
    expected = run_keyed_reference(factory, elements, flush=False)
    merged = ShardedPipeline(factory, 2, batch_size=16, context=CONTEXT).run(
        elements, flush=False
    )
    assert _comparable(merged) == _comparable(expected)
    # The flushing run emits strictly more: the tail windows.
    flushed = ShardedPipeline(factory, 2, batch_size=16, context=CONTEXT).run(elements)
    assert len(flushed) > len(merged)


def test_keyless_records_route_consistently():
    """key=None shards like any other key (sticky, not round-robin)."""
    rng = random.Random(f"{SEED}:keyless")
    elements: list = []
    ts = 0
    for index in range(120):
        ts += rng.randint(0, 2)
        elements.append(Record(ts, 1.0))
        if (index + 1) % 40 == 0:
            elements.append(Watermark(ts))
    factory = _factory("lazy", (("tumbling", (10,), "Sum"),))
    expected = run_keyed_reference(factory, elements)
    merged = ShardedPipeline(factory, 3, batch_size=16, context=CONTEXT).run(elements)
    assert _comparable(merged) == _comparable(expected)


# ----------------------------------------------------------------------
# chaos: single-shard crash, restart, exactly-once re-emission


@pytest.mark.chaos
def test_chaos_soft_crash_recovers_with_exactly_once_reemission():
    rng = random.Random(f"{SEED}:chaos")
    elements = _keyed_stream(rng, length=600, cardinality=8, watermark_every=50)
    factory = _factory("lazy", CHAOS_SPECS)
    expected = run_keyed_reference(factory, elements)

    pipeline = ShardedPipeline(
        factory,
        2,
        batch_size=16,
        queue_capacity=4,
        checkpoint_every=50,
        crash_at={0: (150,)},
        context=CONTEXT,
    )
    merged = pipeline.run(elements)

    assert Counter(_comparable(merged)) == Counter(_comparable(expected))
    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == 1
    # Results delivered between the last checkpoint and the crash were
    # re-emitted by the replay and suppressed, not delivered twice.
    assert pipeline.tracer.value("shard.deduped_results") > 0


@pytest.mark.chaos
def test_chaos_transient_checkpoint_load_error_is_retried():
    """The restore after a shard crash hits one transient store I/O
    error: the load is retried under the restart policy (and counted),
    not escalated, and the merged output is still exact."""
    rng = random.Random(f"{SEED}:chaos-load")
    elements = _keyed_stream(rng, length=600, cardinality=8, watermark_every=50)
    factory = _factory("lazy", CHAOS_SPECS)
    expected = run_keyed_reference(factory, elements)

    pipeline = ShardedPipeline(
        factory,
        2,
        batch_size=16,
        queue_capacity=4,
        checkpoint_every=50,
        crash_at={0: (150,)},
        store_factory=lambda index: FaultyStore(
            InMemoryStore(keep=1), io_error_loads=(0,)
        ),
        context=CONTEXT,
    )
    merged = pipeline.run(elements)

    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == 1
    assert pipeline.tracer.value("durability.load_retries") == 1


@pytest.mark.chaos
def test_chaos_transient_checkpoint_save_error_is_retried():
    """Shard 0's first checkpoint save hits one transient store I/O
    error: the save is retried under the restart policy (and counted),
    so the restore after the later crash still finds that generation and
    the merged output is exact."""
    rng = random.Random(f"{SEED}:chaos-save")
    elements = _keyed_stream(rng, length=600, cardinality=8, watermark_every=50)
    factory = _factory("lazy", CHAOS_SPECS)
    expected = run_keyed_reference(factory, elements)

    pipeline = ShardedPipeline(
        factory,
        2,
        batch_size=16,
        queue_capacity=4,
        checkpoint_every=50,
        crash_at={0: (150,)},
        store_factory=lambda index: FaultyStore(
            InMemoryStore(keep=1), io_error_saves=(0,) if index == 0 else ()
        ),
        context=CONTEXT,
    )
    merged = pipeline.run(elements)

    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == 1
    assert pipeline.tracer.value("durability.save_retries") == 1


@pytest.mark.chaos
def test_every_generation_corrupt_fails_explicitly():
    """Every generation the shard saves is torn.  The restore after its
    crash finds nothing loadable and fails the run, as the supervised
    driver does -- it does not restart a fresh operator over the feed
    its trims left, which read window [1000, 2000) as 700.0, not 2000.0."""
    elements: list = []
    for index in range(4_000):
        elements.append(Record(index // 2, 1.0, "k"))
        if (index + 1) % 500 == 0:
            elements.append(Watermark(index // 2 - 100))
    pipeline = ShardedPipeline(
        _factory("lazy", (("tumbling", (1000,), "Sum"),)),
        1,
        batch_size=50,
        checkpoint_every=100,
        crash_at={0: [3300]},
        store_factory=lambda index: FaultyStore(
            InMemoryStore(keep=1), torn_write_at=range(1000), seed=1
        ),
        context=CONTEXT,
    )
    with pytest.raises(PipelineFailed, match="no loadable checkpoint"):
        pipeline.run(elements)


@pytest.mark.chaos
def test_chaos_seeded_fault_plan_multiple_crashes():
    rng = random.Random(f"{SEED}:chaos-plan")
    elements = _keyed_stream(rng, length=500, cardinality=6, watermark_every=40)
    factory = _factory("eager", CHAOS_SPECS)
    expected = run_keyed_reference(factory, elements)

    plan = FaultPlan(seed=7, horizon=200, crashes=2)
    pipeline = ShardedPipeline(
        factory,
        2,
        batch_size=16,
        checkpoint_every=60,
        fault_plans={1: plan},
        restart_policy=RestartPolicy(max_restarts=5),
        context=CONTEXT,
    )
    merged = pipeline.run(elements)
    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == len(plan.crash_points)


@pytest.mark.chaos
def test_chaos_hard_kill_detected_by_liveness_and_recovered():
    rng = random.Random(f"{SEED}:chaos-kill")
    elements = _keyed_stream(rng, length=600, cardinality=8, watermark_every=50)
    factory = _factory("lazy", CHAOS_SPECS)
    expected = run_keyed_reference(factory, elements)

    pipeline = ShardedPipeline(
        factory,
        2,
        batch_size=16,
        queue_capacity=2,
        checkpoint_every=50,
        kill_at={1: 150},
        context=CONTEXT,
    )
    merged = pipeline.run(elements)
    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == 1


@pytest.mark.chaos
def test_restart_budget_exhaustion_raises_pipeline_failed():
    rng = random.Random(f"{SEED}:budget")
    elements = _keyed_stream(rng, length=200)
    pipeline = ShardedPipeline(
        _factory("lazy", CHAOS_SPECS),
        2,
        batch_size=8,
        checkpoint_every=1000,
        crash_at={0: (20,)},
        restart_policy=RestartPolicy(max_restarts=0),
        context=CONTEXT,
    )
    with pytest.raises(PipelineFailed):
        pipeline.run(elements)


# ----------------------------------------------------------------------
# backpressure


def test_backpressure_blocks_and_counts_queue_full_waits():
    elements = [Record(ts, 1.0, key="hot") for ts in range(200)]
    pipeline = ShardedPipeline(
        _slow_factory,
        2,
        batch_size=8,
        queue_capacity=1,
        context=CONTEXT,
    )
    merged = pipeline.run(elements)
    expected = run_keyed_reference(_slow_factory, elements)
    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.queue_full_waits") > 0


def test_out_queue_is_polled_per_shipped_batch_not_per_record(monkeypatch):
    """With feed queues deep enough that nothing waits, the coordinator
    polls worker output only when it ships a full batch."""
    polls = []
    service = ShardedPipeline._service

    def spy(self, block, timeout=0.05):
        polls.append(block)
        return service(self, block, timeout)

    monkeypatch.setattr(ShardedPipeline, "_service", spy)
    rng = random.Random(f"{SEED}:drain")
    elements = _keyed_stream(rng, length=2000, cardinality=8, watermark_every=500)
    factory = _factory("lazy", CHAOS_SPECS)
    pipeline = ShardedPipeline(
        factory, 2, batch_size=100, queue_capacity=64, context=CONTEXT
    )
    merged = pipeline.run(elements)

    assert _comparable(merged) == _comparable(run_keyed_reference(factory, elements))
    assert pipeline.tracer.value("shard.queue_full_waits") == 0
    assert 0 < polls.count(False) <= pipeline.tracer.value("shard.batches")


# ----------------------------------------------------------------------
# construction-time validation


def test_unpicklable_factory_rejected_before_spawning():
    with pytest.raises(Exception):
        ShardedPipeline(lambda: GeneralSlicingOperator(), 2, context=CONTEXT)


def test_invalid_parameters_rejected():
    factory = _factory("lazy", CHAOS_SPECS)
    with pytest.raises(ValueError):
        ShardedPipeline(factory, 0)
    with pytest.raises(ValueError):
        ShardedPipeline(factory, 2, batch_size=0)
    with pytest.raises(ValueError):
        ShardedPipeline(factory, 2, queue_capacity=0)
    with pytest.raises(ValueError):
        ShardedPipeline(factory, 2, checkpoint_every=0)
