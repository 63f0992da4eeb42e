"""Durability chaos: corruption-tolerant recovery, end to end.

The acceptance property of the durable checkpoint store: for every
slicing technique, against both the memory- and the disk-backed store, a
pipeline killed mid-run whose *newest* checkpoint generation was torn
mid-write recovers from an older generation and still emits output
bit-identical to an unfailed reference run.  On top of the matrix:
transient store I/O retries, resume-after-process-death (including a
resume that itself must fall back past corruption), and the disk-backed
sharded coordinator restoring a hard-killed shard.

Seeds are fixed; override with ``REPRO_CHAOS_SEED``.
"""

from __future__ import annotations

import functools
import os
import random
import zlib
from collections import Counter

import pytest

from conftest import run_operator
from repro import Record, Watermark
from repro.aggregations import Sum
from repro.experiments.harness import TECHNIQUES, make_operator
from repro.runtime import (
    CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_MAGIC,
    CheckpointFormatError,
    CollectSink,
    DiskCheckpointStore,
    FaultInjectingOperator,
    FaultyStore,
    InMemoryStore,
    PipelineFailed,
    RestartPolicy,
    ShardedPipeline,
    SupervisedPipeline,
    Tracer,
    run_keyed_reference,
)
from repro.windows import TumblingWindow

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1729"))
N_RECORDS = 450
#: Snapshot cadence for the matrix: saves land at cursors 0, 128, 256,
#: 384, so a crash drawn from [270, 330) always finds generation #2
#: newest -- the one the chaos schedule tears.
CHECKPOINT_EVERY = 120
BATCH_SIZE = 16
TORN_SAVE = 2

STORES = ("memory", "disk")
MATRIX = [(tech, store) for tech in TECHNIQUES for store in STORES]


def combo_seed(*parts) -> int:
    return CHAOS_SEED + zlib.crc32(":".join(map(str, parts)).encode())


def stream() -> list:
    rng = random.Random(CHAOS_SEED)
    ts = 0
    out = []
    for _ in range(N_RECORDS):
        ts += rng.choice([0, 1, 1, 2, 3])
        out.append(Record(ts, float(rng.randint(0, 9))))
    return out


def make_store(kind: str, tmp_path, **kwargs):
    kwargs.setdefault("keep", 3)
    if kind == "memory":
        return InMemoryStore(**kwargs)
    return DiskCheckpointStore(tmp_path / "ckpt", **kwargs)


def technique_factory(tech: str):
    def factory():
        operator = make_operator(tech, stream_in_order=True, allowed_lateness=0)
        operator.add_query(TumblingWindow(50), Sum())
        return operator

    return factory


def run_torn_write_chaos(tech, store_kind, tmp_path, *, faulty_kwargs=None, crashes=1):
    """One supervised run whose newest generation is torn before the
    crash; returns (sink results, stats, tracer, expected results)."""
    factory = technique_factory(tech)
    elements = stream()
    expected = run_operator(factory(), elements)

    seed = combo_seed(tech, store_kind)
    crash_at = [270 + seed % 60 + 7 * n for n in range(crashes)]
    tracer = Tracer()
    store = FaultyStore(
        make_store(store_kind, tmp_path),
        seed=seed,
        **(faulty_kwargs if faulty_kwargs is not None else {"torn_write_at": (TORN_SAVE,)}),
    )
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(factory(), crash_at=crash_at),
        sink,
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=BATCH_SIZE,
        restart_policy=RestartPolicy(max_restarts=crashes + 2),
        store=store,
        tracer=tracer,
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements)
    assert store.faults_fired >= 1, "the chaos schedule never fired"
    return sink.results, stats, tracer, expected


# ----------------------------------------------------------------------
# the acceptance matrix: every technique x both stores


@pytest.mark.parametrize(
    "tech, store_kind", MATRIX, ids=[f"{t}-{s}" for t, s in MATRIX]
)
def test_torn_newest_generation_recovers_from_older(tech, store_kind, tmp_path):
    results, stats, tracer, expected = run_torn_write_chaos(
        tech, store_kind, tmp_path
    )
    # Output identical to the unfailed reference -- content and order.
    assert results == expected
    # The restore really skipped the torn newest generation.
    assert stats.store_fallbacks >= 1
    assert tracer.value("durability.corrupt_generations") >= 1
    assert tracer.value("durability.fallbacks") >= 1
    assert stats.restarts >= 1
    assert stats.deduped_results > 0  # the longer replay was deduped


@pytest.mark.parametrize("store_kind", STORES)
def test_bit_flip_on_newest_generation(store_kind, tmp_path):
    """Disk rot (one flipped bit) is caught by the CRC exactly like a
    torn write and falls back the same way."""
    results, stats, _tracer, expected = run_torn_write_chaos(
        "Lazy Slicing", store_kind, tmp_path, faulty_kwargs={"bit_flip_at": (TORN_SAVE,)}
    )
    assert results == expected
    assert stats.store_fallbacks >= 1


@pytest.mark.parametrize("store_kind", STORES)
def test_transient_store_io_errors_are_retried(store_kind, tmp_path):
    """A save and a load that each fail once heal under the restart
    policy without losing a generation or a result."""
    results, stats, tracer, expected = run_torn_write_chaos(
        "Lazy Slicing",
        store_kind,
        tmp_path,
        faulty_kwargs={"io_error_saves": (1,), "io_error_loads": (0,)},
    )
    assert results == expected
    assert tracer.value("durability.save_retries") == 1
    assert tracer.value("durability.load_retries") == 1
    assert stats.store_fallbacks == 0


def test_multiple_crashes_and_torn_writes_disk(tmp_path):
    """Two crashes against a disk store that tears two generations."""
    results, stats, _tracer, expected = run_torn_write_chaos(
        "Eager Slicing",
        "disk",
        tmp_path,
        faulty_kwargs={"torn_write_at": (1, 2)},
        crashes=2,
    )
    assert results == expected
    assert stats.store_fallbacks >= 1


def test_all_generations_corrupt_fails_explicitly(tmp_path):
    """When every retained generation is torn, recovery reports a dead
    store instead of looping or fabricating state."""
    factory = technique_factory("Lazy Slicing")
    store = FaultyStore(
        make_store("disk", tmp_path, keep=2),
        torn_write_at=(0, 1, 2, 3, 4),
        seed=CHAOS_SEED,
    )
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(factory(), crash_at=[300]),
        CollectSink(),
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=BATCH_SIZE,
        store=store,
        sleep=lambda _seconds: None,
    )
    with pytest.raises(PipelineFailed, match="no loadable checkpoint"):
        pipeline.run(stream())


# ----------------------------------------------------------------------
# resume: a new supervisor over the directory a dead process left


def _run_to_death(tmp_path):
    """Burn the restart budget mid-stream against a disk store; returns
    (elements, expected, prefix the dead run delivered)."""
    factory = technique_factory("Lazy Slicing")
    elements = stream()
    expected = run_operator(factory(), elements)
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(factory(), crash_at=[200, 210, 220]),
        sink,
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=BATCH_SIZE,
        restart_policy=RestartPolicy(max_restarts=2),
        store=DiskCheckpointStore(tmp_path / "ckpt", keep=3),
        sleep=lambda _seconds: None,
    )
    with pytest.raises(PipelineFailed):
        pipeline.run(elements)
    return factory, elements, expected, sink.results


def test_resume_after_process_death(tmp_path):
    factory, elements, expected, delivered = _run_to_death(tmp_path)
    # What the dead run delivered is a strict prefix of the reference.
    assert delivered == expected[: len(delivered)]

    # A new supervisor (fresh operator, fresh store object over the same
    # directory -- a new process) resumes from the surviving generation.
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        factory(),
        sink,
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=BATCH_SIZE,
        store=DiskCheckpointStore(tmp_path / "ckpt", keep=3),
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements, resume=True)

    assert stats.resumed_from_cursor == 128
    # The resumed run emits exactly the reference tail from the restored
    # checkpoint on; together the two runs cover the whole stream (the
    # overlap is the documented at-least-once boundary across processes).
    assert sink.results == expected[len(expected) - len(sink.results) :]
    assert len(delivered) + len(sink.results) >= len(expected)


def test_resume_falls_back_past_torn_generation(tmp_path):
    factory, elements, expected, _delivered = _run_to_death(tmp_path)

    store = DiskCheckpointStore(tmp_path / "ckpt", keep=3)
    newest = store.generations()[-1]
    store.corrupt(newest, truncate_to=store.frame_size(newest) // 3)

    sink = CollectSink()
    pipeline = SupervisedPipeline(
        factory(),
        sink,
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=BATCH_SIZE,
        store=store,
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements, resume=True)

    # The newest generation (cursor 128) is torn; resume lands on the
    # initial generation and replays the whole stream.
    assert stats.resumed_from_cursor == 0
    assert sink.results == expected


def test_resume_refuses_a_generation_of_another_format_version(tmp_path):
    """The newest generation holds a frame of the previous format version
    (today's payload behind the previous version's header).  Resume fails
    loudly at that header: it neither starts fresh nor falls back to an
    older generation this build could read."""
    factory, elements, _expected, _delivered = _run_to_death(tmp_path)
    store = DiskCheckpointStore(tmp_path / "ckpt", keep=3)
    newest = store.load(store.generations()[-1])
    previous = CHECKPOINT_MAGIC + (CHECKPOINT_FORMAT_VERSION - 1).to_bytes(2, "big")
    store.save(
        previous + newest.blob[len(previous) :],
        cursor=newest.cursor,
        records_processed=newest.records_processed,
    )
    generations = store.generations()

    sink = CollectSink()
    tracer = Tracer()
    pipeline = SupervisedPipeline(
        factory(),
        sink,
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=BATCH_SIZE,
        store=store,
        tracer=tracer,
        sleep=lambda _seconds: None,
    )
    stale = f"v{CHECKPOINT_FORMAT_VERSION - 1} is not supported"
    with pytest.raises(CheckpointFormatError, match=stale):
        pipeline.run(elements, resume=True)

    assert pipeline.stats.resumed_from_cursor is None
    assert sink.results == [] and store.generations() == generations
    assert tracer.value("durability.fallbacks") == 0


def test_resume_with_empty_store_starts_fresh(tmp_path):
    factory = technique_factory("Lazy Slicing")
    elements = stream()
    sink = CollectSink()
    pipeline = SupervisedPipeline(
        factory(),
        sink,
        store=DiskCheckpointStore(tmp_path / "ckpt", keep=3),
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements, resume=True)
    assert stats.resumed_from_cursor is None
    assert sink.results == run_operator(factory(), elements)


def _counting_stream(length):
    """``Record(i, 1.0)`` with ``Watermark(i - 5)`` after every 20th."""
    elements: list = []
    for index in range(length):
        elements.append(Record(index, 1.0))
        if (index + 1) % 20 == 0:
            elements.append(Watermark(index - 5))
    return elements


def test_a_fresh_run_over_a_used_directory_falls_back_exactly_once(tmp_path):
    """A fresh (not resumed) run over a directory a longer run left its
    generations in.  The fresh run's newest generation is torn, so its
    restore falls back to its first.  The results it must re-produce
    reach back to that generation, whatever the previous run's
    generations still retained in the directory say: the run delivers
    exactly the unfailed output instead of failing with "replay
    diverged"."""
    directory = tmp_path / "ckpt"
    SupervisedPipeline(
        _sharded_factory(),
        CollectSink(),
        checkpoint_every=100,
        batch_size=10,
        store=DiskCheckpointStore(directory, keep=3),
    ).run(_counting_stream(4_000))

    elements = _counting_stream(600)
    sink = CollectSink()
    tracer = Tracer()
    pipeline = SupervisedPipeline(
        FaultInjectingOperator(_sharded_factory(), crash_at=[150]),
        sink,
        checkpoint_every=100,
        batch_size=10,
        store=FaultyStore(DiskCheckpointStore(directory, keep=3), torn_write_at=(1,), seed=3),
        tracer=tracer,
        sleep=lambda _seconds: None,
    )
    stats = pipeline.run(elements)

    assert sink.results == run_operator(_sharded_factory(), elements)
    assert stats.restarts == 1 and stats.store_fallbacks == 1
    assert stats.deduped_results > 0


# ----------------------------------------------------------------------
# sharded: the coordinator restores a hard-killed shard from disk


def _keyed_stream(rng, *, length=600, cardinality=8, watermark_every=50):
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


def _sharded_factory():
    from repro import GeneralSlicingOperator

    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    return operator


def _comparable(results):
    return [
        (r.query_id, r.start, r.end, repr(r.value), r.is_update, r.key)
        for r in results
    ]


def _torn_disk_store(base_dir, torn: dict, index: int):
    """Module-level per-shard store factory (coordinator-side)."""
    inner = DiskCheckpointStore(
        os.path.join(base_dir, f"shard-{index}"), keep=3
    )
    return FaultyStore(inner, torn_write_at=torn.get(index, ()), seed=CHAOS_SEED)


@pytest.mark.shard
def test_sharded_hard_kill_recovers_from_torn_disk_store(tmp_path):
    """The coordinator restores a hard-killed shard from its disk store,
    falling back past the torn newest generation, and the merged output
    still matches the keyed single-process reference."""
    rng = random.Random(f"{CHAOS_SEED}:sharded-disk")
    elements = _keyed_stream(rng)
    expected = run_keyed_reference(_sharded_factory, elements)

    # Shard 1 dies around its 150th record; its newest generations are
    # torn, so the restore walks back to an older one.
    store_factory = functools.partial(
        _torn_disk_store, os.fspath(tmp_path), {1: (1, 2)}
    )
    pipeline = ShardedPipeline(
        _sharded_factory,
        2,
        batch_size=16,
        queue_capacity=4,
        checkpoint_every=50,
        kill_at={1: 150},
        store_factory=store_factory,
    )
    merged = pipeline.run(elements)

    assert Counter(_comparable(merged)) == Counter(_comparable(expected))
    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == 1
    assert pipeline.tracer.value("durability.fallbacks") >= 1
    assert pipeline.tracer.value("shard.deduped_results") > 0


@pytest.mark.shard
def test_sharded_soft_crash_with_memory_store_factory(tmp_path):
    """store_factory also accepts memory stores with deeper retention;
    recovery semantics are unchanged."""
    rng = random.Random(f"{CHAOS_SEED}:sharded-mem")
    elements = _keyed_stream(rng, length=400)
    expected = run_keyed_reference(_sharded_factory, elements)

    pipeline = ShardedPipeline(
        _sharded_factory,
        2,
        batch_size=16,
        checkpoint_every=50,
        crash_at={0: (120,)},
        store_factory=functools.partial(_memory_store),
    )
    merged = pipeline.run(elements)
    assert _comparable(merged) == _comparable(expected)
    assert pipeline.tracer.value("shard.restarts") == 1


def _memory_store(_index: int) -> InMemoryStore:
    return InMemoryStore(keep=3)


@pytest.mark.shard
def test_a_fresh_sharded_run_over_used_directories_falls_back_exactly_once(tmp_path):
    """The sharded twin of the supervised case above: a fresh run over a
    shard directory a longer run used tears its second generation and
    crashes after it, so the restore falls back to its first.  The feed
    and the results the replay needs reach back to that generation, not
    to the previous run's oldest retained one."""
    ShardedPipeline(
        _sharded_factory,
        1,
        batch_size=10,
        checkpoint_every=100,
        store_factory=lambda _index: DiskCheckpointStore(tmp_path / "ckpt", keep=3),
    ).run(_counting_stream(4_000))

    elements = _counting_stream(600)
    pipeline = ShardedPipeline(
        _sharded_factory,
        1,
        batch_size=10,
        checkpoint_every=100,
        crash_at={0: (250,)},
        store_factory=lambda _index: FaultyStore(
            DiskCheckpointStore(tmp_path / "ckpt", keep=3), torn_write_at=(1,), seed=3
        ),
    )
    merged = pipeline.run(elements)

    assert _comparable(merged) == _comparable(run_keyed_reference(_sharded_factory, elements))
    assert pipeline.tracer.value("shard.restarts") == 1
    assert pipeline.tracer.value("durability.fallbacks") == 1
