"""Tests for operator checkpointing (snapshot / restore)."""

import enum
import pickle
from collections import deque

import pytest

from conftest import final_values, run_operator, shuffled_with_disorder
from repro import GeneralSlicingOperator, Punctuation, Record, Watermark
from repro.aggregations import First, Max, Median, Sum
from repro.baselines import AggregateTreeOperator, TupleBufferOperator
from repro.core.slots import slot_names
from repro.experiments.harness import INORDER_ONLY_TECHNIQUES, TECHNIQUES
from repro.reference import reference_results
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_MAGIC,
    CheckpointFormatError,
    SnapshotError,
    restore,
    snapshot,
)
from repro.runtime.keyed import KeyedWindowOperator
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
)


def build_operator():
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10_000)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(SessionWindow(5), Sum())
    return operator


class TestSnapshotRestore:
    def test_roundtrip_preserves_future_emissions(self):
        base = [Record(t, float(t % 3)) for t in range(0, 120, 2)]
        stream = shuffled_with_disorder(base, 0.3, 12, seed=4)
        split = len(stream) // 2

        original = build_operator()
        run_operator(original, stream[:split])
        clone = restore(snapshot(original))

        tail = stream[split:] + [Watermark(10_000)]
        original_results = final_values(original, tail)
        clone_results = final_values(clone, tail)
        assert original_results == clone_results
        assert original_results  # the comparison is not vacuous

    def test_snapshot_is_deep(self):
        operator = build_operator()
        run_operator(operator, [Record(t, 1.0) for t in range(15)])
        blob = snapshot(operator)
        run_operator(operator, [Record(t, 1.0) for t in range(15, 40)])
        clone = restore(blob)
        # The clone must still be at the snapshot point: feeding the same
        # suffix yields the same results the original produced.
        suffix = [Record(t, 1.0) for t in range(15, 40)] + [Watermark(35)]
        results = run_operator(clone, suffix)
        assert any(r.end == 30 for r in results)

    def test_restore_rejects_non_operator(self):
        # A well-formed blob whose payload is not an operator: the
        # header check passes, the type check must still catch it --
        # and as a format violation, not a bare TypeError, so callers
        # can handle every corruption mode with one except clause.
        blob = (
            CHECKPOINT_MAGIC
            + CHECKPOINT_FORMAT_VERSION.to_bytes(2, "big")
            + pickle.dumps({"not": "an operator"})
        )
        with pytest.raises(CheckpointFormatError):
            restore(blob)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TupleBufferOperator(stream_in_order=False, allowed_lateness=10_000),
            lambda: AggregateTreeOperator(stream_in_order=False, allowed_lateness=10_000),
        ],
    )
    def test_baselines_snapshot_too(self, factory):
        base = [Record(t, float(t)) for t in range(0, 100, 2)]
        operator = factory()
        operator.add_query(TumblingWindow(20), Sum())
        run_operator(operator, base[:25])
        clone = restore(snapshot(operator))
        tail = base[25:] + [Watermark(10_000)]
        assert final_values(operator, tail) == final_values(clone, tail)

    def test_record_retaining_workload_roundtrips(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10_000)
        operator.add_query(CountTumblingWindow(5), Sum())
        operator.add_query(TumblingWindow(20), Median())
        base = [Record(t, float(t % 7)) for t in range(0, 100, 2)]
        stream = shuffled_with_disorder(base, 0.3, 10, seed=2)
        run_operator(operator, stream[:30])
        clone = restore(snapshot(operator))
        tail = stream[30:] + [Watermark(10_000)]
        assert final_values(operator, tail) == final_values(clone, tail)


class TestCheckpointFormat:
    """Versioned header: restore() refuses anything it cannot trust."""

    def test_snapshot_carries_magic_and_version(self):
        blob = snapshot(build_operator())
        assert blob[:4] == CHECKPOINT_MAGIC
        assert int.from_bytes(blob[4:6], "big") == CHECKPOINT_FORMAT_VERSION

    def test_headered_blob_roundtrips(self):
        operator = build_operator()
        run_operator(operator, [Record(t, 1.0) for t in range(20)])
        clone = restore(snapshot(operator))
        assert isinstance(clone, GeneralSlicingOperator)

    def test_raw_pickle_rejected(self):
        # Pre-versioning blobs (bare pickle, no header) are incompatible.
        with pytest.raises(CheckpointFormatError, match="header"):
            restore(pickle.dumps(build_operator()))

    def test_truncated_blob_rejected(self):
        blob = snapshot(build_operator())
        with pytest.raises(CheckpointFormatError):
            restore(blob[:5])

    def test_future_version_rejected(self):
        blob = snapshot(build_operator())
        future = CHECKPOINT_MAGIC + (CHECKPOINT_FORMAT_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(CheckpointFormatError, match="not supported"):
            restore(future + blob[6:])

    def test_previous_version_rejected(self):
        """A frame of the previous version is refused at its header, even
        around a payload this build could unpickle: each version has one
        layout, and no build restores another's."""
        blob = snapshot(build_operator())
        previous = CHECKPOINT_MAGIC + (CHECKPOINT_FORMAT_VERSION - 1).to_bytes(2, "big")
        with pytest.raises(CheckpointFormatError, match="not supported"):
            restore(previous + blob[6:])

    def test_corrupt_payload_rejected(self):
        blob = bytearray(snapshot(build_operator()))
        blob[10:30] = b"\x00" * 20  # bit-rot inside the pickle payload
        with pytest.raises(CheckpointFormatError, match="corrupt"):
            restore(bytes(blob))

    def test_non_bytes_rejected(self):
        with pytest.raises(CheckpointFormatError):
            restore("not bytes at all")


def _valued_record(ts):
    return Record(ts, float(ts % 7))


def _lagging_operator():
    operator = GeneralSlicingOperator(stream_in_order=False, eager=True, allowed_lateness=100)
    operator.add_query(SlidingWindow(40, 10), Sum())
    operator.add_query(SlidingWindow(40, 10), Max())
    return operator


_LAGGING_HEAD = [_valued_record(ts) for ts in range(55)] + [Watermark(40), _valued_record(45)]
_LAGGING_TAIL = (
    [_valued_record(ts) for ts in range(55, 80)]
    + [_valued_record(12), Watermark(65), _valued_record(33), _valued_record(7)]
    + [_valued_record(ts) for ts in range(80, 110)]
    + [Watermark(1_000)]
)


def _stale_leaves(store):
    """(slice index, function index) of every kernel leaf that lags."""
    return [
        (index, fn_index)
        for fn_index, kernel in enumerate(store.kernels)
        for index, slice_ in enumerate(store.slices)
        if kernel.leaf(index) != slice_.aggs[fn_index]
    ]


class TestFramesAcrossTheDeferredHeadWrite:
    def test_mid_slice_snapshot_keeps_the_mark(self):
        """A frame written now, between a late record and the next
        query, holds a closed slice and a head whose kernel leaves lag
        their partials; ``lag_from`` must come back with them or the next
        window would read a stale leaf."""
        original = _lagging_operator()
        run_operator(original, _LAGGING_HEAD)
        (store,) = original.state_objects()
        # The watermark's window [0, 40) wrote slices 0..3; [40, 50) has
        # closed since and took the late record, and nothing read it.
        assert store.lag_from == 4
        assert _stale_leaves(store) == [(4, 0), (5, 0), (4, 1), (5, 1)]
        clone = restore(snapshot(original))
        (restored,) = clone.state_objects()
        assert restored.lag_from == 4 and _stale_leaves(restored) == _stale_leaves(store)
        clone.check_invariants()
        assert run_operator(clone, _LAGGING_TAIL) == run_operator(original, _LAGGING_TAIL)


def _guarded_operator():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(CountTumblingWindow(4), Sum())
    return operator


def _slicers(operator):
    return [chain.slicer for chain in operator._chain_list]


class TestFramesAcrossTheSlicerGuard:
    def test_mid_slice_snapshot_keeps_the_guard_armed(self, monkeypatch):
        original = _guarded_operator()
        head = [_valued_record(ts) for ts in range(25)]
        collected = final_values(original, head)
        bounds = [(s.open_until, s.open_until_count) for s in _slicers(original)]
        assert bounds == [(30, float("inf")), (float("inf"), 28)]

        clone = restore(snapshot(original))
        assert [(s.open_until, s.open_until_count) for s in _slicers(clone)] == bounds
        clone.check_invariants()

        # Still mid-slice on both chains: the restored guard answers for
        # ts 25 and 26 without the slicer, and the cuts at count 28 and
        # ts 30 go through it.
        entered = []
        slicer_type = type(_slicers(clone)[0])
        ensure = slicer_type.ensure_open_slice
        monkeypatch.setattr(
            slicer_type,
            "ensure_open_slice",
            lambda self, ts, count: entered.append(ts) or ensure(self, ts, count),
        )
        tail = [_valued_record(ts) for ts in range(25, 60)]
        collected.update(final_values(clone, tail[:2]))
        assert entered == []
        collected.update(final_values(clone, tail[2:] + [Watermark(1_000)]))
        assert entered[:3] == [28, 30, 32]  # each chain enters for its own cuts only
        queries = [(TumblingWindow(10), Sum()), (CountTumblingWindow(4), Sum())]
        assert collected == reference_results(queries, head + tail, horizon=1_000)


# ----------------------------------------------------------------------
# the pickled layout of the current format version


def _keyed_factory():
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=100)
    operator.add_query(TumblingWindow(10), Sum())
    return operator


def _general_operator(*, eager, stream_in_order):
    """Every window kind on one operator: a time and a count chain."""
    lateness = {} if stream_in_order else {"allowed_lateness": 100}
    operator = GeneralSlicingOperator(stream_in_order=stream_in_order, eager=eager, **lateness)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(SlidingWindow(40, 10), Median())
    operator.add_query(SlidingWindow(30, 10), Max())
    operator.add_query(SessionWindow(5), Sum())
    operator.add_query(CountTumblingWindow(4), Sum())
    operator.add_query(LastNEveryWindow(5, 10), Max())
    operator.add_query(PunctuationWindow(), Sum())
    if not stream_in_order:
        operator.add_query(TumblingWindow(20), First())
    return operator


def _finger_tree_operator():
    """Out of order, eager, and no window that splits a slice: the
    finger-tree kernel."""
    operator = GeneralSlicingOperator(stream_in_order=False, eager=True, allowed_lateness=100)
    operator.add_query(SlidingWindow(40, 10), Sum())
    operator.add_query(SessionWindow(5), Max())
    return operator


def _baseline(name):
    options = {} if name in INORDER_ONLY_TECHNIQUES else {"stream_in_order": True}
    operator = TECHNIQUES[name](**options)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(SlidingWindow(40, 10), Max())
    if name == "Cutty":
        operator.add_query(PunctuationWindow(), Sum())
    elif name != "Pairs":
        operator.add_query(SessionWindow(5), Sum())
    return operator


def _reference_stream(in_order):
    """Three keys, a session gap every 30, a punctuation every 25 and,
    out of order, a late record and a watermark every 20."""
    elements = []
    for ts in range(120):
        if ts % 30 == 29:
            continue
        elements.append(Record(ts, float(ts % 7), ts % 3))
        if ts % 25 == 24:
            elements.append(Punctuation(ts + 1))
        if not in_order and ts % 20 == 19:
            elements += [Record(ts - 7, 1.0, 0), Watermark(ts - 10)]
    return elements


def _reference_operators():
    """Fresh operators, each with whether its stream is in order."""
    for eager in (False, True):
        for in_order in (True, False):
            yield _general_operator(eager=eager, stream_in_order=in_order), in_order
    yield _finger_tree_operator(), False
    yield KeyedWindowOperator(_keyed_factory), False
    for name in TECHNIQUES:
        if not name.endswith("Slicing"):
            yield _baseline(name), True


def _repro_objects(root):
    """``(object, {attribute or slot name: value})`` for every object of
    a ``repro`` class (enums aside) reachable from ``root``."""
    seen = set()
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            pending += obj.keys()
            pending += obj.values()
            continue
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            pending += obj
            continue
        cls = type(obj)
        if not cls.__module__.startswith("repro.") or isinstance(obj, enum.Enum):
            continue
        attributes = dict(getattr(obj, "__dict__", {}))
        for slot in slot_names(cls):
            if hasattr(obj, slot):
                attributes[slot] = getattr(obj, slot)
        yield obj, attributes
        pending += attributes.values()


def _qualname(obj):
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def _layout(root):
    """``{module.qualname: attribute and slot names}`` of every object
    of a ``repro`` class (enums aside) reachable from ``root``."""
    layout = {}
    for obj, attributes in _repro_objects(root):
        layout.setdefault(_qualname(obj), set()).update(attributes)
    return layout


#: The layout of checkpoint format v4, as restored: per class, its
#: instance attributes and slots, sorted.  Attributes a class derives on
#: restore (``_Chain.accumulators``, ...) are part of it.
_LAYOUT_VERSION = 4
_LAYOUT = {
    "repro.aggregations.basic.Max": "",
    "repro.aggregations.basic.Sum": "",
    "repro.aggregations.holistic.Median": "name q",
    "repro.aggregations.holistic.RleRuns": "runs total",
    "repro.aggregations.ordered.First": "",
    "repro.baselines.buckets.AggregateBucketsOperator": (
        "_advances _arrived _buckets _count_hwm _count_records _dropped_late _edge_hwm _max_ts "
        "_next_query_id _pending _pending_count _query_by_id _sessions _tracer _watermark "
        "allowed_lateness emit_empty on_late_record queries stream_in_order"
    ),
    "repro.baselines.buckets.TupleBucketsOperator": (
        "_advances _arrived _buckets _count_hwm _count_records _dropped_late _edge_hwm _max_ts "
        "_next_query_id _pending _pending_count _query_by_id _sessions _tracer _watermark "
        "allowed_lateness emit_empty on_late_record queries stream_in_order"
    ),
    "repro.baselines.buckets._Bucket": "emitted end partial records start",
    "repro.baselines.slicing.CuttyOperator": (
        "_closed _dropped_late _ends _fn_of_query _functions _index_by_signature _max_ts "
        "_next_edge _next_query_id _open _open_start _prev_emit _starts _tracer emit_empty "
        "on_late_record queries"
    ),
    "repro.baselines.slicing.PairsOperator": (
        "_closed _dropped_late _ends _fn_of_query _functions _index_by_signature _max_ts "
        "_next_edge _next_query_id _open _open_start _prev_emit _starts _tracer emit_empty "
        "on_late_record queries"
    ),
    "repro.baselines.trigger.BufferTriggerEngine": (
        "_count_hwm _emit_empty _emitted _emitted_edges _prev_wm _queries _view evicted_count"
    ),
    "repro.baselines.tuple_buffer.AggregateTreeOperator": (
        "_dropped_late _engine _fn_by_key _max_ts _next_query_id _tracer _trees _ts _values "
        "_watermark allowed_lateness on_late_record queries stream_in_order"
    ),
    "repro.baselines.tuple_buffer.TupleBufferOperator": (
        "_dropped_late _engine _max_ts _next_query_id _tracer _ts _values _watermark "
        "allowed_lateness on_late_record queries stream_in_order"
    ),
    "repro.core.aggregate_store.EagerAggregateStore": (
        "_tracer functions kernel_kinds kernels lag_from slices"
    ),
    "repro.core.aggregate_store.LazyAggregateStore": "_tracer functions slices",
    "repro.core.characteristics.Query": "aggregation name query_id window",
    "repro.core.characteristics.WorkloadCharacteristics": (
        "all_commutative has_context_aware has_count_measure has_sessions needs_splits queries "
        "removal_strategies store_tuples stream_in_order"
    ),
    "repro.core.flatfat.FlatFAT": "_arr _capacity _combine _front _size tracer",
    "repro.core.kernels.FingerTreeKernel": "_combine _root tracer",
    "repro.core.kernels.SubtractOnEvictKernel": "_counts _function _leaves _prefix _start tracer",
    "repro.core.kernels.TwoStacksKernel": "_back _combine _front tracer",
    "repro.core.kernels._FingerNode": "agg dirty items leaf size sizes",
    "repro.core.operator_.GeneralSlicingOperator": (
        "_arrived _chain_list _chains _dropped_late _max_ts _next_query_id _timestamp_of "
        "_tracer _watermark allowed_lateness eager emit_empty kernel on_late_record queries "
        "share_aggregates share_windows stream_in_order"
    ),
    "repro.core.operator_._Chain": (
        "_fixed_edge_windows _fn_index _fn_index_of_query _session_gaps _share_aggregates "
        "_windows accumulators characteristics edges_move functions head_accumulators "
        "kernel_kinds manager measure_kind queries refolds session_windows slicer store "
        "structured window_manager"
    ),
    "repro.core.slice_.Slice": (
        "aggs count_end count_start end end_kind first_ts last_ts record_count records start"
    ),
    "repro.core.slice_manager.SliceManager": (
        "_ceil_time_edge _edge_in_region _floor_time_edge _is_count_edge _store session_gap "
        "store_records tracer track_counts"
    ),
    "repro.core.stream_slicer.StreamSlicer": (
        "_cache_edges _cache_valid _cached_count_edge _cached_time_edge _edges_move "
        "_floor_time_edge _next_count_edge _next_time_edge _store _store_records _track_counts "
        "cut_performed open_until open_until_count tracer"
    ),
    "repro.core.types.Record": "key ts value",
    "repro.core.window_manager.ManagedQuery": "fn_index function query_id window",
    "repro.core.window_manager.WindowManager": (
        "_carries _count_hwm _emit_empty _emitted _emitted_edges _manager _prev_wm _queries "
        "_session_walk _share_windows _store"
    ),
    "repro.runtime.keyed.KeyedWindowOperator": (
        "_by_key _dropped_late _factory _next_query_id _tracer _watermark on_late_record queries"
    ),
    "repro.windows.count.CountTumblingWindow": "length measure_kind offset",
    "repro.windows.multimeasure.LastNEveryWindow": "count every offset",
    "repro.windows.punctuation.PunctuationWindow": "_edges origin",
    "repro.windows.session.SessionWindow": "gap",
    "repro.windows.sliding.SlidingWindow": "length measure_kind offset slide",
    "repro.windows.tumbling.TumblingWindow": "length measure_kind offset",
}


def test_the_pickled_layout_is_the_format_versions():
    """What a frame holds is fixed per format version.  A change to it
    bumps ``CHECKPOINT_FORMAT_VERSION`` (so that :func:`restore` refuses
    frames of the old layout at the header) and re-records ``_LAYOUT``;
    it adds no code that restores the old layout."""
    layout = {}
    for operator, in_order in _reference_operators():
        run_operator(operator, _reference_stream(in_order))
        for name, attributes in _layout(restore(snapshot(operator))).items():
            layout.setdefault(name, set()).update(attributes)
    recorded = {name: set(names.split()) for name, names in _LAYOUT.items()}
    changed = [
        f"{name}: added {sorted(layout.get(name, set()) - recorded.get(name, set()))}, "
        f"gone {sorted(recorded.get(name, set()) - layout.get(name, set()))}"
        for name in sorted(set(recorded) | set(layout))
        if layout.get(name) != recorded.get(name)
    ]
    assert not changed and CHECKPOINT_FORMAT_VERSION == _LAYOUT_VERSION, (
        f"the pickled layout is not the one recorded for checkpoint format "
        f"v{_LAYOUT_VERSION} (CHECKPOINT_FORMAT_VERSION is "
        f"{CHECKPOINT_FORMAT_VERSION}); a change to what a frame holds bumps "
        "CHECKPOINT_FORMAT_VERSION and re-records _LAYOUT and _LAYOUT_VERSION:\n"
        + "\n".join(changed)
    )


def test_snapshot_and_restore_leave_no_state_object_with_a_dict():
    """The state classes of general slicing and of the keyed wrapper
    declare ``__slots__``.  CPython 3.11 keeps an instance's attributes
    inline until something reads its ``__dict__``, and slower through a
    real dict from then on; pickling reads it on every snapshot.  Neither
    the operator a snapshot was taken of nor the one restored from it
    holds an object with a ``__dict__``."""
    for operator, in_order in _reference_operators():
        if not isinstance(operator, (GeneralSlicingOperator, KeyedWindowOperator)):
            continue
        run_operator(operator, _reference_stream(in_order))
        restored = restore(snapshot(operator))
        for root in (operator, restored):
            with_dict = sorted(
                {_qualname(obj) for obj, _ in _repro_objects(root) if hasattr(obj, "__dict__")}
            )
            assert with_dict == [], f"{_qualname(operator)} holds dict-backed {with_dict}"


class LambdaSum(Sum):
    """Picklable class, unpicklable *instance* (closure in state)."""

    def __init__(self):
        super().__init__()
        self.udf = lambda value: value


class TestSnapshotErrors:
    def test_unpicklable_udf_named_in_error(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        bad_query = operator.add_query(TumblingWindow(20), LambdaSum())
        run_operator(operator, [Record(t, 1.0) for t in range(5)])
        with pytest.raises(SnapshotError) as excinfo:
            snapshot(operator)
        message = str(excinfo.value)
        assert f"query {bad_query.query_id}" in message
        assert "LambdaSum" in message


@pytest.mark.fuzz
class TestRestoreCorruptionFuzz:
    """Seeded fuzz over mutated snapshots: restore() must classify every
    corruption as :class:`CheckpointFormatError` (or, when the mutation
    happens to leave a loadable pickle, still return a WindowOperator)
    -- never leak a raw ``pickle``/``EOFError``/``UnicodeDecodeError``.

    Override the schedule with ``REPRO_FUZZ_SEED``.
    """

    TRIALS = 250

    def test_mutated_blobs_never_leak_raw_errors(self):
        import os
        import random

        from repro.core.operator_base import WindowOperator

        rng = random.Random(int(os.environ.get("REPRO_FUZZ_SEED", "90210")))
        operator = build_operator()
        run_operator(operator, [Record(t, float(t % 5)) for t in range(60)])
        blob = snapshot(operator)

        rejected = 0
        for _ in range(self.TRIALS):
            mutated = bytearray(blob)
            mode = rng.randrange(3)
            if mode == 0:  # truncation (torn write)
                mutated = mutated[: rng.randrange(len(mutated))]
            elif mode == 1:  # 1-8 bit flips (media corruption)
                for _ in range(rng.randint(1, 8)):
                    position = rng.randrange(len(mutated) * 8)
                    mutated[position // 8] ^= 1 << (position % 8)
            else:  # splice random garbage over a random span
                at = rng.randrange(len(mutated))
                span = rng.randint(1, 16)
                mutated[at : at + span] = bytes(
                    rng.randrange(256) for _ in range(span)
                )
            try:
                result = restore(bytes(mutated))
            except CheckpointFormatError:
                rejected += 1
            else:
                # A mutation can leave a loadable payload (e.g. a bit
                # flip inside a float); the contract is only that what
                # comes back is an operator.
                assert isinstance(result, WindowOperator)
        # The suite is vacuous if (nearly) every mutation survives.
        assert rejected > self.TRIALS // 2
