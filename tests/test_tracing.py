"""Runtime tracing: counter correctness and the zero-cost-off contract.

Two properties matter:

1. When enabled, counters must mean what docs/observability.md says they
   mean -- checked here against hand-derived expectations on streams
   small enough to reason through.
2. When disabled (the default), tracing must be *absent*, not merely
   quiet: no tracer object, no counter storage on any component, and
   bit-identical window results to a traced run.
"""

import pickle

import pytest

from conftest import final_values
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.core.tracing import SpanStats, Tracer
from repro.runtime.checkpoint import restore, snapshot
from repro.runtime.faults import FaultInjectingOperator
from repro.runtime.keyed import KeyedWindowOperator
from repro.windows import SessionWindow, TumblingWindow


def _tumbling_stream():
    """25 records, one per ms at ts 0..24, value 1.0 each."""
    return [Record(ts, 1.0) for ts in range(25)]


class TestTracerAPI:
    def test_count_and_value(self):
        tracer = Tracer()
        tracer.count("a.x")
        tracer.count("a.x", 4)
        tracer.count("b.y", 2)
        assert tracer.value("a.x") == 5
        assert tracer.value("b.y") == 2
        assert tracer.value("missing") == 0

    def test_span_records_calls_and_time(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        with tracer.span("phase"):
            pass
        stats = tracer.spans["phase"]
        assert isinstance(stats, SpanStats)
        assert stats.calls == 2
        assert stats.total_ns >= 0

    def test_snapshot_sorted(self):
        tracer = Tracer()
        tracer.count("z.last")
        tracer.count("a.first")
        snap = tracer.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]

    def test_merge_from_sums_counters(self):
        left, right = Tracer(), Tracer()
        left.count("n", 2)
        right.count("n", 3)
        right.count("only.right")
        left.merge_from([right])
        assert left.value("n") == 5
        assert left.value("only.right") == 1

    def test_matching_prefix(self):
        tracer = Tracer()
        tracer.count("slicer.cuts")
        tracer.count("slicer.slices_created", 2)
        tracer.count("store.range_queries")
        assert tracer.matching("slicer.") == {
            "slicer.cuts": 1,
            "slicer.slices_created": 2,
        }

    def test_format_mentions_counters(self):
        tracer = Tracer()
        tracer.count("operator.records", 7)
        text = tracer.format()
        assert "operator.records" in text
        assert "7" in text

    def test_tracer_pickles(self):
        tracer = Tracer()
        tracer.count("x", 3)
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.value("x") == 3


class TestHandComputedCounters:
    def test_lazy_tumbling_counters(self):
        """TumblingWindow(10) over ts 0..24, flushed by Watermark(100).

        Hand derivation: records fall into three slices [0,10), [10,20),
        [20,30), so 3 slice heads open (one cut + one cached-edge lookup
        each).  The records at ts 10 and 20 trigger [0,10) and [10,20),
        the watermark [20,30); each tumbling window is exactly one slice,
        so 3 range queries combining 1 slice each.  The record at ts 20
        evicts [0,10) (it ends at 20 - 10), the watermark [10,20); the
        open head [20,30) is retained.
        """
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        final = final_values(operator, _tumbling_stream() + [Watermark(100)])
        assert final == {(0, 0, 10): 10.0, (0, 10, 20): 10.0, (0, 20, 30): 5.0}
        assert tracer.value("operator.records") == 25
        assert tracer.value("operator.ooo_records") == 0
        assert tracer.value("slicer.slices_created") == 3
        assert tracer.value("slicer.cuts") == 3
        assert tracer.value("slicer.edge_lookups") == 3
        assert tracer.value("store.range_queries") == 3
        assert tracer.value("store.slices_combined") == 3
        assert tracer.value("store.slices_evicted") == 2

    def test_eager_adds_flatfat_counters(self):
        """Same stream, eager store forced to FlatFAT: the tree traces.

        (Forced because auto-selection gives the invertible in-order Sum
        a subtract-on-evict kernel; see the kernel counter tests below.)
        A slice's leaf is written once, by the first query that reads it,
        not once per record, so the tree work is (capacity c, position i:
        a root path repairs ``bit_length((c + i) // 2)`` nodes, a
        relayout c - 1):

        * ts 0: leaf 0 appended at c=1 -- no inner node yet: 0.
        * ts 10: the cut closes [0,10), which joins the lagging range
          unwritten; append grows to c=2 (relayout: 1) and repairs
          position 1's path (1).  The emit of [0,10) writes the lagging
          slice (position 0 at c=2: 1) and stops short of the new head.
          Nothing ends at or before 10 - 10.  Sum 3.
        * ts 20: [10,20) joins the lagging range; append grows to c=4
          (relayout: 3) and repairs position 2's path (2).  The emit of
          [10,20) writes it (position 1 at c=4: 2).  Behind it the record
          evicts [0,10): position 0 is cleared and its two ancestors
          repaired (2), the leaves stay where they are.  Sum 12.
        * Watermark(100): the query of [20,30) reaches the head, whose
          leaf is written first (position 2 at c=4: 2); evicting [10,20)
          clears position 1 (2).  Sum 16.

        2 relayouts (the two growths; an eviction moves an offset), one
        query per window, and 3 writes as before: two closed slices by a
        deferred flush, one head.  Writing each closed slice at its cut,
        before the tree grew, cost two nodes fewer (14).
        """
        operator = GeneralSlicingOperator(
            stream_in_order=True, eager=True, kernel="flatfat"
        )
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        final = final_values(operator, _tumbling_stream() + [Watermark(100)])
        assert final == {(0, 0, 10): 10.0, (0, 10, 20): 10.0, (0, 20, 30): 5.0}
        assert tracer.value("flatfat.rebuilds") == 2
        assert tracer.value("flatfat.queries") == 3
        assert tracer.value("flatfat.node_updates") == 16
        assert tracer.value("kernel.lag_writes") == 2
        assert tracer.value("kernel.head_syncs") == 1
        assert tracer.value("kernel.evictions") == 2

    def test_inorder_eager_writes_kernels_once_per_slice(self, monkeypatch):
        """An in-order eager run calls ``kernel.update`` at most
        (slices + emitting calls) x functions times.

        SlidingWindow(40, 10) x {Sum, Max} over ts 0..199, one record
        per tick: 20 slices [0,10) .. [190,200).  The 19 cuts write
        nothing; each adds the slice it closes to the lagging range.  The
        first emit, [0,40) at ts 40, writes the four slices that lag by
        then; each of the 15 later emits writes the one slice closed
        since (19 slices, one ``update`` per function: 38).  They all
        stop short of the fresh head.  The closing watermark's four
        windows reach the last head: the first query per function writes
        it, the other three find the leaf already holds its partial (2
        more).  Per-record writes would have been 200 x 2.
        """
        from repro.aggregations import Max
        from repro.core.kernels import SubtractOnEvictKernel, TwoStacksKernel
        from repro.windows import SlidingWindow

        updates = []
        for kernel_class in (SubtractOnEvictKernel, TwoStacksKernel):
            original = kernel_class.update

            def counting(self, index, partial, _original=original):
                updates.append(type(self).__name__)
                return _original(self, index, partial)

            monkeypatch.setattr(kernel_class, "update", counting)

        operator = GeneralSlicingOperator(stream_in_order=True, eager=True)
        operator.add_query(SlidingWindow(40, 10), Sum())
        operator.add_query(SlidingWindow(40, 10), Max())
        tracer = operator.enable_tracing()
        emitting_calls = 0
        for element in [Record(ts, 1.0) for ts in range(200)] + [Watermark(1_000)]:
            if operator.process(element):
                emitting_calls += 1
        slices, functions = tracer.value("slicer.slices_created"), 2
        assert (slices, emitting_calls) == (20, 17)
        assert len(updates) == 40
        assert sorted(set(updates)) == ["SubtractOnEvictKernel", "TwoStacksKernel"]
        assert len(updates) <= (slices + emitting_calls) * functions
        assert tracer.value("kernel.lag_writes") == 19
        assert tracer.value("kernel.head_syncs") == 2

    def test_eager_kernel_counters(self):
        """Eager store: slice traffic reaches the kernels, whatever they
        are.  3 slices open (3 appends); the record at ts 20 evicts
        [0,10) and the final watermark [10,20); the auto-selected
        subtract-on-evict kernel answers the 3 window queries."""
        operator = GeneralSlicingOperator(stream_in_order=True, eager=True)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        final = final_values(operator, _tumbling_stream() + [Watermark(100)])
        assert final == {(0, 0, 10): 10.0, (0, 10, 20): 10.0, (0, 20, 30): 5.0}
        assert tracer.value("kernel.appends") == 3
        assert tracer.value("kernel.evictions") == 2
        assert tracer.value("subtract_on_evict.queries") == 3
        assert tracer.value("flatfat.rebuilds") == 0  # no tree in play

    def test_shared_window_counters(self):
        """Two wide sliding windows ending on every edge share a suffix.

        Windows of 100 and 200 with slide 10 trigger together at each
        edge and span 10/20 slices; the pair ending at the same slice
        index differs only in ``lo``, so the wider one extends the
        shorter one's partial (one ``share.hit`` per trigger batch above
        the ``share_min_savings`` crossover).
        """
        from repro.windows import SlidingWindow

        stream = [Record(ts, 1.0) for ts in range(0, 400, 2)]

        def build(**kwargs):
            operator = GeneralSlicingOperator(stream_in_order=True, **kwargs)
            operator.add_query(SlidingWindow(100, 10), Sum())
            operator.add_query(SlidingWindow(200, 10), Sum())
            return operator

        operator = build()
        tracer = operator.enable_tracing()
        for element in stream + [Watermark(1_000)]:
            operator.process(element)
        assert tracer.value("share.requests") > 0
        assert tracer.value("share.hits") >= 2
        # Sharing off: same stream, no share counters at all.
        plain = build(share_windows=False)
        plain_tracer = plain.enable_tracing()
        for element in stream + [Watermark(1_000)]:
            plain.process(element)
        assert plain_tracer.value("share.requests") == 0
        assert plain_tracer.value("share.hits") == 0

    def test_share_plan_skipped_below_savings_threshold(self):
        """Short slice ranges resolve directly: the plan's grouping
        would cost more than the combines it saves, so the share
        counters never fire even with sharing enabled."""
        from repro.windows import SlidingWindow

        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(SlidingWindow(10, 10), Sum())
        operator.add_query(SlidingWindow(20, 10), Sum())
        tracer = operator.enable_tracing()
        for ts in range(0, 100, 2):
            operator.process(Record(ts, 1.0))
        operator.process(Watermark(1_000))
        assert tracer.value("share.requests") == 0
        assert tracer.value("share.hits") == 0

    def test_out_of_order_record_counters(self):
        """ts=5 arrives after ts=20: one out-of-order insert, no split
        (the record lands inside the existing slice [0,10))."""
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=1000)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        for record in [Record(0, 1.0), Record(20, 1.0), Record(5, 1.0)]:
            operator.process(record)
        assert tracer.value("operator.records") == 3
        assert tracer.value("operator.ooo_records") == 1
        assert tracer.value("slice_manager.ooo_records") == 1
        assert tracer.value("slice_manager.splits") == 0

    def test_session_late_record_splits_slice(self):
        """A late record falling between two sessions splits the slicer's
        coarse slice to host it (1 split), and both late arrivals count."""
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=1000)
        operator.add_query(SessionWindow(5), Sum())
        tracer = operator.enable_tracing()
        for record in [Record(0, 1.0), Record(20, 1.0), Record(11, 1.0), Record(16, 1.0)]:
            operator.process(record)
        assert tracer.value("slice_manager.ooo_records") == 2
        assert tracer.value("slice_manager.splits") == 1

    def test_late_drop_counter(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=0)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        operator.process(Record(50, 1.0))
        operator.process(Watermark(60))
        operator.process(Record(10, 1.0))  # behind the watermark: dropped
        assert tracer.value("operator.late_drops") == 1

    def test_batched_ingest_counters(self):
        """process_batch routes in-order chunks through the bulk path.

        The three records that open a new slice (ts 0, 10, 20) take the
        per-record path; the other 22 flow through bulk appends.  Every
        record counts toward ``operator.records`` regardless of path.
        """
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        operator.process_batch(_tumbling_stream())
        assert tracer.value("operator.records") == 25
        assert tracer.value("batch.bulk_records") == 22
        assert tracer.value("batch.bulk_runs") == 3

    def test_checkpoint_byte_counters(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = Tracer()
        blob = snapshot(operator, tracer=tracer)
        assert tracer.value("checkpoint.snapshots") == 1
        assert tracer.value("checkpoint.bytes_written") == len(blob)
        restore(blob, tracer=tracer)
        assert tracer.value("checkpoint.restores") == 1
        assert tracer.value("checkpoint.bytes_restored") == len(blob)

    @pytest.mark.parametrize("keyed", [False, True], ids=["plain", "keyed"])
    def test_fault_wrapper_forwards_tracing(self, keyed):
        """100 records through the wrapper are 100 ``operator.records`` on
        the wrapper's tracer: what it wraps (and, keyed, every per-key
        operator under that) shares the one counter sink."""
        inner = KeyedWindowOperator(_keyed_factory) if keyed else _keyed_factory()
        operator = FaultInjectingOperator(inner)
        tracer = operator.enable_tracing()
        assert inner.tracer is tracer
        for ts in range(100):
            operator.process(Record(ts, 1.0, key=ts % 3))
        assert tracer.value("operator.records") == 100
        operator.disable_tracing()
        assert inner.tracer is None
        operator.process(Record(100, 1.0, key=0))
        assert tracer.value("operator.records") == 100


class TestDisabledTracing:
    def test_off_by_default_and_nowhere_on_components(self):
        operator = GeneralSlicingOperator(stream_in_order=True, eager=True)
        operator.add_query(TumblingWindow(10), Sum())
        assert operator.tracer is None
        for chain in operator._chains.values():
            assert chain.slicer.tracer is None
            assert chain.manager.tracer is None
            assert chain.store.tracer is None

    def test_results_identical_with_and_without_tracing(self):
        stream = _tumbling_stream() + [Watermark(100)]

        def build():
            operator = GeneralSlicingOperator(stream_in_order=True)
            operator.add_query(TumblingWindow(10), Sum())
            return operator

        plain = build()
        traced = build()
        traced.enable_tracing()
        assert final_values(plain, stream) == final_values(traced, stream)

    def test_disable_detaches_everywhere_but_keeps_counts(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        operator.process(Record(0, 1.0))
        operator.disable_tracing()
        assert operator.tracer is None
        for chain in operator._chains.values():
            assert chain.slicer.tracer is None
            assert chain.manager.tracer is None
            assert chain.store.tracer is None
        # The detached tracer keeps what it saw; nothing new accrues.
        seen = tracer.value("operator.records")
        operator.process(Record(1, 1.0))
        assert tracer.value("operator.records") == seen == 1

    def test_tracer_survives_query_set_changes(self):
        """add_query rebuilds the chains; the tracer must re-attach."""
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        tracer = operator.enable_tracing()
        operator.process(Record(0, 1.0))
        operator.add_query(TumblingWindow(20), Sum())
        operator.process(Record(1, 1.0))
        assert operator.tracer is tracer
        assert tracer.value("operator.records") == 2
        for chain in operator._chains.values():
            assert chain.slicer.tracer is tracer

    def test_external_tracer_can_be_shared(self):
        shared = Tracer()
        a = GeneralSlicingOperator(stream_in_order=True)
        a.add_query(TumblingWindow(10), Sum())
        b = GeneralSlicingOperator(stream_in_order=True)
        b.add_query(TumblingWindow(10), Sum())
        assert a.enable_tracing(shared) is shared
        b.enable_tracing(shared)
        a.process(Record(0, 1.0))
        b.process(Record(0, 1.0))
        assert shared.value("operator.records") == 2


class TestKeyedTracing:
    def test_keyed_operators_share_the_wrapper_tracer(self):
        operator = KeyedWindowOperator(_keyed_factory)
        tracer = operator.enable_tracing()
        for ts, key in [(0, "a"), (1, "b"), (2, "a"), (3, "c")]:
            operator.process(Record(ts, 1.0, key=key))
        assert tracer.value("operator.records") == 4
        for key in operator.keys:
            assert operator.operator_for(key).tracer is tracer

    def test_keyed_disable_propagates(self):
        operator = KeyedWindowOperator(_keyed_factory)
        operator.enable_tracing()
        operator.process(Record(0, 1.0, key="a"))
        operator.disable_tracing()
        assert operator.operator_for("a").tracer is None


def _keyed_factory():
    inner = GeneralSlicingOperator(stream_in_order=True)
    inner.add_query(TumblingWindow(10), Sum())
    return inner
