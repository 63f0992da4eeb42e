"""Outside-in span tracing of the measured layers.

For the duration of one traced run the layers' public methods are
replaced, at class (or module) level and from this file only, by
wrappers that record a span per call; the originals are put back
afterwards.  Nothing inside ``src/`` knows it is being traced.

A span is (layer, start, end, parent).  Open spans live on a stack; a
closed span is folded into its method's totals (calls, duration, the
part of that duration its child spans cover, child count) and, when raw
spans were asked for, appended to an in-memory list that the caller
writes out after the run.  A layer's self time is its spans' duration
minus the part their children cover.

Aggregation ``lift``/``combine``/``lower`` are deliberately not wrapped:
their time is the calling layer's self time.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core import aggregate_store, flatfat, kernels, operator_, slice_, slice_manager
from repro.core import stream_slicer, window_manager
from repro.runtime import checkpoint, durability, keyed, partition, recovery, sharded

#: layer -> (owner, public names).  A class owner is patched on the
#: class; a module owner is patched in every ``repro`` module that
#: imported the function by name.
TARGETS: Dict[str, List[Tuple[object, Tuple[str, ...]]]] = {
    "operator": [
        (operator_.GeneralSlicingOperator,
         ("process_record", "process_watermark", "process_punctuation", "process_batch")),
    ],
    "slicer": [
        (stream_slicer.StreamSlicer, ("ensure_open_slice", "after_record", "invalidate_cache")),
    ],
    "slice": [
        (slice_.Slice,
         ("add_inorder", "add_run", "add_out_of_order", "recompute", "remove_last_record",
          "prepend_record", "merge_from", "split_at", "split_at_count", "split_empty_at")),
    ],
    "slice_manager": [
        (slice_manager.SliceManager,
         ("add_inorder", "add_out_of_order", "split_time", "ensure_count_boundary", "merge_boundary")),
    ],
    "store": [
        (aggregate_store.AggregateStore,
         ("find_index", "neighbors", "index_of", "append_slice", "insert_slice", "remove_slice",
          "slice_updated", "evict_before", "range_indices", "query_time", "query_slices",
          "count_range_indices", "query_count")),
        (aggregate_store.EagerAggregateStore,
         ("append_slice", "insert_slice", "remove_slice", "slice_updated", "evict_before",
          "query_slices")),
        (aggregate_store.SharedQueryPlan, ("request", "execute")),
    ],
    "kernel": [
        (cls, ("append", "extend", "update", "insert", "remove", "remove_front", "query"))
        for cls in (kernels.TwoStacksKernel, kernels.SubtractOnEvictKernel,
                    kernels.FingerTreeKernel, flatfat.FlatFAT)
    ],
    "window_manager": [
        (window_manager.WindowManager,
         ("advance", "on_modification", "current_sessions", "prune_emitted")),
    ],
    "keyed": [
        (keyed.KeyedWindowOperator,
         ("process_record", "process_watermark", "process_punctuation", "process_batch", "flush")),
    ],
    "partition": [(partition, ("stable_hash",))],
    "sharded": [(sharded.ShardedPipeline, ("run",))],
    "checkpoint": [(checkpoint, ("snapshot", "restore"))],
    "durability": [
        (durability.DiskCheckpointStore, ("save", "load")),
        (durability.CheckpointStore, ("load_latest",)),
    ],
    "recovery": [(recovery.SupervisedPipeline, ("run",))],
}

CORE_LAYERS = ("operator", "slicer", "slice", "slice_manager", "store", "kernel", "window_manager")

#: (layer, method) of spans whose return value has a length worth
#: summing (results emitted, bytes snapshotted).
_SIZED = {("window_manager", "advance"), ("window_manager", "on_modification"), ("checkpoint", "snapshot")}

# Indices into a method's totals.
CALLS, DURATION, CHILD_TIME, CHILDREN, SIZE = range(5)


class SpanTracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self, keep_spans: bool = False) -> None:
        #: (layer, owner name, method) -> [calls, duration_ns, child_ns, children, size].
        #: The owner is part of the key because an override that calls
        #: ``super()`` opens two spans for one logical call.
        self.totals: Dict[Tuple[str, str, str], List[int]] = {}
        #: (key, start_ns, end_ns, parent span index or -1), only when asked for.
        self.spans: Optional[list] = [] if keep_spans else None
        self._stack: list = []
        self._opened = 0

    # ------------------------------------------------------------------

    def _wrap(self, function, key: Tuple[str, str, str]):
        totals = self.totals.setdefault(key, [0, 0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        sized = (key[0], key[2]) in _SIZED
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            index = self._opened
            self._opened = index + 1
            frame = [0, 0, index]  # child_ns, children, span index
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
                if sized:
                    totals[SIZE] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[CALLS] += 1
                totals[DURATION] += duration
                totals[CHILD_TIME] += frame[0]
                totals[CHILDREN] += frame[1]
                parent = -1
                if stack:
                    above = stack[-1]
                    above[0] += duration
                    above[1] += 1
                    parent = above[2]
                if spans is not None:
                    spans.append((key, start, end, parent))

        return span

    @contextlib.contextmanager
    def installed(self, layers: Iterable[str]) -> Iterator["SpanTracer"]:
        """Patch the given layers; always restore the originals."""
        undo: list = []
        try:
            for layer in layers:
                for owner, names in TARGETS[layer]:
                    for name in names:
                        original = vars(owner)[name]
                        wrapper = self._wrap(original, (layer, owner.__name__, name))
                        for holder in _holders(owner, name, original):
                            setattr(holder, name, wrapper)
                            undo.append((holder, name, original))
            yield self
        finally:
            for holder, name, original in reversed(undo):
                setattr(holder, name, original)

    # ------------------------------------------------------------------
    # reading the totals

    def _select(self, layer: str, method: str, owner: Optional[str]) -> Iterator[List[int]]:
        for (span_layer, span_owner, span_method), totals in self.totals.items():
            if span_layer == layer and span_method == method and owner in (None, span_owner):
                yield totals

    def calls(self, layer: str, method: str, owner: Optional[str] = None) -> int:
        """Calls of one method, over every owner or a single one."""
        return sum(t[CALLS] for t in self._select(layer, method, owner))

    def size(self, layer: str, method: str) -> int:
        return sum(t[SIZE] for t in self._select(layer, method, None))

    def duration_s(self, layer: str, method: str) -> float:
        return sum(t[DURATION] for t in self._select(layer, method, None)) / 1e9

    def span_count(self) -> int:
        return sum(t[CALLS] for t in self.totals.values())

    def layer_self_s(self, layer: str, cost: "SpanCost") -> Tuple[float, float]:
        """(raw, net) self seconds of one layer.

        Raw is duration minus child durations.  Net also takes out what
        the wrappers themselves add: each span's own clock reads fall
        inside it (``inner_ns``), and each child's call overhead falls
        between the child's clock reads and the parent's, i.e. into the
        parent's self time (``outer_ns``).  Without this a cheap layer
        that is called often looks expensive.
        """
        raw = net = 0
        for key, totals in self.totals.items():
            if key[0] == layer:
                self_ns = totals[DURATION] - totals[CHILD_TIME]
                raw += self_ns
                net += self_ns - totals[CALLS] * cost.inner_ns - totals[CHILDREN] * cost.outer_ns
        return raw / 1e9, max(net, 0) / 1e9


def _holders(owner, name: str, original) -> list:
    """Where ``original`` must be replaced: the class itself, or every
    ``repro`` module that holds the function under that name."""
    if isinstance(owner, type):
        return [owner]
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.") and vars(module).get(name) is original
    ]


# ----------------------------------------------------------------------
# what one span costs


class SpanCost:
    """Per-span wrapper overhead, measured at start-up."""

    def __init__(self, inner_ns: float, outer_ns: float) -> None:
        self.inner_ns = inner_ns
        self.outer_ns = outer_ns

    @property
    def total_ns(self) -> float:
        return self.inner_ns + self.outer_ns


def calibrate_span_cost(calls: int = 100_000, repeats: int = 5) -> SpanCost:
    """Time ``calls`` wrapped no-op calls under one enclosing span,
    ``repeats`` times over, and keep the fastest of each part: a
    calibration caught by a slow moment of the host would otherwise be
    subtracted from every layer."""

    def noop() -> None:
        return None

    def loop(callee) -> None:
        for _ in range(calls):
            callee()

    clock = time.perf_counter_ns
    loop_key, noop_key = ("calibration", "", "loop"), ("calibration", "", "noop")
    inner_ns, outer_ns = [], []
    for _ in range(repeats):
        start = clock()
        loop(noop)
        bare_ns = clock() - start
        tracer = SpanTracer()
        tracer._wrap(loop, loop_key)(tracer._wrap(noop, noop_key))
        outer, inner = tracer.totals[loop_key], tracer.totals[noop_key]
        inner_ns.append(inner[DURATION] / calls)
        outer_ns.append(max(outer[DURATION] - outer[CHILD_TIME] - bare_ns, 0) / calls)
    return SpanCost(inner_ns=min(inner_ns), outer_ns=min(outer_ns))
