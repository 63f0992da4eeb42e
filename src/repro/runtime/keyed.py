"""Keyed window aggregation: one operator instance per record key.

Key partitioning is the paper's parallelization unit (Section 5.3);
within one task, systems like Flink keep independent window state per
key.  :class:`KeyedWindowOperator` reproduces that: records route to a
per-key operator built by a factory, watermarks and punctuations are
broadcast to every key, and emitted results are tagged with their key.
A key first seen after a watermark starts behind it, as the keys that
saw it broadcast do: what arrives late for it is late (out-of-order
per-key operators only; an in-order one starts at its first record).

The wrapper is itself a :class:`~repro.core.operator_base.WindowOperator`,
so keyed aggregation runs unchanged under plain ``process`` calls, under
:class:`~repro.runtime.recovery.SupervisedPipeline`, and inside every
shard worker of :class:`~repro.runtime.sharded.ShardedPipeline`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.operator_base import WindowOperator
from ..core.types import Punctuation, Record, StreamElement, Watermark, WindowResult

__all__ = ["KeyedWindowOperator"]

#: The base class's slot for the late-record hook, which the property of
#: the same name below shadows and stores into.
_late_record_slot = WindowOperator.on_late_record


class KeyedWindowOperator(WindowOperator):
    """Route records to per-key operator instances (lazy creation)."""

    __slots__ = ("_factory", "_by_key", "_watermark")

    def __init__(self, operator_factory: Callable[[], WindowOperator]) -> None:
        self._factory = operator_factory
        # Before super().__init__(): it assigns ``on_late_record``, whose
        # setter below walks the per-key operators.
        self._by_key: Dict[Any, WindowOperator] = {}
        #: The highest watermark broadcast so far, handed to each new key.
        self._watermark: Optional[int] = None
        super().__init__()

    # ------------------------------------------------------------------

    def operator_for(self, key: Any) -> WindowOperator:
        """The per-key operator, created on first use and handed the
        watermark the other keys have seen, unless it is in-order."""
        operator = self._by_key.get(key)
        if operator is None:
            operator = self._factory()
            if self._tracer is not None:
                operator.enable_tracing(self._tracer)
            operator.on_late_record = self.on_late_record
            # An in-order operator refuses a record behind its watermark
            # (``StreamOrderViolation``): it starts at its first record
            # instead.  Any other holds no record yet, so
            # all it can emit is an empty window (``emit_empty``) of a key
            # that did not exist.
            if self._watermark is not None and not getattr(operator, "stream_in_order", False):
                operator.process_watermark(Watermark(self._watermark))
            self._by_key[key] = operator
        return operator

    # Records are dropped by the per-key operators, so the late-record
    # side channel and its count live there.  The hook is kept in the
    # base class's slot: the base ``__getstate__`` already leaves it out
    # of snapshots (of this operator and of every per-key one), so
    # whoever restores one assigns the hook again, which re-wires all keys.

    @property
    def on_late_record(self) -> Optional[Callable[[Record], None]]:
        return _late_record_slot.__get__(self)

    @on_late_record.setter
    def on_late_record(self, hook: Optional[Callable[[Record], None]]) -> None:
        _late_record_slot.__set__(self, hook)
        for operator in self._by_key.values():
            operator.on_late_record = hook

    @property
    def dropped_late_records(self) -> int:
        return sum(operator.dropped_late_records for operator in self._by_key.values())

    def _on_tracing_changed(self) -> None:
        # All per-key operators share the wrapper's counter sink.
        for operator in self._by_key.values():
            if self._tracer is None:
                operator.disable_tracing()
            else:
                operator.enable_tracing(self._tracer)

    @property
    def keys(self) -> List[Any]:
        """Keys with materialized state."""
        return list(self._by_key)

    # ------------------------------------------------------------------

    def _tag(self, results: List[WindowResult], key: Any) -> List[WindowResult]:
        for result in results:
            result.key = key
        return results

    def process_record(self, record: Record) -> List[WindowResult]:
        key = record.key
        operator = self.operator_for(key)
        return self._tag(operator.process_record(record), key)

    def process_watermark(self, watermark: Watermark) -> List[WindowResult]:
        if self._watermark is None or watermark.ts > self._watermark:
            self._watermark = watermark.ts
        results: List[WindowResult] = []
        for key, operator in self._by_key.items():
            results.extend(self._tag(operator.process_watermark(watermark), key))
        return results

    def process_punctuation(self, punctuation: Punctuation) -> List[WindowResult]:
        results: List[WindowResult] = []
        for key, operator in self._by_key.items():
            results.extend(self._tag(operator.process_punctuation(punctuation), key))
        return results

    def process_batch(self, elements: Sequence[StreamElement]) -> List[WindowResult]:
        """Batched ingestion that keeps the per-key fast path.

        Consecutive records with the same key are handed to that key's
        operator as one sub-batch, so its own :meth:`process_batch`
        (the run-based fast path) amortizes slice-edge lookups.  Runs
        never span watermarks, punctuations, or a key change, so the
        per-key element order -- and therefore every emission -- is
        identical to the tuple-at-a-time path.
        """
        results: List[WindowResult] = []
        by_key = self._by_key
        n = len(elements)
        i = 0
        while i < n:
            element = elements[i]
            if not isinstance(element, Record):
                results.extend(self.process(element))
                i += 1
                continue
            key = element.key
            j = i + 1
            while j < n:
                nxt = elements[j]
                if not isinstance(nxt, Record) or nxt.key != key:
                    break
                j += 1
            operator = by_key.get(key)
            if operator is None:
                operator = self.operator_for(key)
            if j - i == 1:
                out = operator.process_record(element)
            else:
                out = operator.process_batch(elements[i:j])
            if out:  # most runs are short and emit nothing
                results.extend(self._tag(out, key))
            i = j
        return results

    def flush(self) -> List[WindowResult]:
        """Flush every key's operator, tagging results as usual."""
        results: List[WindowResult] = []
        for key, operator in self._by_key.items():
            results.extend(self._tag(operator.flush(), key))
        return results

    # ------------------------------------------------------------------

    def state_objects(self) -> list:
        state: list = []
        for operator in self._by_key.values():
            state.extend(operator.state_objects())
        return state

    def check_invariants(self) -> None:
        for operator in self._by_key.values():
            operator.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KeyedWindowOperator(keys={len(self._by_key)})"
