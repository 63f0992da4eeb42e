"""Operator state checkpointing.

Every operator in this library is a plain Python object graph, so
snapshots are a serialization away.  This module provides the minimal
fault-tolerance story the paper leaves to the host system (Flink's
checkpoints): capture the operator mid-stream, restore it later (or in
another process), and resume with identical emissions.

Snapshots carry a small versioned header (magic + format version) so a
restore can tell a checkpoint from arbitrary bytes and reject blobs
written by an incompatible build, instead of blindly unpickling.

The operator object graph includes the eager store's aggregation
kernels (FlatFAT trees, finger B-trees, two-stacks fronts/backs,
subtract-on-evict prefix arrays), so kernel state rides the same
pickle -- a restored
operator resumes with the exact internal structure, not a rebuilt one
(pinned by ``tests/test_kernel_properties.py`` and the kernel chaos
tests in ``tests/test_chaos_equivalence.py``).

This pairs with the source's replay position: restore the operator from
the snapshot and re-feed the elements after the snapshot point --
standard checkpoint-and-replay semantics.  The supervised driver built
on top lives in :mod:`repro.runtime.recovery`.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Optional, Sequence

from ..core.operator_base import WindowOperator
from ..core.tracing import Tracer
from ..core.types import Record, StreamElement

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointFormatError",
    "SnapshotError",
    "snapshot",
    "restore",
    "CheckpointingOperator",
]

#: Leading bytes of every checkpoint blob ("Repro SLiCing").
CHECKPOINT_MAGIC = b"RSLC"
#: Current on-wire layout: MAGIC + 2-byte big-endian version + pickle.
CHECKPOINT_FORMAT_VERSION = 1

_HEADER_LEN = len(CHECKPOINT_MAGIC) + 2


class CheckpointError(ValueError):
    """Base class for checkpoint serialization failures."""


class CheckpointFormatError(CheckpointError):
    """The blob is not a checkpoint, or an incompatible/corrupt one."""


class SnapshotError(CheckpointError):
    """The operator's state cannot be serialized (unpicklable UDF)."""


def _unpicklable_message(operator: WindowOperator, cause: Exception) -> str:
    """Name the offending UDF when an aggregation cannot be pickled."""
    offenders = []
    for query in getattr(operator, "queries", []) or []:
        aggregation = query.aggregation
        try:
            pickle.dumps(aggregation, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            offenders.append(
                f"query {query.query_id} ({type(aggregation).__name__})"
            )
    if offenders:
        return (
            "cannot snapshot operator: the aggregation of "
            + ", ".join(offenders)
            + " holds an unpicklable object (typically a lambda or a "
            "closure defined inside a function); define the UDF at module "
            "level so pickle can reference it by name"
        )
    return f"cannot snapshot operator: {cause}"


def snapshot(operator: WindowOperator, *, tracer: Optional[Tracer] = None) -> bytes:
    """Serialize the operator's full state (queries, slices, bookkeeping).

    The result starts with a versioned header understood by
    :func:`restore`.  Raises :class:`SnapshotError` naming the offending
    aggregation when the state holds an unpicklable UDF.  ``tracer``
    (optional) records ``checkpoint.snapshots`` / ``checkpoint.bytes_written``.
    """
    try:
        payload = pickle.dumps(operator, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(_unpicklable_message(operator, exc)) from exc
    blob = (
        CHECKPOINT_MAGIC
        + CHECKPOINT_FORMAT_VERSION.to_bytes(2, "big")
        + payload
    )
    if tracer is not None:
        tracer.count("checkpoint.snapshots")
        tracer.count("checkpoint.bytes_written", len(blob))
    return blob


def restore(blob: bytes, *, tracer: Optional[Tracer] = None) -> WindowOperator:
    """Rebuild an operator from a snapshot; processing can resume as if
    uninterrupted.

    Rejects blobs without the checkpoint header, blobs written with an
    unsupported format version, and corrupt payloads with a
    :class:`CheckpointFormatError` instead of an arbitrary unpickle.
    ``tracer`` records ``checkpoint.restores`` / ``checkpoint.bytes_restored``.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise CheckpointFormatError(
            f"checkpoint must be bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    if len(blob) < _HEADER_LEN or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            "not a checkpoint blob: missing the "
            f"{CHECKPOINT_MAGIC!r} header (was it produced by snapshot()?)"
        )
    version = int.from_bytes(blob[len(CHECKPOINT_MAGIC) : _HEADER_LEN], "big")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointFormatError(
            f"checkpoint format v{version} is not supported by this build "
            f"(expected v{CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        operator = pickle.loads(blob[_HEADER_LEN:])
    except Exception as exc:
        raise CheckpointFormatError(f"corrupt checkpoint payload: {exc}") from exc
    if not isinstance(operator, WindowOperator):
        # Still a format violation, not a caller type error: a mutated
        # payload can unpickle cleanly into the wrong object.
        raise CheckpointFormatError(
            f"snapshot does not contain a WindowOperator: {type(operator)!r}"
        )
    if tracer is not None:
        tracer.count("checkpoint.restores")
        tracer.count("checkpoint.bytes_restored", len(blob))
    return operator


class CheckpointingOperator(WindowOperator):
    """Wrapper that snapshots the inner operator every N records.

    The latest snapshot and the number of records processed since it are
    exposed so a driver can implement replay-from-checkpoint recovery::

        guarded = CheckpointingOperator(operator, every=10_000)
        ...
        recovered = restore(guarded.last_snapshot)
        # re-feed the guarded.records_since_snapshot most recent records

    Batched ingestion counts toward the same cadence: a batch's records
    are added to ``records_since_snapshot`` and the threshold is checked
    at the batch boundary, so a snapshot never captures mid-batch state.
    ``on_checkpoint`` (optional) is invoked with each new snapshot blob.
    """

    def __init__(
        self,
        inner: WindowOperator,
        every: int = 10_000,
        *,
        on_checkpoint: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        super().__init__()
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {every}")
        self.inner = inner
        self.every = every
        self.on_checkpoint = on_checkpoint
        self.last_snapshot: bytes = snapshot(inner)
        self.records_since_snapshot = 0
        self.snapshots_taken = 0

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["on_checkpoint"] = None
        return state

    def add_query(self, window, aggregation):
        query = self.inner.add_query(window, aggregation)
        self.last_snapshot = snapshot(self.inner)
        self.records_since_snapshot = 0
        return query

    def remove_query(self, query_id: int) -> None:
        self.inner.remove_query(query_id)
        self.last_snapshot = snapshot(self.inner)
        self.records_since_snapshot = 0

    @property
    def queries(self):  # type: ignore[override]
        return self.inner.queries

    @queries.setter
    def queries(self, value: Any) -> None:
        # WindowOperator.__init__ assigns an empty list; route nothing.
        pass

    def process_record(self, record):
        results = self.inner.process_record(record)
        self.records_since_snapshot += 1
        if self.records_since_snapshot >= self.every:
            self.checkpoint()
        return results

    def process_watermark(self, watermark):
        return self.inner.process_watermark(watermark)

    def process_punctuation(self, punctuation):
        return self.inner.process_punctuation(punctuation)

    def process_batch(self, elements: Sequence[StreamElement]):
        """Batch entry point on the inner operator's fast path.

        The checkpoint cadence is only evaluated after the whole batch
        has been absorbed: snapshots are taken at batch boundaries, never
        of half-applied batches.
        """
        results = self.inner.process_batch(elements)
        self.records_since_snapshot += sum(
            1 for element in elements if isinstance(element, Record)
        )
        if self.records_since_snapshot >= self.every:
            self.checkpoint()
        return results

    def flush(self):
        # The wrapper holds no stream position of its own; flushing is
        # the inner operator's business (and takes no snapshot: flush
        # emits results, it does not ingest records).
        return self.inner.flush()

    def _on_tracing_changed(self) -> None:
        # The wrapper and the wrapped operator share one counter sink.
        if self._tracer is None:
            self.inner.disable_tracing()
        else:
            self.inner.enable_tracing(self._tracer)

    def checkpoint(self) -> bytes:
        """Take a snapshot now; returns the serialized state."""
        self.last_snapshot = snapshot(self.inner, tracer=self._tracer)
        self.records_since_snapshot = 0
        self.snapshots_taken += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(self.last_snapshot)
        return self.last_snapshot

    def state_objects(self) -> list:
        return self.inner.state_objects()

    def check_invariants(self) -> None:
        self.inner.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CheckpointingOperator(every={self.every}, "
            f"snapshots={self.snapshots_taken}, inner={self.inner!r})"
        )
