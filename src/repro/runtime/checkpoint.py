"""Operator state checkpointing.

Every operator in this library is a plain Python object graph, so
snapshots are a serialization away.  This module provides the minimal
fault-tolerance story the paper leaves to the host system (Flink's
checkpoints): capture the operator mid-stream, restore it later (or in
another process), and resume with identical emissions.

Snapshots carry a small versioned header (magic + format version) so a
restore can tell a checkpoint from arbitrary bytes and reject blobs
written by an incompatible build, instead of blindly unpickling.  Each
format version has one pickled layout, recorded by
``tests/test_checkpoint.py::test_the_pickled_layout_is_the_format_versions``:
a change to what a frame holds bumps the version, and no class carries
code to restore the layout of another one.

The operator object graph includes the eager store's aggregation
kernels (FlatFAT trees, finger B-trees, two-stacks fronts/backs,
subtract-on-evict prefix arrays), so kernel state rides the same
pickle -- a restored
operator resumes with the exact internal structure, not a rebuilt one
(pinned by ``tests/test_kernel_properties.py`` and the kernel chaos
tests in ``tests/test_chaos_equivalence.py``).

This pairs with the source's replay position: restore the operator from
the snapshot and re-feed the elements after the snapshot point --
standard checkpoint-and-replay semantics.  The checkpoint cadence
belongs to the driver that owns the cursor being checkpointed:
:class:`~repro.runtime.recovery.SupervisedPipeline` in one process, each
shard worker of :class:`~repro.runtime.sharded.ShardedPipeline` across
several.
"""

from __future__ import annotations

import pickle
from typing import Optional

from ..core.operator_base import WindowOperator
from ..core.tracing import Tracer

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointFormatError",
    "SnapshotError",
    "snapshot",
    "restore",
]

#: Leading bytes of every checkpoint blob ("Repro SLiCing").
CHECKPOINT_MAGIC = b"RSLC"
#: Current on-wire layout: MAGIC + 2-byte big-endian version + pickle.
#: Bumped whenever the pickled layout changes; :func:`restore` refuses
#: every other version.
CHECKPOINT_FORMAT_VERSION = 4

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
