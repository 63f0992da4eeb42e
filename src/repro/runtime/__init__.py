"""Runtime substrate: sources, sinks, disorder, metrics, memory,
key-partitioned parallelism, and fault tolerance.

This package replaces the paper's Apache Flink runtime with a pure
Python tuple-at-a-time substrate (see DESIGN.md, substitutions table).
Fault tolerance -- Flink's checkpoint/restart/exactly-once story -- is
provided by :mod:`repro.runtime.checkpoint` (versioned snapshots),
:mod:`repro.runtime.faults` (deterministic fault injection), and
:mod:`repro.runtime.recovery` (the supervised pipeline); see
docs/fault_tolerance.md.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_MAGIC,
    CheckpointError,
    CheckpointFormatError,
    SnapshotError,
    restore,
    snapshot,
)
from .disorder import disorder_fraction, inject_disorder, with_watermarks
from .durability import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    CheckpointCorruptError,
    CheckpointStore,
    DeadLetterOverflow,
    DeadLetterQueue,
    DiskCheckpointStore,
    InMemoryStore,
    PoisonRecord,
    StoredCheckpoint,
)
from .faults import (
    FaultInjectingOperator,
    FaultPlan,
    FaultySource,
    FaultyStore,
    InjectedCrash,
    InjectedFault,
    InjectedOperatorError,
    SourceHiccup,
    TransientStoreError,
    stall_watermarks,
)
from .memory import TABLE1_ROWS, deep_sizeof, memory_model
from .metrics import RecoveryStats, SpanStats, Tracer
from .keyed import KeyedWindowOperator
from .partition import stable_hash
from .pipeline import CollectSink, CountingSink
from .recovery import (
    PipelineFailed,
    RecoveryError,
    RestartPolicy,
    SupervisedPipeline,
)
from .sharded import ShardedPipeline, alignment_key, run_keyed_reference
from .sources import ReplayableSource

__all__ = [
    "inject_disorder",
    "with_watermarks",
    "disorder_fraction",
    "deep_sizeof",
    "memory_model",
    "TABLE1_ROWS",
    "Tracer",
    "SpanStats",
    "RecoveryStats",
    "stable_hash",
    "KeyedWindowOperator",
    "ShardedPipeline",
    "alignment_key",
    "run_keyed_reference",
    "snapshot",
    "restore",
    "CheckpointError",
    "CheckpointFormatError",
    "SnapshotError",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "InMemoryStore",
    "DiskCheckpointStore",
    "StoredCheckpoint",
    "CheckpointCorruptError",
    "STORE_MAGIC",
    "STORE_FORMAT_VERSION",
    "DeadLetterQueue",
    "DeadLetterOverflow",
    "PoisonRecord",
    "FaultPlan",
    "FaultInjectingOperator",
    "FaultySource",
    "InjectedFault",
    "InjectedCrash",
    "InjectedOperatorError",
    "SourceHiccup",
    "FaultyStore",
    "TransientStoreError",
    "stall_watermarks",
    "SupervisedPipeline",
    "RestartPolicy",
    "PipelineFailed",
    "RecoveryError",
    "CollectSink",
    "CountingSink",
    "ReplayableSource",
]
