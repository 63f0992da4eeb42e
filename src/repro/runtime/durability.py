"""Durable checkpoint storage and poison-record quarantine.

Every checkpoint the supervised and sharded pipelines take used to live
only in supervisor memory: a process crash lost all recovery state, a
torn write or bit flip would have corrupted it silently, and a single
record whose UDF raises deterministically ("poison") killed the whole
run.  This module is the durability layer that closes those three gaps:

* :class:`CheckpointStore` -- the storage interface.  A store keeps the
  last ``keep`` checkpoint *generations* and hands back the newest one
  that still passes integrity checks, so a corrupt generation degrades
  to a longer replay instead of a dead pipeline.
* :class:`InMemoryStore` -- the previous behaviour (checkpoints in
  supervisor memory), now CRC-guarded and multi-generation.
* :class:`DiskCheckpointStore` -- crash-durable checkpoints.  Each
  generation is one CRC32-framed, version-headered file written
  atomically (temp file -> flush -> fsync -> rename -> fsync dir), plus
  garbage collection of generations beyond ``keep``.
  Torn writes, truncation, and bit flips are detected on load
  (:class:`CheckpointCorruptError`) and skipped generation-by-generation
  until a good one is found.
* :class:`DeadLetterQueue` -- bounded-retry quarantine for poison
  records.  The supervisor retries a failing batch a few times
  (transient faults heal), then isolates the culprit, quarantines it
  with its cause, cursor, and attempt count, and continues the run.

Tracing counters (attach a :class:`~repro.core.tracing.Tracer` via the
``tracer`` attribute): ``durability.saves`` / ``durability.bytes_written``
/ ``durability.loads`` / ``durability.corrupt_generations`` /
``durability.fallbacks`` / ``durability.gc_collected`` and
``dlq.retries`` / ``dlq.quarantined``.  See docs/fault_tolerance.md.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Callable, Dict, List, Optional, Set

from ..core.tracing import Tracer
from ..core.types import Record, StreamElement
from .checkpoint import CheckpointError

__all__ = [
    "STORE_MAGIC",
    "STORE_FORMAT_VERSION",
    "CheckpointCorruptError",
    "DeadLetterOverflow",
    "StoredCheckpoint",
    "CheckpointStore",
    "InMemoryStore",
    "DiskCheckpointStore",
    "PoisonRecord",
    "DeadLetterQueue",
]

#: Leading bytes of every durable checkpoint frame ("RSLC on Disk").
STORE_MAGIC = b"RSLD"
#: Current frame layout, see :meth:`DiskCheckpointStore.save`.
STORE_FORMAT_VERSION = 1

#: magic + u16 version + u32 crc32 of everything after this header.
_FRAME_HEADER = struct.Struct(">4sHI")
#: generation, cursor, records_processed, meta length, payload length.
_FRAME_BODY = struct.Struct(">QQQII")


class CheckpointCorruptError(CheckpointError):
    """A stored checkpoint failed its integrity check (torn write, bit
    flip, truncation, or a frame this build cannot parse)."""


class DeadLetterOverflow(RuntimeError):
    """The dead-letter queue's capacity is exhausted; the failure that
    triggered the quarantine escalates to the normal restart path."""


class StoredCheckpoint:
    """One retained generation: the blob plus its recovery coordinates."""

    __slots__ = ("generation", "blob", "cursor", "records_processed", "meta")

    def __init__(
        self,
        generation: int,
        blob: bytes,
        cursor: int,
        records_processed: int,
        meta: Optional[dict] = None,
    ) -> None:
        self.generation = generation
        self.blob = blob
        self.cursor = cursor
        self.records_processed = records_processed
        self.meta = meta if meta is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoredCheckpoint(gen={self.generation}, cursor={self.cursor}, "
            f"records={self.records_processed}, {len(self.blob)} bytes)"
        )


def _encode_meta(meta: Optional[dict]) -> bytes:
    if not meta:
        return b""
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _decode_meta(raw: bytes) -> dict:
    if not raw:
        return {}
    return json.loads(raw.decode("utf-8"))


def _encode_frame(checkpoint: StoredCheckpoint) -> bytes:
    """CRC32-framed, version-headered wire form of one generation."""
    meta = _encode_meta(checkpoint.meta)
    body = (
        _FRAME_BODY.pack(
            checkpoint.generation,
            checkpoint.cursor,
            checkpoint.records_processed,
            len(meta),
            len(checkpoint.blob),
        )
        + meta
        + checkpoint.blob
    )
    return _FRAME_HEADER.pack(STORE_MAGIC, STORE_FORMAT_VERSION, zlib.crc32(body)) + body


def _decode_frame(frame: bytes, origin: str) -> StoredCheckpoint:
    """Parse and integrity-check one frame; raises
    :class:`CheckpointCorruptError` on any mismatch."""
    if len(frame) < _FRAME_HEADER.size:
        raise CheckpointCorruptError(f"{origin}: truncated before the frame header")
    magic, version, crc = _FRAME_HEADER.unpack_from(frame)
    if magic != STORE_MAGIC:
        raise CheckpointCorruptError(
            f"{origin}: missing the {STORE_MAGIC!r} frame magic"
        )
    if version != STORE_FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"{origin}: frame format v{version} is not supported by this "
            f"build (expected v{STORE_FORMAT_VERSION})"
        )
    body = frame[_FRAME_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise CheckpointCorruptError(
            f"{origin}: CRC32 mismatch (torn write or bit rot)"
        )
    if len(body) < _FRAME_BODY.size:
        raise CheckpointCorruptError(f"{origin}: truncated frame body")
    generation, cursor, records, meta_len, payload_len = _FRAME_BODY.unpack_from(body)
    expected = _FRAME_BODY.size + meta_len + payload_len
    if len(body) != expected:
        raise CheckpointCorruptError(
            f"{origin}: frame length {len(body)} != declared {expected}"
        )
    meta_raw = body[_FRAME_BODY.size : _FRAME_BODY.size + meta_len]
    blob = body[_FRAME_BODY.size + meta_len :]
    try:
        meta = _decode_meta(meta_raw)
    except ValueError as exc:
        raise CheckpointCorruptError(f"{origin}: unreadable metadata: {exc}") from exc
    return StoredCheckpoint(generation, blob, cursor, records, meta)


class CheckpointStore:
    """Interface for durable, generation-keeping checkpoint storage.

    A store retains the ``keep`` newest generations.  ``save`` returns
    the new generation number; ``load_latest`` returns the newest
    generation that passes integrity checks -- silently falling back
    (and counting ``durability.fallbacks``) past corrupt ones -- or
    ``None`` when nothing loadable is retained.

    ``corrupt`` and ``frame_size`` exist for the chaos suites: they let
    :class:`~repro.runtime.faults.FaultyStore` model torn writes and bit
    flips against any store implementation.
    """

    #: Optional tracer; assign one to receive ``durability.*`` counters.
    tracer: Optional[Tracer] = None

    def save(
        self,
        blob: bytes,
        *,
        cursor: int,
        records_processed: int,
        meta: Optional[dict] = None,
    ) -> int:
        raise NotImplementedError

    def load(self, generation: int) -> StoredCheckpoint:
        """Load one generation; :class:`CheckpointCorruptError` if it
        fails integrity checks, :class:`KeyError` if not retained."""
        raise NotImplementedError

    def generations(self) -> List[int]:
        """Retained generation numbers, oldest first."""
        raise NotImplementedError

    def corrupt(
        self,
        generation: int,
        *,
        truncate_to: Optional[int] = None,
        flip_bit: Optional[int] = None,
    ) -> None:
        """Damage a stored generation in place (chaos/test hook)."""
        raise NotImplementedError

    def frame_size(self, generation: int) -> int:
        """Stored size in bytes of one generation's frame."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared behaviour

    def _count(self, name: str, n: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, n)

    def load_latest(
        self, *, min_generation: Optional[int] = None
    ) -> Optional[StoredCheckpoint]:
        """Newest generation that passes integrity checks.

        Falls back generation-by-generation past corrupt ones, counting
        each skip.  ``min_generation`` bounds the fallback (a supervisor
        uses it so a fresh run never restores a previous run's state).
        Returns ``None`` when no loadable generation remains.
        """
        candidates = [
            generation
            for generation in reversed(self.generations())
            if min_generation is None or generation >= min_generation
        ]
        for generation in candidates:
            try:
                checkpoint = self.load(generation)
            except CheckpointCorruptError:
                self._count("durability.corrupt_generations")
                self._count("durability.fallbacks")
                continue
            return checkpoint
        return None


class InMemoryStore(CheckpointStore):
    """Checkpoints in supervisor memory (the pre-durability behaviour),
    upgraded to ``keep`` CRC-guarded generations.

    Frames use the same wire format as :class:`DiskCheckpointStore`, so
    the chaos suite's torn-write/bit-flip injection exercises identical
    corruption-detection paths against both stores.
    """

    def __init__(self, *, keep: int = 1, tracer: Optional[Tracer] = None) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.keep = keep
        self.tracer = tracer
        #: generation -> frame bytes (mutable for corrupt()).
        self._frames: Dict[int, bytearray] = {}
        self._next_generation = 0

    def save(self, blob, *, cursor, records_processed, meta=None) -> int:
        generation = self._next_generation
        self._next_generation += 1
        frame = _encode_frame(
            StoredCheckpoint(generation, bytes(blob), cursor, records_processed, meta)
        )
        self._frames[generation] = bytearray(frame)
        self._count("durability.saves")
        self._count("durability.bytes_written", len(frame))
        while len(self._frames) > self.keep:
            oldest = min(self._frames)
            del self._frames[oldest]
            self._count("durability.gc_collected")
        return generation

    def load(self, generation: int) -> StoredCheckpoint:
        frame = self._frames[generation]
        checkpoint = _decode_frame(bytes(frame), f"generation {generation}")
        if checkpoint.generation != generation:
            raise CheckpointCorruptError(
                f"generation {generation}: frame claims to be "
                f"generation {checkpoint.generation}"
            )
        self._count("durability.loads")
        return checkpoint

    def generations(self) -> List[int]:
        return sorted(self._frames)

    def corrupt(self, generation, *, truncate_to=None, flip_bit=None) -> None:
        frame = self._frames[generation]
        if truncate_to is not None:
            del frame[truncate_to:]
        if flip_bit is not None:
            frame[flip_bit // 8] ^= 1 << (flip_bit % 8)

    def frame_size(self, generation: int) -> int:
        return len(self._frames[generation])


class DiskCheckpointStore(CheckpointStore):
    """Crash-durable checkpoint storage: one atomically-written,
    CRC32-framed file per generation, and GC.

    Layout under ``directory`` (the files are the only index)::

        ckpt-00000000000000000042.rsld

    Writes go to ``<name>.tmp`` in the same directory, are flushed and
    ``fsync``-ed, then atomically renamed over the final name; the
    directory entry is fsync-ed as well (where the platform allows), so
    a crash at any point leaves either the previous state or the
    complete new file -- never a half-visible frame.  A crash *between*
    the temp write and the rename leaves only a ``.tmp`` stray, which
    the next garbage-collection sweep removes.

    Opening an existing directory resumes generation numbering from the
    retained files, so checkpoints survive the process -- a new
    supervisor can restore work a dead one left behind.
    """

    _SUFFIX = ".rsld"

    def __init__(
        self,
        directory,
        *,
        keep: int = 3,
        fsync: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        self.fsync = fsync
        self.tracer = tracer
        os.makedirs(self.directory, exist_ok=True)
        retained = self._scan()
        self._next_generation = (retained[-1] + 1) if retained else 0

    # -- paths ---------------------------------------------------------

    def _path(self, generation: int) -> str:
        return os.path.join(self.directory, f"ckpt-{generation:020d}{self._SUFFIX}")

    def _scan(self, names: Optional[List[str]] = None) -> List[int]:
        """Generation numbers present on disk, oldest first.  The frame
        files are the only record of what is retained: nothing else in
        the directory (a ``MANIFEST`` an older version wrote, say) is
        read or required."""
        found = []
        for name in os.listdir(self.directory) if names is None else names:
            if name.startswith("ckpt-") and name.endswith(self._SUFFIX):
                try:
                    found.append(int(name[len("ckpt-") : -len(self._SUFFIX)]))
                except ValueError:
                    continue
        return sorted(found)

    # -- atomic writes -------------------------------------------------

    def _write_atomically(self, path: str, data: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync:
            self._fsync_dir()

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform without dir-fsync
            pass
        finally:
            os.close(fd)

    # -- the store interface -------------------------------------------

    def save(self, blob, *, cursor, records_processed, meta=None) -> int:
        generation = self._next_generation
        self._next_generation += 1
        frame = _encode_frame(
            StoredCheckpoint(generation, bytes(blob), cursor, records_processed, meta)
        )
        self._write_atomically(self._path(generation), frame)
        self._count("durability.saves")
        self._count("durability.bytes_written", len(frame))
        self._collect_garbage()
        return generation

    def _collect_garbage(self) -> None:
        """Drop generations beyond ``keep`` and stray temp files (one
        directory listing per save)."""
        names = os.listdir(self.directory)
        for generation in self._scan(names)[: -self.keep]:
            try:
                os.remove(self._path(generation))
                self._count("durability.gc_collected")
            except OSError:  # pragma: no cover - already gone
                pass
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - already gone
                    pass

    def load(self, generation: int) -> StoredCheckpoint:
        path = self._path(generation)
        try:
            with open(path, "rb") as handle:
                frame = handle.read()
        except FileNotFoundError:
            raise KeyError(generation) from None
        checkpoint = _decode_frame(frame, os.path.basename(path))
        if checkpoint.generation != generation:
            raise CheckpointCorruptError(
                f"{os.path.basename(path)}: frame claims to be "
                f"generation {checkpoint.generation}"
            )
        self._count("durability.loads")
        return checkpoint

    def generations(self) -> List[int]:
        return self._scan()

    def corrupt(self, generation, *, truncate_to=None, flip_bit=None) -> None:
        path = self._path(generation)
        if truncate_to is not None:
            with open(path, "r+b") as handle:
                handle.truncate(truncate_to)
        if flip_bit is not None:
            with open(path, "r+b") as handle:
                handle.seek(flip_bit // 8)
                byte = handle.read(1)
                handle.seek(flip_bit // 8)
                handle.write(bytes([byte[0] ^ (1 << (flip_bit % 8))]))

    def frame_size(self, generation: int) -> int:
        return os.path.getsize(self._path(generation))


# ----------------------------------------------------------------------
# poison-record quarantine


class PoisonRecord:
    """One quarantined record: what failed, where, how often, and why."""

    __slots__ = ("record", "cursor", "attempts", "cause")

    def __init__(
        self, record: Record, cursor: int, attempts: int, cause: BaseException
    ) -> None:
        self.record = record
        self.cursor = cursor
        self.attempts = attempts
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PoisonRecord(cursor={self.cursor}, attempts={self.attempts}, "
            f"cause={type(self.cause).__name__}: {self.cause}, "
            f"record={self.record!r})"
        )


class DeadLetterQueue:
    """Bounded-retry quarantine for records whose processing raises.

    A supervisor with a DLQ attached retries a failing batch up to
    ``max_retries`` times (each retry is a checkpoint restore + replay,
    so transient faults heal); past the budget it isolates the culprit
    record, hands it here, and continues the run without it.

    The queue owns the quarantine, keyed by the supervisor's source
    positions; every pass leaves quarantined records out
    (:meth:`passing`), so a replay neither re-emits nor re-quarantines.

    ``capacity`` bounds the queue; when a quarantine would exceed it,
    :class:`DeadLetterOverflow` is raised and the failure escalates to
    the supervisor's normal restart budget (a stream where *everything*
    is poison should still kill the pipeline).  ``on_poison_record``
    (optional) observes each new :class:`PoisonRecord` exactly once:
    the position is quarantined before the hook runs, so a hook that
    raises escalates like an overflow and is not called again.
    """

    def __init__(
        self,
        *,
        max_retries: int = 2,
        capacity: Optional[int] = None,
        on_poison_record: Optional[Callable[[PoisonRecord], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.max_retries = max_retries
        self.capacity = capacity
        self.on_poison_record = on_poison_record
        self.tracer = tracer
        self.entries: List[PoisonRecord] = []
        self.retries = 0
        #: Positions of the quarantined records.
        self.quarantined: Set[int] = set()
        #: Failures so far of each failing batch, by the batch's position.
        self.batch_failures: Dict[int, int] = {}
        #: Position of the batch being replayed record at a time, if any.
        self.isolating: Optional[int] = None

    def __len__(self) -> int:
        return len(self.entries)

    def record_retry(self) -> None:
        self.retries += 1
        if self.tracer is not None:
            self.tracer.count("dlq.retries")

    def passing(self, cursor: int, batch: List[StreamElement]) -> List[StreamElement]:
        """The batch read at ``cursor`` without its quarantined records."""
        quarantined = self.quarantined
        return [
            element
            for offset, element in enumerate(batch)
            if cursor + offset not in quarantined
        ]

    def note_failure(self, cursor: int) -> bool:
        """Count one failure of the batch at ``cursor``.  True when the
        queue handles it: a retry, or past ``max_retries`` an isolation
        on the next pass.  False when the isolation itself failed (an
        overflow, a raising hook, a fault outside any one record): that
        failure goes to the restart budget."""
        if self.isolating == cursor:
            return False
        count = self.batch_failures.get(cursor, 0) + 1
        self.batch_failures[cursor] = count
        if count <= self.max_retries:
            self.record_retry()
        else:
            self.isolating = cursor
        return True

    def isolated(self, cursor: int) -> None:
        """The batch at ``cursor`` passed, or its culprit is quarantined."""
        self.batch_failures.pop(cursor, None)
        self.isolating = None

    def quarantine(
        self, record: Record, *, cursor: int, attempts: int, cause: BaseException
    ) -> PoisonRecord:
        """Admit one poison record; raises :class:`DeadLetterOverflow`
        when the queue is full."""
        if self.capacity is not None and len(self.entries) >= self.capacity:
            raise DeadLetterOverflow(
                f"dead-letter queue full ({self.capacity} records); "
                f"cannot quarantine record at cursor {cursor}"
            )
        entry = PoisonRecord(record, cursor, attempts, cause)
        self.entries.append(entry)
        self.quarantined.add(cursor)
        if self.tracer is not None:
            self.tracer.count("dlq.quarantined")
        if self.on_poison_record is not None:
            self.on_poison_record(entry)
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeadLetterQueue(quarantined={len(self.entries)}, "
            f"retries={self.retries}, max_retries={self.max_retries})"
        )
