"""Process-independent key hashing for key-partitioned execution
(Section 5.3 / 6.4).

The paper parallelizes by key partitioning, "the common approach used
in stream processing systems".  The executor lives in
:mod:`repro.runtime.sharded`; this module owns the one decision every
process of a deployment has to agree on: which integer a key hashes to.
:class:`~repro.runtime.sharded.ShardedPipeline` routes a record to shard
``stable_hash(record.key) % parallelism``.
"""

from __future__ import annotations

import zlib
from typing import Any

__all__ = ["stable_hash"]


def _canonical_bytes(key: Any) -> bytes:
    """A process-independent byte encoding of a partition key.

    Each supported type gets a distinct tag so values that compare
    unequal never collide by encoding (``1`` vs ``"1"`` vs ``b"1"``).
    Containers encode recursively with length prefixes.  Unknown types
    fall back to ``repr`` qualified by the type name -- stable for any
    type whose repr is (namedtuples, enums, dataclasses of the above).
    """
    if key is None:
        return b"n:"
    if isinstance(key, bool):  # before int: True == 1 but tags differ
        return b"B:1" if key else b"B:0"
    if isinstance(key, int):
        return b"i:%d" % key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, float):
        return b"f:" + repr(key).encode("ascii")
    if isinstance(key, (tuple, list)):
        # isinstance, not type lookup: namedtuples must encode as tuples.
        tag = b"t" if isinstance(key, tuple) else b"l"
        parts = [_canonical_bytes(item) for item in key]
        return tag + b":%d:" % len(parts) + b"\x00".join(parts)
    if isinstance(key, (set, frozenset)):
        # One tag for both: {1, 2} == frozenset({1, 2}), and a plain set
        # must never reach the repr fallback -- set iteration order
        # depends on PYTHONHASHSEED, so repr would route the same key to
        # different shards in different processes.
        parts = sorted(_canonical_bytes(item) for item in key)
        return b"F:%d:" % len(parts) + b"\x00".join(parts)
    if isinstance(key, dict):
        parts = sorted(
            _canonical_bytes(k) + b"\x01" + _canonical_bytes(v)
            for k, v in key.items()
        )
        return b"d:%d:" % len(parts) + b"\x00".join(parts)
    return b"r:" + type(key).__qualname__.encode("utf-8") + b":" + repr(key).encode("utf-8")


def stable_hash(key: Any) -> int:
    """A partition hash that is identical across processes and restarts.

    The builtin ``hash()`` is salted per process for ``str``/``bytes``
    (``PYTHONHASHSEED``), so partition assignment would differ between a
    run and its restore -- a restored keyed pipeline would route records
    to the wrong partition's state.  CRC-32 over a canonical encoding is
    unsalted, cheap, and well-mixed for modulo partitioning.
    """
    return zlib.crc32(_canonical_bytes(key))
