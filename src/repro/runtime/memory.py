"""Memory accounting: deep object sizing and the Table 1 cost models.

The paper measures memory with Nashorn's ``ObjectSizeCalculator``; the
Python equivalent here is :func:`deep_sizeof`, a recursive
``sys.getsizeof`` walk with cycle detection and ``__slots__`` support.

:func:`memory_model` evaluates the analytical formulas of Table 1 so
the benchmarks can compare measured footprints against the paper's
models (same growth shapes, Python constants).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Set

from ..core.slots import slot_names

__all__ = ["deep_sizeof", "memory_model", "TABLE1_ROWS"]

_ATOMIC = (type(None), bool, int, float, complex, str, bytes, bytearray, range)


def deep_sizeof(obj: Any, _seen: Set[int] | None = None) -> int:
    """Deep retained size of ``obj`` in bytes.

    Follows containers, object ``__dict__`` attributes and the
    ``__slots__`` of the object's class and of every base,
    and shared references exactly once (like a retained-heap measure).
    Atomic immutables are counted per reference site visit once.
    """
    seen = _seen if _seen is not None else set()
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    size = sys.getsizeof(obj)
    if isinstance(obj, _ATOMIC):
        return size
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_sizeof(key, seen)
            size += deep_sizeof(value, seen)
        return size
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_sizeof(item, seen)
        return size
    attributes = getattr(obj, "__dict__", None)
    if attributes is not None:
        size += deep_sizeof(attributes, seen)
    for name in slot_names(type(obj)):
        try:
            size += deep_sizeof(getattr(obj, name), seen)
        except AttributeError:
            continue
    return size


#: The memory-model identifiers of Table 1 (row number -> technique).
TABLE1_ROWS: Dict[int, str] = {
    1: "tuple buffer",
    2: "aggregate tree",
    3: "aggregate buckets",
    4: "tuple buckets",
    5: "lazy slicing",
    6: "eager slicing",
    7: "lazy slicing on tuples",
    8: "eager slicing on tuples",
}


def memory_model(
    row: int,
    *,
    num_tuples: int,
    num_slices: int,
    num_windows: int,
    size_tuple: int = 64,
    size_aggregate: int = 32,
    size_bucket_overhead: int = 96,
    avg_tuples_per_window: float | None = None,
) -> float:
    """Evaluate the Table 1 memory-usage model for one technique.

    Parameters mirror the symbols of the table: ``num_tuples`` (|▲|),
    ``num_slices`` (|◖|), ``num_windows`` (|win|) in the allowed
    lateness, and the per-object sizes.  Row 4 additionally needs the
    average number of tuples per window (defaults to
    ``num_tuples / num_windows``).
    """
    if avg_tuples_per_window is None:
        avg_tuples_per_window = num_tuples / num_windows if num_windows else 0.0
    if row == 1:  # tuple buffer: |▲|·size(▲)
        return num_tuples * size_tuple
    if row == 2:  # aggregate tree: |▲|·size(▲) + (|▲|-1)·size(●)
        return num_tuples * size_tuple + max(num_tuples - 1, 0) * size_aggregate
    if row == 3:  # aggregate buckets: |win|·size(●) + |win|·size(bucket)
        return num_windows * (size_aggregate + size_bucket_overhead)
    if row == 4:  # tuple buckets: |win|·[avg(▲/win)·size(▲) + size(bucket)]
        return num_windows * (avg_tuples_per_window * size_tuple + size_bucket_overhead)
    if row == 5:  # lazy slicing: |◖|·size(◖)
        return num_slices * size_aggregate
    if row == 6:  # eager slicing: |◖|·size(◖) + (|◖|-1)·size(●)
        return num_slices * size_aggregate + max(num_slices - 1, 0) * size_aggregate
    if row == 7:  # lazy slicing on tuples: |▲|·size(▲) + |◖|·size(●)
        return num_tuples * size_tuple + num_slices * size_aggregate
    if row == 8:  # eager slicing on tuples
        return (
            num_tuples * size_tuple
            + num_slices * size_aggregate
            + max(num_slices - 1, 0) * size_aggregate
        )
    raise ValueError(f"unknown Table 1 row: {row}")
