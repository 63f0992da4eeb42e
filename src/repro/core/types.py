"""Stream element types shared by every operator in the library.

A stream is a (possibly unbounded) iterable of *stream elements*.  The
library distinguishes three kinds of elements, mirroring Section 2 of the
paper:

* :class:`Record` -- a data tuple carrying an event-time timestamp and a
  payload value.  Records may arrive out-of-order with respect to their
  event-times.
* :class:`Watermark` -- a low-watermark punctuation: a promise by the
  source that no record with an event-time smaller than the watermark's
  timestamp will arrive later.  Window operators use watermarks to decide
  when windows may safely be emitted on out-of-order streams.
* :class:`Punctuation` -- a window punctuation marking a window start or
  end position inside the stream (used by forward-context-free
  punctuation-based windows, Section 4.4).

Timestamps are plain integers.  Following Section 4.3 of the paper, a
"timestamp" can represent event-time (e.g. milliseconds), a tuple count,
or any other monotonically advancing measure; the slicing logic never
interprets the unit.
"""

from __future__ import annotations

from typing import Any, Iterable, Union

__all__ = [
    "Record",
    "Watermark",
    "Punctuation",
    "StreamElement",
    "WindowResult",
    "is_in_order",
]


class Record:
    """A single data tuple of the stream.

    Parameters
    ----------
    ts:
        Event-time timestamp (or any advancing measure) of the record.
    value:
        The aggregated payload.  Most aggregate functions expect a number
        but any value accepted by the aggregation's ``lift`` works.
    key:
        Optional partitioning key (used by key-partitioned parallelism).
    """

    __slots__ = ("ts", "value", "key")

    def __init__(self, ts: int, value: Any, key: Any = None) -> None:
        self.ts = ts
        self.value = value
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.key is None:
            return f"Record(ts={self.ts}, value={self.value!r})"
        return f"Record(ts={self.ts}, value={self.value!r}, key={self.key!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self.ts == other.ts
            and self.value == other.value
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.ts, self.value, self.key))


class Watermark:
    """A low-watermark: no later record will have ``record.ts < ts``."""

    __slots__ = ("ts",)

    def __init__(self, ts: int) -> None:
        self.ts = ts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Watermark(ts={self.ts})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Watermark) and self.ts == other.ts

    def __hash__(self) -> int:
        return hash(("wm", self.ts))


class Punctuation:
    """A window punctuation embedded in the stream.

    ``kind`` is ``"start"`` or ``"end"``; the punctuation marks a window
    edge at timestamp ``ts`` for punctuation-based (forward context free)
    window types.
    """

    __slots__ = ("ts", "kind")

    START = "start"
    END = "end"

    def __init__(self, ts: int, kind: str = END) -> None:
        if kind not in (self.START, self.END):
            raise ValueError(f"punctuation kind must be 'start' or 'end', got {kind!r}")
        self.ts = ts
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Punctuation(ts={self.ts}, kind={self.kind!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Punctuation) and self.ts == other.ts and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("punct", self.ts, self.kind))


StreamElement = Union[Record, Watermark, Punctuation]


class WindowResult:
    """One emitted window aggregate.

    Attributes
    ----------
    query_id:
        Identifier of the query this window belongs to (assigned when the
        query is registered with an operator).
    start, end:
        Window boundaries, half-open interval ``[start, end)`` in the
        query's windowing measure.
    value:
        The final (lowered) aggregate of the window.
    is_update:
        ``True`` when the result was emitted by the late path: a record
        behind the watermark, within the allowed lateness, changed the
        window.  It *may* replace an earlier result for the same window;
        it is the first one when the window had been empty until then
        (empty windows are not emitted).  The operator does not
        remember what it emitted for a context-free window, so consumers
        upsert by ``(query_id, start, end)`` either way.
    """

    __slots__ = ("query_id", "start", "end", "value", "is_update", "key")

    def __init__(
        self,
        query_id: int,
        start: int,
        end: int,
        value: Any,
        is_update: bool = False,
        key: Any = None,
    ) -> None:
        self.query_id = query_id
        self.start = start
        self.end = end
        self.value = value
        self.is_update = is_update
        #: Partitioning key when emitted by a keyed operator (else None).
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        upd = ", update" if self.is_update else ""
        keyed = f", key={self.key!r}" if self.key is not None else ""
        return f"WindowResult(q={self.query_id}, [{self.start}, {self.end}), {self.value!r}{upd}{keyed})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WindowResult)
            and self.query_id == other.query_id
            and self.start == other.start
            and self.end == other.end
            and self.value == other.value
            and self.is_update == other.is_update
            and self.key == other.key
        )

    def __hash__(self) -> int:
        # Without the key, which may be unhashable (a list).
        return hash((self.query_id, self.start, self.end, repr(self.value), self.is_update))

    def as_tuple(self) -> tuple:
        """Return ``(query_id, start, end, value)`` for compact assertions."""
        return (self.query_id, self.start, self.end, self.value)


def is_in_order(elements: Iterable[StreamElement]) -> bool:
    """Return ``True`` iff all records appear in non-decreasing event-time.

    Watermarks and punctuations are ignored for the order check (a
    watermark lagging behind the newest record is legal).
    """
    last = None
    for element in elements:
        if isinstance(element, Record):
            if last is not None and element.ts < last:
                return False
            last = element.ts
    return True

