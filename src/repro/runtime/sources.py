"""The replayable source a supervisor reads by cursor.

Checkpoint-and-replay needs a stream that can be re-read from any
position: :class:`ReplayableSource` materializes the elements once and
serves pure, cursor-addressed reads.
:class:`~repro.runtime.faults.FaultySource` subclasses it to inject
transient read failures.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, List, Optional, Sequence

from ..core.types import Record, StreamElement

__all__ = ["ReplayableSource"]


class ReplayableSource:
    """Cursor-addressable stream view for checkpoint-and-replay.

    A supervisor reads the stream in cursor order via :meth:`read`; after
    a failure it rewinds the cursor to the last checkpoint's position and
    re-reads the tail.  Reads are pure (no consumption state lives in the
    source), so the same source can be replayed any number of times.
    """

    def __init__(self, elements: Sequence[StreamElement]) -> None:
        self._elements = list(elements)
        #: Records before each cursor, built on first use: constructing
        #: a source stays one copy of the stream.
        self._records_before: Optional[List[int]] = None

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def read(self, cursor: int, count: int) -> List[StreamElement]:
        """Return up to ``count`` elements starting at ``cursor``.

        The final read may be shorter; reading at/after the end returns
        an empty list.
        """
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        if count < 1:
            raise ValueError(f"read count must be >= 1, got {count}")
        return self._elements[cursor : cursor + count]

    def records_before(self, cursor: int) -> int:
        """How many of the elements before ``cursor`` are records."""
        prefix = self._records_before
        if prefix is None:
            prefix = self._records_before = list(
                accumulate(map(Record.__instancecheck__, self._elements), initial=0)
            )
        return prefix[cursor]
