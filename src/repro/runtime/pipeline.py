"""Result sinks: where a driver delivers window results.

A sink is anything with an ``emit(result)`` method.
:class:`~repro.runtime.recovery.SupervisedPipeline` delivers every
window result to its sink exactly once; the two sinks here cover the
common cases (keep everything, or only count).
"""

from __future__ import annotations

from typing import List

from ..core.types import WindowResult

__all__ = ["CollectSink", "CountingSink"]


class CollectSink:
    """Collects every window result (tests and examples)."""

    def __init__(self) -> None:
        self.results: List[WindowResult] = []

    def emit(self, result: WindowResult) -> None:
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)


class CountingSink:
    """Counts results without retaining them (throughput runs)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, result: WindowResult) -> None:
        self.count += 1
