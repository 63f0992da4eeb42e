"""The one estimator every timed number of the figure tree goes through.

It does what ``benchmarks/e2e/estimate.py`` does (kept apart: that file
belongs to the repository benchmark).  A *cell* is one number of a table.
Its case is a ``build`` callable, run outside the timer, that returns
the ``run`` callable the clock goes around.  Cells run in rotated order
over :data:`ROUNDS` rounds with the garbage collector parked, and a
cell's estimate is its fastest observation per call position: whatever
else the host does can only add time to an observation, never take any
away.  A cell whose first pass took :data:`SLOW_SECONDS` is not repeated.
"""

from __future__ import annotations

import gc
import math
import os
from time import perf_counter_ns
from typing import Any, Callable, Dict, Hashable, List, Mapping, NamedTuple

__all__ = ["ROUNDS", "SLOW_SECONDS", "Cell", "measure", "nearest_rank"]

#: Passes over the cells; round ``r`` starts at cell ``r``.
ROUNDS = 3
#: A first pass this long is its own estimate (three would cost minutes).
SLOW_SECONDS = 20.0


class Cell(NamedTuple):
    """The estimate of one cell, from its fastest pass."""

    floors: List[int]  #: fastest ns per call position over the rounds
    seconds: float  #: wall clock of the fastest pass
    cpu_seconds: float  #: user + system of that pass, children included
    value: Any  #: what its last ``run()`` returned


def nearest_rank(ordered: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list: the smallest sample
    with at least ``q * n`` samples at or below it."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(
    cases: Mapping[Hashable, Callable[[], Callable[[], Any]]], *, calls: int = 1
) -> Dict[Hashable, Cell]:
    """Estimate every cell of ``cases``; each pass times ``calls`` calls."""
    keys = list(cases)
    passes: Dict[Hashable, list] = {key: [] for key in keys}
    slow = set()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_ in range(ROUNDS):
            shift = round_ % len(keys)
            for key in keys[shift:] + keys[:shift]:
                if key in slow:
                    continue
                run = cases[key]()
                gc.collect()
                row, value = [], None
                cpu = sum(os.times()[:4])
                for _ in range(calls):
                    begin = perf_counter_ns()
                    value = run()
                    row.append(perf_counter_ns() - begin)
                cpu = sum(os.times()[:4]) - cpu
                seconds = sum(row) / 1e9
                passes[key].append((seconds, row, cpu, value))
                if seconds >= SLOW_SECONDS:
                    slow.add(key)
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()
    cells = {}
    for key, observed in passes.items():
        seconds, _, cpu, value = min(observed, key=lambda entry: entry[0])
        floors = [min(column) for column in zip(*(row for _, row, _, _ in observed))]
        cells[key] = Cell(floors, seconds, cpu, value)
    return cells
