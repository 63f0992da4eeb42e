"""The two estimators every end-to-end timing goes through."""

from __future__ import annotations

import math
from typing import List


def floors(rows: List[List[int]]) -> List[int]:
    """The fastest observation at each position over several repeats.

    The replay is deterministic: position ``k`` does the same work in
    every round.  Whatever else runs on the host can only add time to
    an observation, never take any away, so the minimum over repeats is
    the estimate of the work's own cost that interference disturbs
    least.  A cost that occurs at the same position in every round is
    kept.  The same estimator is used on both sides of any comparison.
    """
    if len({len(row) for row in rows}) != 1:
        raise SystemExit("repeats of one workload timed different numbers of positions")
    return [min(column) for column in zip(*rows)]


def nearest_rank(ordered: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
