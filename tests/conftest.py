"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import pathlib
import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.aggregations import Sum
from repro.core.operator_base import WindowOperator
from repro.core.types import Punctuation, Record, StreamElement, Watermark

#: Repository ``src/`` directory holding the ``repro`` package.
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def subprocess_env(**overrides: str) -> Dict[str, str]:
    """Environment for CLI subprocess tests with ``repro`` importable.

    Starts from the current environment (so the interpreter keeps its
    toolchain paths) and prepends the repo's ``src/`` to ``PYTHONPATH``;
    tests that launched ``python -m repro...`` with a scrubbed ``env``
    lost the path the parent test run was using and failed to import
    ``repro``.  ``overrides`` win over inherited variables.
    """
    env = dict(os.environ)
    env.update(overrides)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC_DIR) if not existing else f"{SRC_DIR}{os.pathsep}{existing}"
    )
    return env


class CountingSum(Sum):
    """``Sum`` that counts its ``accumulate`` calls; reset ``calls`` first."""

    calls = 0

    def accumulate(self, partial, value):
        CountingSum.calls += 1
        return super().accumulate(partial, value)


def add_late(manager, record: Record):
    """Step 2 for one late record, as the operator makes it: the slice
    manager places it, ``Slice.add_out_of_order`` (the reference for the
    operator's write) writes it, the store hears of it, the manager
    settles.  Returns the record's count position (count chains only)."""
    index, count_position = manager.add_out_of_order(record)
    manager._store.slices[index].add_out_of_order(record, manager.functions)
    manager._store.slice_updated(index)
    manager.settle(index)
    return count_position


def run_operator(operator: WindowOperator, elements) -> list:
    """Process a stream and return all emitted results."""
    results = []
    for element in elements:
        results.extend(operator.process(element))
    return results


def final_values(operator: WindowOperator, elements) -> Dict[Tuple[int, int, int], object]:
    """Process a stream; return the last emitted value per window."""
    final: Dict[Tuple[int, int, int], object] = {}
    for element in elements:
        for result in operator.process(element):
            final[(result.query_id, result.start, result.end)] = result.value
    return final


def records(pairs: Sequence[Tuple[int, float]]) -> List[Record]:
    """Build records from (ts, value) pairs."""
    return [Record(ts, value) for ts, value in pairs]


def shuffled_with_disorder(
    base: Sequence[Record], fraction: float, max_delay: int, seed: int = 0
) -> List[Record]:
    """Simple disorder injection for tests (independent of runtime.disorder)."""
    rng = random.Random(seed)
    delayed: List[Tuple[int, int, Record]] = []
    out: List[Record] = []
    seq = 0
    for record in base:
        ready = sorted(entry for entry in delayed if entry[0] <= record.ts)
        for entry in ready:
            out.append(entry[2])
            delayed.remove(entry)
        if rng.random() < fraction:
            delayed.append((record.ts + rng.randint(1, max_delay), seq, record))
            seq += 1
        else:
            out.append(record)
    for entry in sorted(delayed):
        out.append(entry[2])
    return out


def disordered_with_watermarks(
    base: Sequence[Record], *, every: int = 20, seed: int = 7, punctuate_every: int | None = None
) -> List[StreamElement]:
    """20 % of ``base`` up to 15 ticks late, a watermark 5 ticks behind
    the newest record every ``every`` elements (so late records hit
    emitted windows; none is later than a lateness of 20 allows),
    optionally a punctuation leading the first record at or after every
    ``punctuate_every`` ticks."""
    out: List[StreamElement] = []
    newest = -1
    next_edge = punctuate_every
    for record in shuffled_with_disorder(base, 0.2, 15, seed=seed):
        while next_edge is not None and record.ts >= next_edge > newest:
            out.append(Punctuation(next_edge))
            next_edge += punctuate_every
        out.append(record)
        newest = max(newest, record.ts)
        if len(out) % every == 0:
            out.append(Watermark(newest - 5))
    return out


@pytest.fixture
def simple_stream() -> List[Record]:
    """25 records, one per timestamp 0..24, value 1.0 each."""
    return [Record(ts, 1.0) for ts in range(25)]


@pytest.fixture
def valued_stream() -> List[Record]:
    """50 records every 2 ts with value ts % 7."""
    return [Record(ts, float(ts % 7)) for ts in range(0, 100, 2)]
