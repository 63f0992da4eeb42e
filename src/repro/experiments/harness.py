"""Experiment harness: techniques, workload sizes and result tables.

The figure generators share three things: the registry of compared
techniques behind the common operator interface, a :class:`Workload`
that is the only place a figure's stream size is written down, and a
plain-text :class:`ResultTable` whose header states what was replayed.

Scale: the paper replays tens of millions of records on a JVM; scale 1
here is the smallest size at which every window of a figure closes
several times.  ``REPRO_BENCH_SCALE`` (float, default 1.0) grows or
shrinks every size proportionally.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..baselines import (
    AggregateBucketsOperator,
    AggregateTreeOperator,
    CuttyOperator,
    PairsOperator,
    TupleBucketsOperator,
    TupleBufferOperator,
)
from ..core.operator_base import WindowOperator
from ..core.operator_ import GeneralSlicingOperator
from ..core.types import Record
from .estimate import ROUNDS

__all__ = [
    "bench_scale",
    "scaled",
    "TECHNIQUES",
    "INORDER_ONLY_TECHNIQUES",
    "make_operator",
    "Workload",
    "stream_header",
    "ResultTable",
]


#: How every timed cell is estimated (``repro.experiments.estimate``).
TIMED = f"fastest of {ROUNDS} rotated rounds"


def bench_scale() -> float:
    """Global workload scale factor from ``REPRO_BENCH_SCALE``."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def scaled(value: int, minimum: int = 1) -> int:
    """Scale a workload size by the global factor."""
    return max(minimum, int(value * bench_scale()))


#: Technique name (the paper's figure legends) -> operator factory.
TECHNIQUES: Dict[str, Callable[..., WindowOperator]] = {
    "Lazy Slicing": partial(GeneralSlicingOperator, eager=False),
    "Eager Slicing": partial(GeneralSlicingOperator, eager=True),
    "Tuple Buffer": TupleBufferOperator,
    "Aggregate Tree": AggregateTreeOperator,
    "Buckets": AggregateBucketsOperator,
    "Tuple Buckets": TupleBucketsOperator,
    "Pairs": PairsOperator,
    "Cutty": CuttyOperator,
}

#: Techniques restricted to in-order streams (they take no order or
#: lateness argument and are skipped in out-of-order figures).
INORDER_ONLY_TECHNIQUES = frozenset({"Pairs", "Cutty"})


def make_operator(
    name: str, *, stream_in_order: bool, allowed_lateness: int = 0
) -> WindowOperator:
    """Instantiate a registered technique by its figure-legend name."""
    try:
        factory = TECHNIQUES[name]
    except KeyError:
        raise KeyError(
            f"unknown technique {name!r}; available: {sorted(TECHNIQUES)}"
        ) from None
    if name in INORDER_ONLY_TECHNIQUES:
        if not stream_in_order:
            raise ValueError(f"{name} is in-order only")
        return factory()
    return factory(stream_in_order=stream_in_order, allowed_lateness=allowed_lateness)


class Workload(NamedTuple):
    """The stream and query set a figure replays: its size spec (the
    rule the registered ones meet is in :mod:`repro.experiments`)."""

    name: str  #: dataset label in titles and headers
    source: Callable[..., List[Record]]  #: dataset generator
    records: int  #: stream length at scale 1
    rate_hz: int  #: event rate handed to ``source``
    windows: Tuple[int, ...]  #: concurrent dashboard windows (1-20 s), per x value
    session_gap: Optional[int] = None  #: gap of the one session query, if any

    def stream(self) -> List[Record]:
        """The in-order records at the current scale."""
        return self.source(scaled(self.records), rate_hz=self.rate_hz)


def stream_header(*replayed: Tuple[Workload, Sequence[Record]]) -> str:
    """A table's header line: the records, rate and event-time span of
    every stream it replayed, and how the replays were timed."""
    streams = [
        f"{workload.name}: {len(records):,} records at {workload.rate_hz:,} Hz, event-time "
        f"span {(records[-1].ts - records[0].ts) / 1_000 if records else 0.0:.1f} s"
        for workload, records in replayed
    ]
    return "; ".join([*streams, TIMED])


class ResultTable:
    """Column-oriented result accumulation with paper-style printing."""

    def __init__(self, title: str, columns: Sequence[str], header: str = "") -> None:
        self.title = title
        self.columns = list(columns)
        #: One line under the title: records, rate, span, rounds.
        self.header = header
        self.rows: List[Dict[str, object]] = []

    def add(self, **values: object) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def column(self, name: str) -> List[object]:
        return [row[name] for row in self.rows]

    def series(self, key_column: str, value_column: str) -> Dict[object, List[object]]:
        """Group ``value_column`` values by distinct ``key_column`` entries."""
        grouped: Dict[object, List[object]] = {}
        for row in self.rows:
            grouped.setdefault(row[key_column], []).append(row[value_column])
        return grouped

    def value(self, column: str, **where: object) -> object:
        """``column`` of the one row whose other columns equal ``where``."""
        (row,) = [r for r in self.rows if all(r[c] == v for c, v in where.items())]
        return row[column]

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, float):
            if value >= 1000:
                return f"{value:,.0f}"
            return f"{value:.4g}"
        return str(value)

    def render(self) -> str:
        widths = {
            column: max(
                len(column), *(len(self._format(row[column])) for row in self.rows)
            )
            if self.rows
            else len(column)
            for column in self.columns
        }
        columns = "  ".join(column.ljust(widths[column]) for column in self.columns)
        rule = "-" * len(columns)
        lines = [self.title, *([self.header] if self.header else []), rule, columns, rule]
        for row in self.rows:
            lines.append(
                "  ".join(
                    self._format(row[column]).ljust(widths[column])
                    for column in self.columns
                )
            )
        lines.append(rule)
        return "\n".join(lines)
