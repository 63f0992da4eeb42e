"""The six benchmark workloads: seeded stream generators and the systems they drive.

The generators live here, not in ``repro.data``, so that a change to the
library's synthetic datasets can never move a benchmark number.  Event
times are integer milliseconds and every value is an integer-valued
float, so window results are exactly comparable across kernels.

Record counts are fixed constants: a workload is the same size on both
sides of every comparison and is never calibrated at run time.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from repro.aggregations import Average, Max, Median, Min, Sum
from repro.core import GeneralSlicingOperator, Record, Watermark, WindowOperator
from repro.windows import SlidingWindow, TumblingWindow

VALUES = [float(v) for v in range(1000)]
STICKY_VALUES = [float(v) for v in range(37)]
KEYS = [f"sensor-{k:02d}" for k in range(64)]

GAP_MS = 1_500
OOO_SHARE = 0.2
OOO_MAX_DELAY_MS = 2_000
#: A whole number of 100 ms slides, so that every watermark closes the
#: same number of windows.  At 250 ms half of them closed two slides
#: and half three, the median emit latency sat on the step between the
#: two groups, and whichever side it fell on moved it by 14 %.
WATERMARK_EVERY_MS = 200
KEYED_WATERMARK_EVERY_MS = 1_000


# ----------------------------------------------------------------------
# stream generators


def _inorder_records(values: list, hz: int, gap_every: int = 0) -> list:
    """One record per value, in order at ``hz`` records per second, with
    a 1.5 s silence after every ``gap_every`` records (0 = none)."""
    return [
        Record(i * 1000 // hz + (i // gap_every * GAP_MS if gap_every else 0), value)
        for i, value in enumerate(values)
    ]


def dashboard_stream(rng: random.Random, n: int) -> list:
    return _inorder_records(rng.choices(VALUES, k=n), 2000, gap_every=24_000)


def sliding_stream(rng: random.Random, n: int) -> list:
    return _inorder_records(rng.choices(VALUES, k=n), 2000)


def ooo_stream(rng: random.Random, n: int) -> list:
    """2000 Hz, a fifth of the records delayed by U[0, 2 s), in arrival
    order, with a watermark every 200 ms that trails arrival by 2 s.

    The watermark trails by the largest possible delay, so no record is
    ever behind it: zero late drops by construction.
    """
    values = rng.choices(VALUES, k=n)
    arrivals = []
    for i, value in enumerate(values):
        ts = i // 2
        delay = rng.randrange(OOO_MAX_DELAY_MS) if rng.random() < OOO_SHARE else 0
        arrivals.append((ts + delay, i, Record(ts, value)))
    arrivals.sort()  # (arrival, i) is unique, so records are never compared
    stream: list = []
    next_mark = WATERMARK_EVERY_MS
    for arrival, _, record in arrivals:
        while arrival >= next_mark:
            if next_mark > OOO_MAX_DELAY_MS:
                stream.append(Watermark(next_mark - OOO_MAX_DELAY_MS))
            next_mark += WATERMARK_EVERY_MS
        stream.append(record)
    return stream


def median_stream(rng: random.Random, n: int) -> list:
    """100 Hz machine-like readings: 37 distinct values that stick for
    a geometric number of records, so slices hold few distinct values."""
    values: list = []
    while len(values) < n:
        run = 1 + int(rng.expovariate(1 / 25))
        values.extend([STICKY_VALUES[rng.randrange(37)]] * run)
    return _inorder_records(values[:n], 100, gap_every=1_200)


def keyed_stream(rng: random.Random, n: int) -> list:
    """2000 Hz in order over 64 uniformly drawn keys, a watermark at each
    event-time second and one just past the last record."""
    keys = rng.choices(KEYS, k=n)
    values = rng.choices(VALUES, k=n)
    stream: list = []
    next_mark = KEYED_WATERMARK_EVERY_MS
    for i in range(n):
        ts = i // 2
        if ts >= next_mark:
            stream.append(Watermark(next_mark))
            next_mark += KEYED_WATERMARK_EVERY_MS
        stream.append(Record(ts, values[i], keys[i]))
    stream.append(Watermark((n - 1) // 2 + 1))
    return stream


# ----------------------------------------------------------------------
# operators (module-level so checkpoints and shard workers can pickle them)


def dashboard_operator() -> WindowOperator:
    op = GeneralSlicingOperator(stream_in_order=True)
    for seconds in range(1, 21):
        op.add_query(TumblingWindow(seconds * 1000), Sum())
    return op


def sliding_eager_operator() -> WindowOperator:
    op = GeneralSlicingOperator(stream_in_order=True, eager=True)
    for aggregation in (Sum(), Max()):
        op.add_query(SlidingWindow(10_000, 100), aggregation)
    return op


def ooo_eager_operator() -> WindowOperator:
    op = GeneralSlicingOperator(
        stream_in_order=False, eager=True, allowed_lateness=OOO_MAX_DELAY_MS
    )
    for aggregation in (Sum(), Max(), Min(), Average()):
        op.add_query(SlidingWindow(10_000, 100), aggregation)
    return op


def median_lazy_operator() -> WindowOperator:
    op = GeneralSlicingOperator(stream_in_order=True, share_windows=True)
    for seconds in (2, 4, 6, 8, 10):
        op.add_query(SlidingWindow(seconds * 1000, 100), Median())
    return op


def per_key_operator() -> WindowOperator:
    op = GeneralSlicingOperator(stream_in_order=False)
    for seconds in range(1, 6):
        op.add_query(TumblingWindow(seconds * 1000), Sum())
    return op


# ----------------------------------------------------------------------
# registry


class Workload(NamedTuple):
    name: str
    why: str
    #: How the system is driven: ``process`` (one call per element),
    #: ``sharded`` (ShardedPipeline.run) or ``supervised`` (SupervisedPipeline.run).
    driver: str
    records: int
    #: Elements of the stream's head checked against the brute-force
    #: oracle: long enough to close many windows of every query, short
    #: enough that the O(windows x records) oracle takes a second or two.
    oracle_elements: int
    make_stream: Callable[[random.Random, int], list]
    #: The operator for ``process``; the per-key operator for the pipelines.
    make_operator: Callable[[], WindowOperator]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inorder_dashboard",
            "headline ingest path: slicer + slice + operator glue; kernels never run, store and window manager idle",
            "process", 600_000, 60_000, dashboard_stream, dashboard_operator,
        ),
        Workload(
            "inorder_sliding_eager",
            "in-order kernel write path (subtract-on-evict, two-stacks) plus a range query per 100 ms slide",
            "process", 200_000, 40_000, sliding_stream, sliding_eager_operator,
        ),
        Workload(
            "ooo_sliding_eager",
            "20 % disorder: out-of-order slice adds, positional finger-tree updates, bulk eviction on watermarks",
            "process", 125_000, 40_000, ooo_stream, ooo_eager_operator,
        ),
        Workload(
            "inorder_median_lazy",
            "lazy store read path: almost no write cost, time goes to window emits over holistic partials",
            "process", 30_000, 2_000, median_stream, median_lazy_operator,
        ),
        Workload(
            "keyed_sharded",
            "source, route, queue, keyed operator, merge over 2 worker processes; the coordinator is the bottleneck",
            "sharded", 25_000, 20_000, keyed_stream, per_key_operator,
        ),
        Workload(
            "keyed_supervised_disk",
            "single-process durable path: batched keyed ingest, fsync'd checkpoints, one crash, restore, replay, dedup",
            "supervised", 200_000, 20_000, keyed_stream, per_key_operator,
        ),
    )
}
