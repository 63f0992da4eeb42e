"""Per-figure experiment definitions (Section 6 of the paper).

Every public ``fig*``/``table1`` function regenerates one table or
figure of the paper's evaluation as a :class:`ResultTable` whose rows
are the same series the paper plots.  Absolute numbers differ (pure
Python substrate vs the authors' Flink/JVM testbed); the *shapes* --
who wins, by roughly what factor, where crossovers fall -- are asserted
by the benchmark suite.

All workload sizes honour ``REPRO_BENCH_SCALE`` (see
:mod:`repro.experiments.harness`).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..aggregations import (
    AggregateFunction,
    Average,
    Count,
    GeometricMean,
    M4,
    ArgMax,
    ArgMin,
    Max,
    MaxCount,
    Median,
    Min,
    MinCount,
    Percentile,
    PopulationStdDev,
    Sum,
    SumWithoutInvert,
)
from ..core.operator_base import WindowOperator
from ..core.operator_ import GeneralSlicingOperator
from ..core.slice_ import Slice
from ..core.types import Record, StreamElement
from ..data.football import football_keyed_stream, football_stream
from ..data.machine import machine_stream
from ..data.workloads import SECOND_MS, constrained_stream, dashboard_windows
from ..runtime.memory import deep_sizeof, memory_model
from ..runtime.metrics import LatencyHarness, measure_throughput
from ..runtime.sharded import ShardedPipeline
from ..windows.count import CountTumblingWindow
from ..windows.session import SessionWindow
from ..windows.tumbling import TumblingWindow
from .harness import (
    INORDER_ONLY_TECHNIQUES,
    ResultTable,
    make_operator,
    scaled,
)

__all__ = [
    "fig8_inorder_throughput",
    "fig9_ooo_throughput",
    "fig10_memory",
    "fig11_latency",
    "fig12_stream_order",
    "fig13_aggregations",
    "fig14_holistic",
    "fig15_split_cost",
    "fig16_measures",
    "fig17_parallel",
    "table1_memory_models",
    "recovery_latency",
]

#: Default technique sets per figure (paper legends).
FIG8_TECHNIQUES = (
    "Lazy Slicing",
    "Eager Slicing",
    "Pairs",
    "Cutty",
    "Buckets",
    "Tuple Buffer",
    "Aggregate Tree",
)
FIG9_TECHNIQUES = (
    "Lazy Slicing",
    "Eager Slicing",
    "Buckets",
    "Tuple Buffer",
    "Aggregate Tree",
)


def _add_dashboard_queries(
    operator: WindowOperator,
    concurrent_windows: int,
    aggregation: AggregateFunction,
    *,
    session_gap: Optional[int] = None,
) -> None:
    for window in dashboard_windows(concurrent_windows):
        operator.add_query(window, aggregation)
    if session_gap is not None:
        operator.add_query(SessionWindow(session_gap), aggregation)


# ----------------------------------------------------------------------
# Figure 8: in-order throughput over concurrent windows (CF tumbling)


def fig8_inorder_throughput(
    *,
    windows_list: Sequence[int] = (1, 4, 16, 64, 256),
    num_records: Optional[int] = None,
    techniques: Sequence[str] = FIG8_TECHNIQUES,
) -> ResultTable:
    """In-order processing with context-free windows (Figure 8)."""
    num_records = num_records if num_records is not None else scaled(12_000)
    stream = football_stream(num_records)
    table = ResultTable(
        "Figure 8: in-order throughput (records/s) vs concurrent windows",
        ["technique", "windows", "throughput"],
    )
    for concurrent in windows_list:
        for name in techniques:
            operator = make_operator(name, stream_in_order=True)
            _add_dashboard_queries(operator, concurrent, Sum())
            outcome = measure_throughput(operator, stream)
            table.add(
                technique=name, windows=concurrent, throughput=outcome.records_per_second
            )
    return table


# ----------------------------------------------------------------------
# Figure 9: constrained throughput (20 % out-of-order + session window)


def fig9_ooo_throughput(
    *,
    windows_list: Sequence[int] = (1, 4, 16, 64, 256),
    num_records: Optional[int] = None,
    techniques: Sequence[str] = FIG9_TECHNIQUES,
    dataset: str = "football",
    ooo_fraction: float = 0.2,
    max_delay: int = 2 * SECOND_MS,
) -> ResultTable:
    """Throughput under constraints (Figure 9): ooo records + sessions."""
    num_records = num_records if num_records is not None else scaled(8_000)
    if dataset == "football":
        records = football_stream(num_records)
    elif dataset == "machine":
        records = machine_stream(num_records)
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    stream = constrained_stream(records, fraction=ooo_fraction, max_delay=max_delay)
    table = ResultTable(
        f"Figure 9 ({dataset}): throughput with 20% ooo + session windows",
        ["technique", "windows", "throughput"],
    )
    for concurrent in windows_list:
        for name in techniques:
            if name in INORDER_ONLY_TECHNIQUES:
                continue
            operator = make_operator(
                name, stream_in_order=False, allowed_lateness=2 * max_delay
            )
            _add_dashboard_queries(
                operator, concurrent, Sum(), session_gap=SECOND_MS
            )
            outcome = measure_throughput(operator, stream)
            table.add(
                technique=name, windows=concurrent, throughput=outcome.records_per_second
            )
    return table


# ----------------------------------------------------------------------
# Figure 10: memory consumption


def _fill_time_operator(name: str, num_slices: int, num_tuples: int, span: int):
    """Build an operator holding ``num_slices`` slices over ``num_tuples``."""
    length = max(1, span // num_slices)
    operator = make_operator(name, stream_in_order=False, allowed_lateness=span)
    operator.add_query(TumblingWindow(length), Sum())
    step = max(1, span // num_tuples)
    for index in range(num_tuples):
        operator.process(Record(index * step, float(index % 97)))
    return operator


def _fill_count_operator(name: str, num_slices: int, num_tuples: int, span: int):
    length = max(1, num_tuples // num_slices)
    operator = make_operator(name, stream_in_order=False, allowed_lateness=span)
    operator.add_query(CountTumblingWindow(length), Sum())
    step = max(1, span // num_tuples)
    for index in range(num_tuples):
        operator.process(Record(index * step, float(index % 97)))
    return operator


def fig10_memory(
    *,
    slices_list: Sequence[int] = (50, 100, 500, 1000),
    tuples_list: Sequence[int] = (1_000, 5_000, 20_000, 50_000),
    fixed_tuples: Optional[int] = None,
    fixed_slices: int = 500,
    techniques: Sequence[str] = ("Lazy Slicing", "Buckets", "Tuple Buffer", "Aggregate Tree"),
) -> ResultTable:
    """Memory footprints with unordered streams (Figures 10a-10d).

    Four sub-experiments: vary slices with tuples fixed (10a time-based,
    10c count-based) and vary tuples with slices fixed (10b, 10d).
    """
    fixed_tuples = fixed_tuples if fixed_tuples is not None else scaled(20_000)
    span = 10_000_000  # large allowed lateness: nothing is evicted
    table = ResultTable(
        "Figure 10: memory (bytes) of aggregation techniques",
        ["panel", "measure", "technique", "slices", "tuples", "bytes"],
    )
    def technique_for(name: str, measure: str) -> str:
        # Count-based windows on unordered streams force buckets to keep
        # individual records (Table 1 row 4: tuple buckets).
        if measure == "count" and name == "Buckets":
            return "Tuple Buckets"
        return name

    for panel, measure, fill in (
        ("10a", "time", _fill_time_operator),
        ("10c", "count", _fill_count_operator),
    ):
        for num_slices in slices_list:
            for name in techniques:
                operator = fill(technique_for(name, measure), num_slices, fixed_tuples, span)
                footprint = sum(deep_sizeof(obj) for obj in operator.state_objects())
                table.add(
                    panel=panel,
                    measure=measure,
                    technique=name,
                    slices=num_slices,
                    tuples=fixed_tuples,
                    bytes=footprint,
                )
    for panel, measure, fill in (
        ("10b", "time", _fill_time_operator),
        ("10d", "count", _fill_count_operator),
    ):
        for num_tuples in tuples_list:
            for name in techniques:
                operator = fill(technique_for(name, measure), fixed_slices, num_tuples, span)
                footprint = sum(deep_sizeof(obj) for obj in operator.state_objects())
                table.add(
                    panel=panel,
                    measure=measure,
                    technique=name,
                    slices=fixed_slices,
                    tuples=num_tuples,
                    bytes=footprint,
                )
    return table


# ----------------------------------------------------------------------
# Figure 11: output latency of aggregate stores


def fig11_latency(
    *,
    entries_list: Sequence[int] = (100, 1_000, 10_000),
    aggregations: Sequence[str] = ("sum", "median"),
    iterations: int = 200,
) -> ResultTable:
    """Output latency for final window aggregation (Figures 11a/11c).

    ``entries`` is the number of stored items a window spans: slices for
    slicing techniques, records for tuple buffer / aggregate tree, and a
    single precomputed bucket for buckets.
    """
    from ..core.aggregate_store import EagerAggregateStore, LazyAggregateStore
    from ..core.flatfat import FlatFAT

    harness = LatencyHarness(warmup=20, iterations=iterations)
    table = ResultTable(
        "Figure 11: output latency (ns) per technique",
        ["aggregation", "technique", "entries", "latency_ns"],
    )
    for agg_name in aggregations:
        for entries in entries_list:
            function = Sum() if agg_name == "sum" else Median()
            values = [float(i % 101) for i in range(entries)]
            lifted = [function.lift(v) for v in values]

            lazy = LazyAggregateStore([function])
            eager = EagerAggregateStore([function])
            for index, value in enumerate(values):
                slice_ = Slice(index * 10, (index + 1) * 10, 1, store_records=False)
                slice_.aggs[0] = function.lift(value)
                slice_.record_count = 1
                slice_.first_ts = slice_.last_ts = index * 10
                lazy.append_slice(slice_)
                slice2 = Slice(index * 10, (index + 1) * 10, 1, store_records=False)
                slice2.aggs[0] = function.lift(value)
                slice2.record_count = 1
                slice2.first_ts = slice2.last_ts = index * 10
                eager.append_slice(slice2)

            record_tree = FlatFAT(function.combine, lifted)

            def lazy_query():
                partial = lazy.query_slices(0, entries, 0)
                return function.lower(partial)

            def eager_query():
                partial = eager.query_slices(0, entries, 0)
                return function.lower(partial)

            def buffer_query():
                partial = None
                for piece in lifted:
                    partial = piece if partial is None else function.combine(partial, piece)
                return function.lower(partial)

            def tree_query():
                return function.lower(record_tree.query(0, entries))

            precomputed = {0: buffer_query()}

            def bucket_query():
                return precomputed[0]

            cases = {
                "Lazy Slicing": lazy_query,
                "Eager Slicing": eager_query,
                "Tuple Buffer": buffer_query,
                "Aggregate Tree": tree_query,
                "Buckets": bucket_query,
            }
            for name, operation in cases.items():
                stats = harness.measure(operation)
                table.add(
                    aggregation=agg_name,
                    technique=name,
                    entries=entries,
                    latency_ns=stats.p50,
                )
    return table


# ----------------------------------------------------------------------
# Figure 12: stream order (fraction and delay of ooo records)


def fig12_stream_order(
    *,
    fractions: Sequence[float] = (0.0, 0.2, 0.5, 0.8),
    delay_ranges: Sequence[Tuple[int, int]] = (
        (0, 100),
        (0, 500),
        (0, 2_000),
        (1_000, 4_000),
    ),
    num_records: Optional[int] = None,
    techniques: Sequence[str] = FIG9_TECHNIQUES,
    concurrent_windows: int = 20,
) -> ResultTable:
    """Impact of out-of-order fraction (12a) and delay (12b) on throughput."""
    num_records = num_records if num_records is not None else scaled(8_000)
    records = football_stream(num_records)
    table = ResultTable(
        "Figure 12: throughput vs stream disorder",
        ["panel", "technique", "fraction", "delay_lo", "delay_hi", "throughput"],
    )
    for fraction in fractions:
        stream = constrained_stream(records, fraction=fraction, max_delay=2 * SECOND_MS)
        for name in techniques:
            if name in INORDER_ONLY_TECHNIQUES:
                continue
            operator = make_operator(
                name, stream_in_order=False, allowed_lateness=4 * SECOND_MS
            )
            _add_dashboard_queries(operator, concurrent_windows, Sum(), session_gap=SECOND_MS)
            outcome = measure_throughput(operator, stream)
            table.add(
                panel="12a",
                technique=name,
                fraction=fraction,
                delay_lo=0,
                delay_hi=2 * SECOND_MS,
                throughput=outcome.records_per_second,
            )
    for delay_lo, delay_hi in delay_ranges:
        stream = constrained_stream(
            records, fraction=0.2, max_delay=delay_hi, min_delay=delay_lo
        )
        for name in techniques:
            if name in INORDER_ONLY_TECHNIQUES:
                continue
            operator = make_operator(
                name, stream_in_order=False, allowed_lateness=2 * delay_hi
            )
            _add_dashboard_queries(operator, concurrent_windows, Sum(), session_gap=SECOND_MS)
            outcome = measure_throughput(operator, stream)
            table.add(
                panel="12b",
                technique=name,
                fraction=0.2,
                delay_lo=delay_lo,
                delay_hi=delay_hi,
                throughput=outcome.records_per_second,
            )
    return table


# ----------------------------------------------------------------------
# Figure 13: aggregation functions, time- vs count-based windows


def _fig13_aggregations() -> Dict[str, Callable[[], AggregateFunction]]:
    return {
        "sum": Sum,
        "sum w/o invert": SumWithoutInvert,
        "count": Count,
        "avg": Average,
        "min": Min,
        "max": Max,
        "mincount": MinCount,
        "maxcount": MaxCount,
        "geomean": GeometricMean,
        "stddev": PopulationStdDev,
        "argmin": ArgMin,
        "argmax": ArgMax,
        "median": Median,
        "90-percentile": lambda: Percentile(0.9),
    }


def fig13_aggregations(
    *,
    num_records: Optional[int] = None,
    concurrent_windows: int = 20,
    aggregations: Optional[Sequence[str]] = None,
) -> ResultTable:
    """Throughput per aggregation function (Figure 13).

    Runs general (lazy) slicing on time-based and count-based windows
    with the Section 6.2.2 disorder knobs, showing the invertibility
    effect on count windows and the holistic slowdown.
    """
    num_records = num_records if num_records is not None else scaled(4_000)
    catalogue = _fig13_aggregations()
    names = list(aggregations) if aggregations is not None else list(catalogue)
    records = football_stream(num_records)
    # Positive values required by geomean; shift the value domain.
    records = [Record(r.ts, r.value + 1.0, r.key) for r in records]
    stream = constrained_stream(records, fraction=0.2, max_delay=2 * SECOND_MS)
    table = ResultTable(
        "Figure 13: throughput per aggregation (time vs count windows)",
        ["aggregation", "measure", "throughput"],
    )
    # Count-window lengths mirror the time workload's extent: a "1-20 s"
    # window at the stream rate spans hundreds to thousands of records.
    count_length = max(100, num_records // 12)
    for name in names:
        factory = catalogue[name]
        for measure in ("time", "count"):
            function = factory()
            if name in ("argmin", "argmax"):
                adapted = [Record(r.ts, (r.value, r.ts), r.key) for r in records]
                adapted_stream = constrained_stream(
                    adapted, fraction=0.2, max_delay=2 * SECOND_MS
                )
                run_stream: List[StreamElement] = adapted_stream
            else:
                run_stream = stream
            operator = GeneralSlicingOperator(
                stream_in_order=False, allowed_lateness=4 * SECOND_MS
            )
            if measure == "time":
                for window in dashboard_windows(concurrent_windows):
                    operator.add_query(window, function)
            else:
                for index in range(concurrent_windows):
                    operator.add_query(
                        CountTumblingWindow(count_length * (1 + index % 4)), function
                    )
            outcome = measure_throughput(operator, run_stream)
            table.add(
                aggregation=name, measure=measure, throughput=outcome.records_per_second
            )
    return table


# ----------------------------------------------------------------------
# Figure 14: holistic aggregation across datasets/techniques


def fig14_holistic(
    *,
    num_records: Optional[int] = None,
    concurrent_windows: int = 20,
    techniques: Sequence[str] = ("Lazy Slicing", "Tuple Buffer", "Tuple Buckets"),
) -> ResultTable:
    """Holistic (median) throughput: slicing vs alternatives (Figure 14).

    The machine dataset (37 distinct values) benefits from run-length
    encoding inside slices; the football dataset (~84k distinct values)
    does not -- the paper's cardinality effect.
    """
    num_records = num_records if num_records is not None else scaled(4_000)
    table = ResultTable(
        "Figure 14: holistic aggregation throughput",
        ["dataset", "technique", "throughput"],
    )
    for dataset, records in (
        ("football", football_stream(num_records)),
        ("machine", machine_stream(num_records)),
    ):
        stream = constrained_stream(records, fraction=0.2, max_delay=2 * SECOND_MS)
        for name in techniques:
            operator = make_operator(
                name, stream_in_order=False, allowed_lateness=4 * SECOND_MS
            )
            _add_dashboard_queries(operator, concurrent_windows, Median())
            outcome = measure_throughput(operator, stream)
            table.add(
                dataset=dataset, technique=name, throughput=outcome.records_per_second
            )
    return table


# ----------------------------------------------------------------------
# Figure 15: split recomputation cost


def fig15_split_cost(
    *,
    sizes: Sequence[int] = (100, 1_000, 5_000, 20_000),
    aggregations: Sequence[str] = ("sum", "median"),
    repetitions: int = 20,
) -> ResultTable:
    """Processing time for recomputing aggregates after splits (Figure 15)."""
    table = ResultTable(
        "Figure 15: split recomputation time (us) vs tuples per slice",
        ["aggregation", "tuples", "time_us"],
    )
    for agg_name in aggregations:
        for size in sizes:
            function = Sum() if agg_name == "sum" else Median()
            total_ns = 0
            for repetition in range(repetitions):
                slice_ = Slice(0, size, 1, store_records=True)
                for index in range(size):
                    slice_.add_inorder(Record(index, float(index % 53)), [function])
                begin = time.perf_counter_ns()
                slice_.split_at(size // 2, [function])
                total_ns += time.perf_counter_ns() - begin
            table.add(
                aggregation=agg_name,
                tuples=size,
                time_us=total_ns / repetitions / 1_000,
            )
    return table


# ----------------------------------------------------------------------
# Figure 16: windowing measures


def fig16_measures(
    *,
    windows_list: Sequence[int] = (4, 16, 64, 256),
    num_records: Optional[int] = None,
) -> ResultTable:
    """Time- vs count-based measures over concurrent windows (Figure 16)."""
    num_records = num_records if num_records is not None else scaled(6_000)
    records = football_stream(num_records)
    stream = constrained_stream(records, fraction=0.2, max_delay=2 * SECOND_MS)
    table = ResultTable(
        "Figure 16: throughput per windowing measure",
        ["series", "windows", "throughput"],
    )
    for concurrent in windows_list:
        # Time-based general slicing.
        operator = GeneralSlicingOperator(
            stream_in_order=False, allowed_lateness=4 * SECOND_MS
        )
        _add_dashboard_queries(operator, concurrent, Sum())
        table.add(
            series="slicing (time)",
            windows=concurrent,
            throughput=measure_throughput(operator, stream).records_per_second,
        )
        # Count-based general slicing.
        operator = GeneralSlicingOperator(
            stream_in_order=False, allowed_lateness=4 * SECOND_MS
        )
        count_length = max(100, num_records // 12)
        for index in range(concurrent):
            operator.add_query(CountTumblingWindow(count_length * (1 + index % 4)), Sum())
        table.add(
            series="slicing (count)",
            windows=concurrent,
            throughput=measure_throughput(operator, stream).records_per_second,
        )
        # Tuple buffer on count windows (the fastest alternative, Sec 6.3.4).
        operator = make_operator(
            "Tuple Buffer", stream_in_order=False, allowed_lateness=4 * SECOND_MS
        )
        for index in range(concurrent):
            operator.add_query(CountTumblingWindow(count_length * (1 + index % 4)), Sum())
        table.add(
            series="tuple buffer (count)",
            windows=concurrent,
            throughput=measure_throughput(operator, stream).records_per_second,
        )
    return table


# ----------------------------------------------------------------------
# Figure 17: parallel stream slicing


def _parallel_slicing_factory() -> WindowOperator:
    operator = GeneralSlicingOperator(stream_in_order=True)
    aggregation = M4()
    for window in dashboard_windows(80):
        operator.add_query(window, aggregation)
    return operator


def _parallel_buckets_factory() -> WindowOperator:
    from ..baselines import AggregateBucketsOperator

    operator = AggregateBucketsOperator(stream_in_order=True)
    aggregation = M4()
    for window in dashboard_windows(80):
        operator.add_query(window, aggregation)
    return operator


def fig17_parallel(
    *,
    parallelism_list: Sequence[int] = (1, 2, 4),
    num_records: Optional[int] = None,
    num_keys: int = 64,
    techniques: Sequence[str] = ("Lazy Slicing", "Buckets"),
) -> ResultTable:
    """Key-partitioned scalability, M4 dashboard workload (Figure 17)."""
    num_records = num_records if num_records is not None else scaled(24_000)
    stream = football_keyed_stream(num_records, num_keys)
    factories = {
        "Lazy Slicing": _parallel_slicing_factory,
        "Buckets": _parallel_buckets_factory,
    }
    table = ResultTable(
        "Figure 17: parallel throughput and CPU utilization",
        ["technique", "parallelism", "throughput", "cpu_percent", "results"],
    )
    for name in techniques:
        factory = factories[name]
        for parallelism in parallelism_list:
            pipeline = ShardedPipeline(factory, parallelism)
            # run() spawns its workers and joins them, so the clock covers
            # the whole deployment and the workers' CPU time has reached
            # this process's children totals when it returns.
            cpu_before = sum(os.times()[:4])
            start = time.perf_counter()
            results = pipeline.run(stream)
            wall = time.perf_counter() - start
            cpu = sum(os.times()[:4]) - cpu_before
            table.add(
                technique=name,
                parallelism=parallelism,
                throughput=len(stream) / wall,
                cpu_percent=100.0 * cpu / wall,
                results=len(results),
            )
    return table


# ----------------------------------------------------------------------
# Table 1: memory models vs measurements


def table1_memory_models(
    *,
    num_tuples: int = 10_000,
    num_slices: int = 100,
    num_windows: int = 100,
) -> ResultTable:
    """Evaluate the Table 1 analytic memory models (sanity-check rows)."""
    table = ResultTable(
        "Table 1: analytic memory-usage models (bytes)",
        ["row", "technique", "model_bytes"],
    )
    from ..runtime.memory import TABLE1_ROWS

    for row, technique in TABLE1_ROWS.items():
        table.add(
            row=row,
            technique=technique,
            model_bytes=memory_model(
                row,
                num_tuples=num_tuples,
                num_slices=num_slices,
                num_windows=num_windows,
            ),
        )
    return table


# ----------------------------------------------------------------------
# Recovery: checkpoint-and-replay latency vs checkpoint interval
# (beyond the paper -- the substrate's fault-tolerance story; Flink
# provides this for free in the authors' setup)


def recovery_latency(
    intervals: Sequence[int] = (100, 500, 2_000, 8_000),
    *,
    crashes: int = 3,
    seed: int = 7,
    batch_size: int = 64,
) -> ResultTable:
    """Recovery latency and replay volume vs checkpoint interval.

    A supervised pipeline replays a fixed stream with ``crashes``
    seeded crash points (identical across rows); the checkpoint
    interval trades snapshot overhead (checkpoints taken) against
    recovery cost (records replayed, time to restore).
    """
    from ..runtime.faults import FaultInjectingOperator, FaultPlan
    from ..runtime.pipeline import CountingSink
    from ..runtime.recovery import RestartPolicy, SupervisedPipeline

    num_records = scaled(20_000)
    stream: List[StreamElement] = [
        Record(ts, float(ts % 11)) for ts in range(num_records)
    ]
    plan = FaultPlan(seed, num_records, crashes=crashes)

    def build() -> WindowOperator:
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(100), Sum())
        operator.add_query(SessionWindow(40), Average())
        return operator

    table = ResultTable(
        "Recovery latency vs checkpoint interval "
        f"({num_records} records, {crashes} injected crashes)",
        [
            "interval",
            "checkpoints",
            "restarts",
            "replayed_records",
            "deduped_results",
            "mean_recovery_ms",
            "wall_seconds",
        ],
    )
    for interval in intervals:
        sink = CountingSink()
        pipeline = SupervisedPipeline(
            FaultInjectingOperator(build(), plan=plan),
            sink,
            checkpoint_every=interval,
            batch_size=batch_size,
            restart_policy=RestartPolicy(max_restarts=crashes + 2),
            sleep=lambda _seconds: None,
        )
        begin = time.perf_counter()
        stats = pipeline.run(stream)
        wall = time.perf_counter() - begin
        table.add(
            interval=interval,
            checkpoints=stats.checkpoints_taken,
            restarts=stats.restarts,
            replayed_records=stats.replayed_records,
            deduped_results=stats.deduped_results,
            mean_recovery_ms=stats.mean_recovery_seconds * 1_000.0,
            wall_seconds=wall,
        )
    return table
