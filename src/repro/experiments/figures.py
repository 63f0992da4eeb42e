"""Per-figure experiment definitions (Section 6 of the paper).

Every ``fig*`` / ``table1`` function regenerates one table or figure of
the paper's evaluation as a :class:`ResultTable` whose rows are the same
series the paper plots.  Absolute numbers differ (pure Python substrate
vs the authors' Flink/JVM testbed); the *shapes* -- who wins, by roughly
what factor, where crossovers fall -- are asserted by ``benchmarks/``.

No function here has a default size: every size is bound in the
``FIGURES`` registry of :mod:`repro.experiments` and scales with
``REPRO_BENCH_SCALE``.  Every timed number comes from
:func:`repro.experiments.estimate.measure`.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..aggregations import (
    AggregateFunction,
    ArgMax,
    ArgMin,
    Average,
    Count,
    GeometricMean,
    M4,
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
from ..core.aggregate_store import EagerAggregateStore, LazyAggregateStore
from ..core.characteristics import select_kernel
from ..core.flatfat import FlatFAT
from ..core.operator_base import WindowOperator
from ..core.slice_ import Slice
from ..core.types import Record, StreamElement
from ..data.workloads import DEFAULT_OOO_FRACTION as OOO_FRACTION
from ..data.workloads import DEFAULT_OOO_MAX_DELAY_MS as OOO_MAX_DELAY
from ..data.workloads import constrained_stream, dashboard_windows
from ..runtime.faults import FaultInjectingOperator, FaultPlan
from ..runtime.memory import TABLE1_ROWS, deep_sizeof, memory_model
from ..runtime.pipeline import CountingSink
from ..runtime.recovery import RestartPolicy, SupervisedPipeline
from ..runtime.sharded import ShardedPipeline
from ..windows.count import CountTumblingWindow
from ..windows.session import SessionWindow
from ..windows.tumbling import TumblingWindow
from .estimate import measure, nearest_rank
from .harness import (
    INORDER_ONLY_TECHNIQUES,
    TIMED,
    ResultTable,
    Workload,
    make_operator,
    scaled,
    stream_header,
)

#: Technique sets per figure (paper legends).
FIG8_TECHNIQUES = (
    "Lazy Slicing",
    "Eager Slicing",
    "Pairs",
    "Cutty",
    "Buckets",
    "Tuple Buffer",
    "Aggregate Tree",
)
#: Out-of-order figures leave out what only runs in order (Pairs, Cutty).
FIG9_TECHNIQUES = tuple(n for n in FIG8_TECHNIQUES if n not in INORDER_ONLY_TECHNIQUES)

#: An estimator case: called outside the timer, returns what is timed.
Build = Callable[[], Callable[[], object]]


def dashboard(
    operator: WindowOperator,
    windows: int,
    aggregation: AggregateFunction,
    session_gap: Optional[int] = None,
) -> WindowOperator:
    """``operator`` with the dashboard queries (and the one session) added."""
    for window in dashboard_windows(windows):
        operator.add_query(window, aggregation)
    if session_gap is not None:
        operator.add_query(SessionWindow(session_gap), aggregation)
    return operator


def technique(
    name: str,
    windows: int,
    aggregation: AggregateFunction,
    *,
    in_order: bool,
    lateness: int = 0,
    session_gap: Optional[int] = None,
) -> WindowOperator:
    """The technique ``name`` running the dashboard workload."""
    operator = make_operator(name, stream_in_order=in_order, allowed_lateness=lateness)
    return dashboard(operator, windows, aggregation, session_gap)


def replay(
    make: Callable[[], WindowOperator], stream: Sequence[StreamElement], **run_options: object
) -> Build:
    """A fresh operator per pass, built outside the timer; the clock goes
    around its replay of ``stream``, which returns the records replayed."""
    records = sum(1 for element in stream if isinstance(element, Record))

    def build() -> Callable[[], int]:
        operator = make()

        def run() -> int:
            operator.run(stream, **run_options)
            return records

        return run

    return build


def replay_disordered(
    name: str,
    windows: int,
    aggregation: AggregateFunction,
    stream: Sequence[StreamElement],
    session_gap: Optional[int] = None,
    max_delay: int = OOO_MAX_DELAY,
) -> Build:
    """``name`` on the dashboard workload over a disordered stream."""
    options = dict(in_order=False, lateness=2 * max_delay, session_gap=session_gap)
    return replay(partial(technique, name, windows, aggregation, **options), stream)


def throughput_table(
    title: str, columns: Sequence[str], header: str, cases: Dict[Hashable, Build]
) -> ResultTable:
    """Measure :func:`replay` cases (keyed by ``columns``) into a table:
    one row each, ``records / fastest pass`` as its throughput."""
    table = ResultTable(title, [*columns, "throughput"], header)
    for key, cell in measure(cases).items():
        table.add(**dict(zip(columns, key)), throughput=cell.value / cell.seconds)
    return table


# ----------------------------------------------------------------------
# Figure 8: in-order throughput over concurrent windows (CF tumbling)


def fig8_inorder_throughput(*, workload: Workload) -> ResultTable:
    """In-order processing with context-free windows (Figure 8)."""
    stream = workload.stream()
    cases = {
        (name, concurrent): replay(
            partial(technique, name, concurrent, Sum(), in_order=True), stream
        )
        for concurrent in workload.windows
        for name in FIG8_TECHNIQUES
    }
    return throughput_table(
        "Figure 8: in-order throughput (records/s) vs concurrent windows",
        ["technique", "windows"],
        stream_header((workload, stream)),
        cases,
    )


# ----------------------------------------------------------------------
# Figure 9: constrained throughput (20 % out-of-order + session window)


def fig9_ooo_throughput(*, workload: Workload) -> ResultTable:
    """Throughput under constraints (Figure 9): ooo records + sessions."""
    records = workload.stream()
    stream = constrained_stream(records)
    cases = {
        (name, concurrent): replay_disordered(
            name, concurrent, Sum(), stream, workload.session_gap
        )
        for concurrent in workload.windows
        for name in FIG9_TECHNIQUES
    }
    return throughput_table(
        f"Figure 9 ({workload.name}): throughput with 20% ooo + session windows",
        ["technique", "windows"],
        stream_header((workload, records)),
        cases,
    )


# ----------------------------------------------------------------------
# Figure 10: memory consumption


#: Event-time span (and allowed lateness) of the memory experiments'
#: synthetic streams: large enough that nothing is evicted.
FILL_SPAN = 10_000_000


def fill_operator(
    name: str, measure_: str, num_slices: int, num_tuples: int, span: int = FILL_SPAN
) -> WindowOperator:
    """``name`` holding ``num_tuples`` records spread over ``span`` in
    ``num_slices`` slices of a ``"time"`` or ``"count"`` tumbling window."""
    if measure_ == "time":
        window = TumblingWindow(max(1, span // num_slices))
    else:
        window = CountTumblingWindow(max(1, num_tuples // num_slices))
    operator = make_operator(name, stream_in_order=False, allowed_lateness=span)
    operator.add_query(window, Sum())
    step = max(1, span // num_tuples)
    for index in range(num_tuples):
        operator.process(Record(index * step, float(index % 97)))
    return operator


def fig10_memory(
    *,
    slices_list: Sequence[int],
    tuples_list: Sequence[int],
    fixed_tuples: int,
    fixed_slices: int,
) -> ResultTable:
    """Memory footprints with unordered streams (Figures 10a-10d).

    Four sub-experiments: vary slices with tuples fixed (10a time-based,
    10c count-based) and vary tuples with slices fixed (10b, 10d).
    """
    fixed_tuples = scaled(fixed_tuples)
    tuples_list = [scaled(tuples) for tuples in tuples_list]
    table = ResultTable(
        "Figure 10: memory (bytes) of aggregation techniques",
        ["panel", "measure", "technique", "slices", "tuples", "bytes"],
        f"synthetic: up to {max(fixed_tuples, *tuples_list):,} records held over an "
        f"event-time span of {FILL_SPAN // 1_000:,} s, nothing evicted; sizes are "
        "deterministic, nothing is timed (0 rounds)",
    )
    panels = [
        (panel, measure_, num_slices, fixed_tuples)
        for panel, measure_ in (("10a", "time"), ("10c", "count"))
        for num_slices in slices_list
    ] + [
        (panel, measure_, fixed_slices, num_tuples)
        for panel, measure_ in (("10b", "time"), ("10d", "count"))
        for num_tuples in tuples_list
    ]
    for panel, measure_, num_slices, num_tuples in panels:
        for name in ("Lazy Slicing", "Buckets", "Tuple Buffer", "Aggregate Tree"):
            # Count-based windows on unordered streams force buckets to keep
            # individual records (Table 1 row 4: tuple buckets).
            held = "Tuple Buckets" if (measure_, name) == ("count", "Buckets") else name
            operator = fill_operator(held, measure_, num_slices, num_tuples)
            table.add(
                panel=panel,
                measure=measure_,
                technique=name,
                slices=num_slices,
                tuples=num_tuples,
                bytes=sum(deep_sizeof(obj) for obj in operator.state_objects()),
            )
    return table


# ----------------------------------------------------------------------
# Figure 11: output latency of aggregate stores


def _store_queries(function: AggregateFunction, entries: int) -> Dict[str, Callable[[], object]]:
    """One final-aggregation query per technique over ``entries`` stored
    items: slices for the slicing stores, records for tuple buffer and
    aggregate tree, one precomputed bucket for buckets."""
    values = [float(index % 101) for index in range(entries)]
    lifted = [function.lift(value) for value in values]
    lazy = LazyAggregateStore([function])
    # The kernel an in-order eager operator gets for this function.
    eager = EagerAggregateStore(
        [function], [select_kernel(function, stream_in_order=True, needs_splits=False)]
    )
    for store in (lazy, eager):
        for index, value in enumerate(values):
            slice_ = Slice(index * 10, (index + 1) * 10, 1, store_records=False)
            slice_.aggs[0] = function.lift(value)
            slice_.record_count = 1
            slice_.first_ts = slice_.last_ts = index * 10
            store.append_slice(slice_)
    # The appends leave the eager kernels' leaves lagging until a query
    # reads them; write them here, not in the first timed call.
    eager.query_slices(0, entries, 0)
    record_tree = FlatFAT(function.combine, lifted)

    def buffer_query():
        partial_ = None
        for piece in lifted:
            partial_ = piece if partial_ is None else function.combine(partial_, piece)
        return function.lower(partial_)

    precomputed = buffer_query()
    return {
        "Lazy Slicing": lambda: function.lower(lazy.query_slices(0, entries, 0)),
        "Eager Slicing": lambda: function.lower(eager.query_slices(0, entries, 0)),
        "Tuple Buffer": buffer_query,
        "Aggregate Tree": lambda: function.lower(record_tree.query(0, entries)),
        "Buckets": lambda: precomputed,
    }


def fig11_latency(*, entries_list: Sequence[int], calls: int) -> ResultTable:
    """Output latency for final window aggregation (Figures 11a/11c):
    the median (nearest rank) of ``calls`` per-call floors."""
    entries_list = [scaled(entries, minimum=10) for entries in entries_list]
    table = ResultTable(
        "Figure 11: output latency (ns) per technique",
        ["aggregation", "technique", "entries", "latency_ns"],
        f"stores of up to {max(entries_list):,} records or slices, no stream and no "
        f"event-time span; p50 of {calls} calls, each the {TIMED}",
    )
    cases = {
        (agg_name, name, entries): lambda query=query: query
        for agg_name, function in (("sum", Sum()), ("median", Median()))
        for entries in entries_list
        for name, query in _store_queries(function, entries).items()
    }
    for key, cell in measure(cases, calls=calls).items():
        latency = nearest_rank(sorted(cell.floors), 0.5)
        table.add(**dict(zip(table.columns, key)), latency_ns=latency)
    return table


# ----------------------------------------------------------------------
# Figure 12: stream order (fraction and delay of ooo records)


def fig12_stream_order(
    *,
    workload: Workload,
    fractions: Sequence[float],
    delay_ranges: Sequence[Tuple[int, int]],
) -> ResultTable:
    """Impact of out-of-order fraction (12a) and delay (12b) on throughput."""
    records = workload.stream()
    panels = [("12a", fraction, 0, OOO_MAX_DELAY) for fraction in fractions] + [
        ("12b", OOO_FRACTION, delay_lo, delay_hi) for delay_lo, delay_hi in delay_ranges
    ]
    cases = {}
    for panel, fraction, delay_lo, delay_hi in panels:
        stream = constrained_stream(
            records, fraction=fraction, max_delay=delay_hi, min_delay=delay_lo
        )
        for name in FIG9_TECHNIQUES:
            cases[panel, name, fraction, delay_lo, delay_hi] = replay_disordered(
                name, workload.windows[0], Sum(), stream, workload.session_gap, delay_hi
            )
    return throughput_table(
        "Figure 12: throughput vs stream disorder",
        ["panel", "technique", "fraction", "delay_lo", "delay_hi"],
        stream_header((workload, records)),
        cases,
    )


# ----------------------------------------------------------------------
# Figure 13: aggregation functions, time- vs count-based windows

FIG13_AGGREGATIONS: Dict[str, Callable[[], AggregateFunction]] = {
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


def counting(name: str, windows: int, records: int, function: AggregateFunction) -> WindowOperator:
    """``name`` with count windows mirroring the time workload's extent:
    a "1-20 s" window at the stream rate spans thousands of records; four
    lengths, the longest a third of the stream."""
    operator = make_operator(name, stream_in_order=False, allowed_lateness=2 * OOO_MAX_DELAY)
    count_length = max(100, records // 12)
    for index in range(windows):
        operator.add_query(CountTumblingWindow(count_length * (1 + index % 4)), function)
    return operator


def fig13_aggregations(*, workload: Workload) -> ResultTable:
    """Throughput per aggregation function (Figure 13).

    Runs general (lazy) slicing on time-based and count-based windows
    with the Section 6.2.2 disorder knobs, showing the invertibility
    effect on count windows and the holistic slowdown.
    """
    # Positive values required by geomean; shift the value domain.
    records = [Record(r.ts, r.value + 1.0, r.key) for r in workload.stream()]
    stream = constrained_stream(records)
    # argmin / argmax aggregate (value, position) pairs.
    paired = constrained_stream([Record(r.ts, (r.value, r.ts), r.key) for r in records])
    windows = workload.windows[0]
    cases = {}
    for name, factory in FIG13_AGGREGATIONS.items():
        replayed = paired if name.startswith("arg") else stream
        cases[name, "time"] = replay_disordered("Lazy Slicing", windows, factory(), replayed)
        cases[name, "count"] = replay(
            partial(counting, "Lazy Slicing", windows, len(records), factory()), replayed
        )
    return throughput_table(
        "Figure 13: throughput per aggregation (time vs count windows)",
        ["aggregation", "measure"],
        stream_header((workload, records)),
        cases,
    )


# ----------------------------------------------------------------------
# Figure 14: holistic aggregation across datasets/techniques


def fig14_holistic(*, workloads: Sequence[Workload]) -> ResultTable:
    """Holistic (median) throughput: slicing vs alternatives (Figure 14).

    The machine dataset (37 distinct values) benefits from run-length
    encoding inside slices; the football dataset (~84k distinct values)
    does not -- the paper's cardinality effect.
    """
    streams = [(workload, workload.stream()) for workload in workloads]
    cases = {}
    for workload, records in streams:
        stream = constrained_stream(records)
        for name in ("Lazy Slicing", "Tuple Buffer", "Tuple Buckets"):
            cases[workload.name, name] = replay_disordered(
                name, workload.windows[0], Median(), stream
            )
    return throughput_table(
        "Figure 14: holistic aggregation throughput",
        ["dataset", "technique"],
        stream_header(*streams),
        cases,
    )


# ----------------------------------------------------------------------
# Figure 15: split recomputation cost


def fig15_split_cost(*, sizes: Sequence[int]) -> ResultTable:
    """Processing time for recomputing aggregates after splits (Figure 15)."""
    sizes = [scaled(size, minimum=10) for size in sizes]
    table = ResultTable(
        "Figure 15: split recomputation time (us) vs tuples per slice",
        ["aggregation", "tuples", "time_us"],
        f"one slice of up to {max(sizes):,} records (event-time span = its records), "
        f"split in the middle; {TIMED}",
    )

    def case(function: AggregateFunction, size: int) -> Build:
        def build():
            slice_ = Slice(0, size, 1, store_records=True)
            slice_.add_run([Record(index, float(index % 53)) for index in range(size)], [function])
            return lambda: slice_.split_at(size // 2, [function])

        return build

    cases = {
        (agg_name, size): case(function, size)
        for agg_name, function in (("sum", Sum()), ("median", Median()))
        for size in sizes
    }
    for key, cell in measure(cases).items():
        table.add(**dict(zip(table.columns, key)), time_us=cell.seconds * 1e6)
    return table


# ----------------------------------------------------------------------
# Figure 16: windowing measures


def fig16_measures(*, workload: Workload) -> ResultTable:
    """Time- vs count-based measures over concurrent windows (Figure 16)."""
    records = workload.stream()
    stream = constrained_stream(records)
    cases = {}
    for concurrent in workload.windows:
        cases["slicing (time)", concurrent] = replay_disordered(
            "Lazy Slicing", concurrent, Sum(), stream
        )
        # Tuple buffer: the fastest alternative on count windows (Sec. 6.3.4).
        for series, name in (
            ("slicing (count)", "Lazy Slicing"),
            ("tuple buffer (count)", "Tuple Buffer"),
        ):
            cases[series, concurrent] = replay(
                partial(counting, name, concurrent, len(records), Sum()), stream
            )
    return throughput_table(
        "Figure 16: throughput per windowing measure",
        ["series", "windows"],
        stream_header((workload, records)),
        cases,
    )


# ----------------------------------------------------------------------
# Figure 17: parallel stream slicing


def fig17_parallel(*, workload: Workload) -> ResultTable:
    """Key-partitioned scalability, M4 dashboard workload (Figure 17), on
    as many of 1 / 2 / 4 workers as the host has cores."""
    stream = workload.stream()
    cores = os.cpu_count() or 1
    table = ResultTable(
        "Figure 17: parallel throughput and CPU utilization",
        ["technique", "parallelism", "throughput", "cpu_percent", "results"],
        f"{stream_header((workload, stream))}; {cores} cores",
    )

    def case(name: str, parallelism: int) -> Build:
        # A partial of a module-level function: workers unpickle it.
        factory = partial(technique, name, workload.windows[0], M4(), in_order=True)
        # run() spawns its workers and joins them, so the clock covers
        # the whole deployment and the workers' CPU time has reached
        # this process's children totals when it returns.
        return lambda: lambda: len(ShardedPipeline(factory, parallelism).run(stream))

    cases = {
        (name, parallelism): case(name, parallelism)
        for name in ("Lazy Slicing", "Buckets")
        for parallelism in [p for p in (1, 2, 4) if p <= cores] or [1]
    }
    for key, cell in measure(cases).items():
        table.add(
            **dict(zip(table.columns, key)),
            throughput=len(stream) / cell.seconds,
            cpu_percent=100.0 * cell.cpu_seconds / cell.seconds,
            results=cell.value,
        )
    return table


# ----------------------------------------------------------------------
# Table 1: memory models vs measurements


def table1_memory_models(
    *, num_tuples: int, num_slices: int, num_windows: int
) -> ResultTable:
    """Evaluate the Table 1 analytic memory models (sanity-check rows)."""
    table = ResultTable(
        "Table 1: analytic memory-usage models (bytes)",
        ["row", "technique", "model_bytes"],
        f"formulas at {num_tuples:,} records, {num_slices} slices, {num_windows} "
        "windows: no stream, no event-time span, nothing timed (0 rounds)",
    )
    sizes = dict(num_tuples=num_tuples, num_slices=num_slices, num_windows=num_windows)
    for row, technique_ in TABLE1_ROWS.items():
        table.add(row=row, technique=technique_, model_bytes=memory_model(row, **sizes))
    return table


# ----------------------------------------------------------------------
# Recovery: checkpoint-and-replay latency vs checkpoint interval
# (beyond the paper -- the substrate's fault-tolerance story; Flink
# provides this for free in the authors' setup)


def recovery_latency(
    *, workload: Workload, intervals: Sequence[int], crashes: int, batch_size: int
) -> ResultTable:
    """Recovery latency and replay volume vs checkpoint interval.

    A supervised pipeline replays one stream with ``crashes`` seeded
    crash points (identical across rows); the checkpoint interval
    trades snapshot overhead (checkpoints taken) against recovery cost
    (records replayed, time to restore).
    """
    stream = workload.stream()
    plan = FaultPlan(7, len(stream), crashes=crashes)
    table = ResultTable(
        f"Recovery latency vs checkpoint interval ({crashes} injected crashes)",
        "interval checkpoints restarts replayed_records deduped_results "
        "mean_recovery_ms wall_seconds".split(),
        stream_header((workload, stream)),
    )

    def case(interval: int) -> Build:
        def build():
            operator = technique(
                "Lazy Slicing",
                workload.windows[0],
                Average(),
                in_order=True,
                session_gap=workload.session_gap,
            )
            pipeline = SupervisedPipeline(
                FaultInjectingOperator(operator, plan=plan),
                CountingSink(),
                checkpoint_every=interval,
                batch_size=batch_size,
                restart_policy=RestartPolicy(max_restarts=crashes + 2),
                sleep=lambda _seconds: None,
            )
            return lambda: pipeline.run(stream)

        return build

    cases = {
        interval: case(interval)
        for interval in (scaled(interval, minimum=batch_size) for interval in intervals)
    }
    for interval, cell in measure(cases).items():
        stats = cell.value
        table.add(
            interval=interval,
            checkpoints=stats.checkpoints_taken,
            restarts=stats.restarts,
            replayed_records=stats.replayed_records,
            deduped_results=stats.deduped_results,
            mean_recovery_ms=stats.mean_recovery_seconds * 1_000.0,
            wall_seconds=cell.seconds,
        )
    return table
