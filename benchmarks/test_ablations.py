"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation disables one optimization of general slicing and shows
the cost it would re-introduce:

* RLE-encoded sorted runs vs plain sorted lists for holistic slices;
* the Figure 4 decision tree vs always storing raw records;
* lazy vs eager aggregate stores (the throughput side of Figure 11's
  latency trade-off).
"""

from conftest import save_table

from repro.aggregations import Median, PlainMedian, Sum
from repro.core.operator_ import GeneralSlicingOperator
from repro.data.football import football_stream
from repro.data.machine import machine_stream
from repro.data.workloads import SECOND_MS, constrained_stream, dashboard_windows
from repro.experiments.harness import ResultTable
from repro.runtime.memory import deep_sizeof
from repro.runtime.metrics import measure_throughput


def _operator(aggregation, windows=10, in_order=True, eager=False):
    operator = GeneralSlicingOperator(
        stream_in_order=in_order,
        eager=eager,
        allowed_lateness=0 if in_order else 4 * SECOND_MS,
    )
    for window in dashboard_windows(windows):
        operator.add_query(window, aggregation)
    return operator


def run_rle_ablation():
    """Median with RLE runs vs plain sorted lists, per dataset."""
    table = ResultTable(
        "Ablation: RLE-encoded runs vs plain sorted lists (median)",
        ["dataset", "variant", "throughput"],
    )
    for dataset, records in (
        ("machine", machine_stream(2_500)),
        ("football", football_stream(2_500)),
    ):
        for variant, aggregation in (("rle", Median()), ("plain", PlainMedian())):
            operator = _operator(aggregation)
            outcome = measure_throughput(operator, records)
            table.add(dataset=dataset, variant=variant, throughput=outcome.records_per_second)
    return table


def test_ablation_rle():
    table = run_rle_ablation()
    save_table(table)
    series = {}
    for row in table.rows:
        series[(row["dataset"], row["variant"])] = row["throughput"]
    # RLE pays off on low-cardinality data (37 distinct machine states).
    assert series[("machine", "rle")] > series[("machine", "plain")]


def run_tuple_storage_ablation():
    """Decision tree vs always-store-records: memory footprint."""
    records = football_stream(6_000)
    stream = constrained_stream(records, fraction=0.2, max_delay=2 * SECOND_MS)
    table = ResultTable(
        "Ablation: Figure 4 decision tree vs always storing records",
        ["variant", "bytes", "throughput"],
    )

    adaptive = _operator(Sum(), in_order=False)
    throughput = measure_throughput(adaptive, stream).records_per_second
    table.add(
        variant="decision tree (drop records)",
        bytes=sum(deep_sizeof(o) for o in adaptive.state_objects()),
        throughput=throughput,
    )

    forced = _operator(Sum(), in_order=False)
    # Force generality: keep raw records although the tree says drop.
    for chain in forced._chains.values():
        chain.characteristics.store_tuples = True
        chain.slicer.store_records = True
        chain.manager.store_records = True
    throughput = measure_throughput(forced, stream).records_per_second
    table.add(
        variant="always store records",
        bytes=sum(deep_sizeof(o) for o in forced.state_objects()),
        throughput=throughput,
    )
    return table


def test_ablation_tuple_storage():
    table = run_tuple_storage_ablation()
    save_table(table)
    adaptive, forced = table.rows
    # Dropping records per the decision tree saves substantial memory.
    assert adaptive["bytes"] < forced["bytes"] / 2, (adaptive, forced)


def run_lazy_vs_eager():
    """Throughput cost of maintaining the eager slice tree."""
    records = football_stream(6_000)
    stream = constrained_stream(records, fraction=0.2, max_delay=2 * SECOND_MS)
    table = ResultTable(
        "Ablation: lazy vs eager aggregate store (throughput side)",
        ["variant", "throughput"],
    )
    for variant, eager in (("lazy", False), ("eager", True)):
        operator = _operator(Sum(), windows=20, in_order=False, eager=eager)
        outcome = measure_throughput(operator, stream)
        table.add(variant=variant, throughput=outcome.records_per_second)
    return table


def test_ablation_lazy_vs_eager():
    table = run_lazy_vs_eager()
    save_table(table)
    lazy, eager = (row["throughput"] for row in table.rows)
    # Lazy slicing keeps the throughput edge (Figures 8/9); eager stays
    # within a reasonable factor while buying its latency win.
    assert lazy > eager * 0.8
    assert eager > lazy / 10


def run_edge_cache_ablation():
    """Cached next-edge vs recomputing the edge for every record.

    The paper's Step 1 claims high efficiency because "the majority of
    tuples do not end a slice and require just one comparison of
    timestamps"; disabling the cache makes every record evaluate every
    registered window's next edge.
    """
    records = football_stream(8_000)
    table = ResultTable(
        "Ablation: cached next-edge vs per-record edge recomputation",
        ["variant", "windows", "throughput"],
    )
    for windows in (4, 32):
        for variant, cached in (("cached edge", True), ("recompute per record", False)):
            operator = _operator(Sum(), windows=windows, in_order=True)
            for chain in operator._chains.values():
                chain.slicer.cache_edges = cached
            outcome = measure_throughput(operator, records)
            table.add(variant=variant, windows=windows, throughput=outcome.records_per_second)
    return table


def test_ablation_edge_cache():
    table = run_edge_cache_ablation()
    save_table(table)
    series = {}
    for row in table.rows:
        series[(row["variant"], row["windows"])] = row["throughput"]
    # The cache saves more as the number of registered windows grows.
    gain_small = series[("cached edge", 4)] / series[("recompute per record", 4)]
    gain_large = series[("cached edge", 32)] / series[("recompute per record", 32)]
    assert gain_large > gain_small, (gain_small, gain_large)
    assert gain_large > 1.5, gain_large


def run_tracing_overhead_ablation():
    """Per-record cost of the tracing layer in its three states.

    The tracing contract (docs/observability.md): disabled tracing is
    the *absence* of a tracer -- one ``is None`` check per hot-path
    site -- so an operator that never enabled tracing and one that
    enabled then disabled it must ingest at the same rate.  Enabled
    tracing pays for real counter updates and is reported for scale.

    Single-shot comparisons of ~30 ms runs drown a sub-3 % effect in
    machine noise, so the measurement is paired: every round times all
    variants back-to-back (order rotated to cancel position bias) and
    the reported ratio is the *median across rounds* of the per-round
    ratio to the never-traced baseline.
    """
    import statistics

    records = football_stream(60_000)
    variants = ("never traced", "enabled then disabled", "enabled")

    def timed(variant):
        # min-of-2 per sample: one OS scheduling hiccup can't skew a round.
        samples = []
        for _ in range(2):
            operator = _operator(Sum(), windows=10)
            if variant != "never traced":
                operator.enable_tracing()
            if variant == "enabled then disabled":
                operator.disable_tracing()
            samples.append(measure_throughput(operator, records).seconds)
        return min(samples)

    rounds = []
    for index in range(9):
        shift = index % len(variants)
        times = {
            variant: timed(variant) for variant in variants[shift:] + variants[:shift]
        }
        rounds.append(times)
    table = ResultTable(
        "Ablation: tracing never-on vs disabled vs enabled (per-record cost)",
        ["variant", "throughput", "time_ratio_to_never_traced"],
    )
    for variant in variants:
        best = min(times[variant] for times in rounds)
        ratio = statistics.median(
            times[variant] / times["never traced"] for times in rounds
        )
        table.add(
            variant=variant,
            throughput=len(records) / best,
            time_ratio_to_never_traced=ratio,
        )
    return table


def test_ablation_tracing_overhead():
    table = run_tracing_overhead_ablation()
    save_table(table)
    series = {row["variant"]: row["time_ratio_to_never_traced"] for row in table.rows}
    # The acceptance bar: a disabled tracer changes per-record ingest
    # cost by less than 3 % (both paths are identical code, so only
    # measurement noise separates them).
    assert abs(series["enabled then disabled"] - 1.0) < 0.03, series
    # Enabled tracing may cost, but must stay in the same league.
    assert series["enabled"] < 3.0, series


def run_sharing_ablation():
    """Aggregate sharing across queries on vs off.

    The paper's core sharing claim: concurrent queries with identical
    aggregations cost one incremental step per record, not one per query.
    Disabling signature dedup makes every query maintain its own partial
    per slice.
    """
    records = football_stream(6_000)
    table = ResultTable(
        "Ablation: aggregate sharing across queries on vs off",
        ["variant", "windows", "throughput"],
    )
    for windows in (8, 32):
        for variant, share in (("shared", True), ("per-query", False)):
            operator = GeneralSlicingOperator(
                stream_in_order=True, share_aggregates=share
            )
            for window in dashboard_windows(windows):
                operator.add_query(window, Sum())
            outcome = measure_throughput(operator, records)
            table.add(variant=variant, windows=windows, throughput=outcome.records_per_second)
    return table


def test_ablation_sharing():
    table = run_sharing_ablation()
    save_table(table)
    series = {(row["variant"], row["windows"]): row["throughput"] for row in table.rows}
    gain_small = series[("shared", 8)] / series[("per-query", 8)]
    gain_large = series[("shared", 32)] / series[("per-query", 32)]
    assert gain_large > gain_small, (gain_small, gain_large)
    assert gain_large > 2, gain_large
