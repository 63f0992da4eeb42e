"""Ablations of the design choices DESIGN.md calls out.

Each disables one optimization of general slicing and shows the cost it
would re-introduce.  Like the figures, they take every size from the
``FIGURES`` registry and every timed number from the one estimator.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from ..aggregations import AggregateFunction, Median, PlainMedian, Sum
from ..core.operator_ import GeneralSlicingOperator
from ..core.operator_base import WindowOperator
from ..runtime.memory import deep_sizeof
from .estimate import measure
from ..data.workloads import constrained_stream
from .figures import OOO_MAX_DELAY, counting, dashboard, replay, throughput_table
from .harness import ResultTable, Workload, stream_header


def slicing(
    windows: int,
    aggregation: AggregateFunction,
    *,
    in_order: bool = True,
    always_store_records: bool = False,
    cache_edges: bool = True,
    **options: object,
) -> WindowOperator:
    """General slicing on the dashboard workload, with the ablation
    switches: constructor ``options`` and two per-chain overrides."""
    operator = GeneralSlicingOperator(
        stream_in_order=in_order,
        allowed_lateness=0 if in_order else 2 * OOO_MAX_DELAY,
        **options,
    )
    dashboard(operator, windows, aggregation)
    for chain in operator._chains.values():
        chain.slicer.cache_edges = cache_edges
        if always_store_records:  # overrule the Figure 4 decision tree
            chain.characteristics.store_tuples = True
            chain.slicer.store_records = True
            chain.manager.store_records = True
    return operator


def rle_ablation(*, workloads: Sequence[Workload]) -> ResultTable:
    """Median with RLE runs vs plain sorted lists, per dataset."""
    streams = [(workload, workload.stream()) for workload in workloads]
    cases = {
        (workload.name, variant): replay(
            partial(slicing, workload.windows[0], aggregation), records
        )
        for workload, records in streams
        for variant, aggregation in (("rle", Median()), ("plain", PlainMedian()))
    }
    return throughput_table(
        "Ablation: RLE-encoded runs vs plain sorted lists (median)",
        ["dataset", "variant"],
        stream_header(*streams),
        cases,
    )


def tuple_storage_ablation(*, workload: Workload) -> ResultTable:
    """Figure 4 decision tree vs always storing records: state retained
    at the end of the stream, and throughput.

    The tree drops the records of a ``median`` as it does those of a
    ``sum``: the multiset partial already holds every value.  The last
    row is the case where it cannot -- count windows out of order shift
    records between slices -- so those slices hold each value twice, in
    the record list and in the multiset (ROADMAP item 14(g)).
    """
    records = workload.stream()
    stream = constrained_stream(records)
    table = ResultTable(
        "Ablation: Figure 4 decision tree vs always storing records",
        ["variant", "bytes", "throughput"],
        stream_header((workload, records)),
    )
    windows = workload.windows[0]
    on_time = partial(slicing, windows, in_order=False)
    variants = {
        "sum: decision tree (drops records)": partial(on_time, Sum()),
        "sum: always store records": partial(on_time, Sum(), always_store_records=True),
        "median: decision tree (drops records)": partial(on_time, Median()),
        "median: always store records": partial(on_time, Median(), always_store_records=True),
        "median, count windows: decision tree (keeps records)": partial(
            counting, "Lazy Slicing", windows, len(records), Median()
        ),
    }

    def case(make: Callable[[], WindowOperator]):
        def build():
            operator = make()

            def run() -> WindowOperator:
                operator.run(stream)
                return operator

            return run

        return build

    cells = measure({variant: case(make) for variant, make in variants.items()})
    for variant, cell in cells.items():
        table.add(
            variant=variant,
            bytes=sum(deep_sizeof(o) for o in cell.value.state_objects()),
            throughput=len(records) / cell.seconds,
        )
    return table


def lazy_vs_eager_ablation(*, workload: Workload) -> ResultTable:
    """Throughput cost of maintaining the eager slice tree."""
    records = workload.stream()
    stream = constrained_stream(records)
    cases = {
        (variant,): replay(
            partial(slicing, workload.windows[0], Sum(), in_order=False, eager=eager), stream
        )
        for variant, eager in (("lazy", False), ("eager", True))
    }
    return throughput_table(
        "Ablation: lazy vs eager aggregate store (throughput side)",
        ["variant"],
        stream_header((workload, records)),
        cases,
    )


def edge_cache_ablation(*, workload: Workload) -> ResultTable:
    """Cached next-edge vs recomputing the edge for every record.

    The paper's Step 1 claims high efficiency because "the majority of
    tuples do not end a slice and require just one comparison of
    timestamps"; disabling the cache makes every record evaluate every
    registered window's next edge.
    """
    records = workload.stream()
    cases = {
        (variant, windows): replay(partial(slicing, windows, Sum(), cache_edges=cached), records)
        for windows in workload.windows
        for variant, cached in (("cached edge", True), ("recompute per record", False))
    }
    return throughput_table(
        "Ablation: cached next-edge vs per-record edge recomputation",
        ["variant", "windows"],
        stream_header((workload, records)),
        cases,
    )


def tracing_overhead_ablation(*, workload: Workload) -> ResultTable:
    """Per-record cost of the tracing layer in its three states.

    The tracing contract (docs/observability.md): disabled tracing is
    the *absence* of a tracer -- one ``is None`` check per hot-path
    site -- so an operator that never enabled tracing and one that
    enabled then disabled it must ingest at the same rate.  Enabled
    tracing pays for real counter updates and is reported for scale.

    Never-traced is measured three times: what separates identical cells
    is what this run can resolve, and the bar is 3 %.
    """
    records = workload.stream()
    table = ResultTable(
        "Ablation: tracing never-on vs disabled vs enabled (per-record cost)",
        ["variant", "throughput", "time_ratio_to_never_traced"],
        stream_header((workload, records)),
    )

    def make(variant: str) -> WindowOperator:
        operator = slicing(workload.windows[0], Sum())
        if variant.startswith("enabled"):
            operator.enable_tracing()
        if variant == "enabled then disabled":
            operator.disable_tracing()
        return operator

    variants = ("never traced", "never traced (2)", "never traced (3)")
    variants += ("enabled then disabled", "enabled")
    cells = measure({variant: replay(partial(make, variant), records) for variant in variants})
    for variant, cell in cells.items():
        table.add(
            variant=variant,
            throughput=len(records) / cell.seconds,
            time_ratio_to_never_traced=cell.seconds / cells["never traced"].seconds,
        )
    return table


def sharing_ablation(*, workload: Workload) -> ResultTable:
    """Aggregate sharing across queries on vs off.

    The paper's core sharing claim: concurrent queries with identical
    aggregations cost one incremental step per record, not one per query.
    Disabling signature dedup makes every query maintain its own partial
    per slice.
    """
    records = workload.stream()
    cases = {
        (variant, windows): replay(
            partial(slicing, windows, Sum(), share_aggregates=share), records
        )
        for windows in workload.windows
        for variant, share in (("shared", True), ("per-query", False))
    }
    return throughput_table(
        "Ablation: aggregate sharing across queries on vs off",
        ["variant", "windows"],
        stream_header((workload, records)),
        cases,
    )


def batched_ingestion_ablation(
    *, workload: Workload, batch_sizes: Sequence[int]
) -> ResultTable:
    """Tuple-at-a-time vs ``process_batch``, the Figure 8 in-order sum
    workload: ``run(batch_size=)`` amortizes the slice-edge check over
    in-order runs and bulk-folds them.  Every variant must emit the same
    number of results."""
    records = workload.stream()
    table = ResultTable(
        "Ablation: batched ingestion vs tuple-at-a-time (in-order sum)",
        ["variant", "throughput", "results"],
        stream_header((workload, records)),
    )

    def case(**run_options: object):
        def build():
            operator = slicing(workload.windows[0], Sum())
            return lambda: len(operator.run(records, **run_options))

        return build

    cases = {"tuple-at-a-time": case()}
    for batch_size in batch_sizes:
        cases[f"batched ({batch_size})"] = case(batch_size=batch_size)
    for variant, cell in measure(cases).items():
        table.add(
            variant=variant, throughput=len(records) / cell.seconds, results=cell.value
        )
    return table
