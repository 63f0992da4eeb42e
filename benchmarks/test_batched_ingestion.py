"""Ablation: batched ingestion fast path vs tuple-at-a-time processing.

The batched path (``GeneralSlicingOperator.process_batch``) amortizes
the per-record slice-edge check over in-order runs: one ``bisect`` per
cached edge finds how many records the open slice can absorb, and the
run is bulk-folded with ``Slice.add_run`` (a single partial-aggregate
update per incremental function).  The workload is the Figure 8
configuration -- in-order football stream, dashboard window set, Sum --
where per-record dispatch dominates and the paper's cached-edge trick
has the most room to amortize further.
"""

from conftest import save_table

from repro.aggregations import Sum
from repro.core.operator_ import GeneralSlicingOperator
from repro.data.football import football_stream
from repro.data.workloads import dashboard_windows
from repro.experiments.harness import ResultTable, scaled
from repro.runtime.metrics import measure_throughput

BATCH_SIZES = (64, 1024)


def _operator(windows=8):
    operator = GeneralSlicingOperator(stream_in_order=True)
    for window in dashboard_windows(windows):
        operator.add_query(window, Sum())
    return operator


def run_batched_ingestion_ablation():
    """Tuple-at-a-time vs batched, Figure 8 in-order sum workload."""
    records = football_stream(scaled(20_000))
    table = ResultTable(
        "Ablation: batched ingestion vs tuple-at-a-time (in-order sum)",
        ["variant", "throughput", "results"],
    )

    outcome = measure_throughput(_operator(), records)
    table.add(
        variant="tuple-at-a-time",
        throughput=outcome.records_per_second,
        results=outcome.results_emitted,
    )
    reference_emitted = outcome.results_emitted

    for batch_size in BATCH_SIZES:
        outcome = measure_throughput(_operator(), records, batch_size=batch_size)
        table.add(
            variant=f"batched ({batch_size})",
            throughput=outcome.records_per_second,
            results=outcome.results_emitted,
        )
        assert outcome.results_emitted == reference_emitted, (
            "batched path must emit exactly the tuple-at-a-time results"
        )
    return table


def test_ablation_batched_ingestion():
    table = run_batched_ingestion_ablation()
    save_table(table)
    series = {row["variant"]: row["throughput"] for row in table.rows}
    baseline = series["tuple-at-a-time"]
    best = max(series[f"batched ({size})"] for size in BATCH_SIZES)
    # The acceptance bar: bulk folding must beat per-record dispatch
    # clearly, not marginally.
    assert best >= 1.5 * baseline, (
        f"batched ingestion only reached {best / baseline:.2f}x "
        f"over tuple-at-a-time"
    )
