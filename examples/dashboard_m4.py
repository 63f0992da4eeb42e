#!/usr/bin/env python3
"""The paper's motivating application: a live-visualization dashboard.

Section 6.4 drives a dashboard that renders the football stream at many
zoom levels: 80 concurrent tumbling windows (lengths 1-20 s) computing
the M4 visualization aggregate (min / max / first / last per window --
exactly the four values a pixel column of a line chart needs).

This example runs the workload on one operator instance, prints a
sample of the emitted M4 tuples, and then compares general slicing
against the bucket-per-window approach used by stock Flink -- the
Figure 17 comparison at parallelism 1.

Run with::

    python examples/dashboard_m4.py
"""

from functools import partial

from repro import GeneralSlicingOperator
from repro.aggregations import M4
from repro.baselines import AggregateBucketsOperator
from repro.data import SECOND_MS, dashboard_windows, football_stream
from repro.experiments import measure


def build_slicing_operator() -> GeneralSlicingOperator:
    operator = GeneralSlicingOperator(stream_in_order=True)
    aggregation = M4()  # shared instance: one partial per slice
    for window in dashboard_windows(80):
        operator.add_query(window, aggregation)
    return operator


def build_buckets_operator() -> AggregateBucketsOperator:
    operator = AggregateBucketsOperator(stream_in_order=True)
    aggregation = M4()
    for window in dashboard_windows(80):
        operator.add_query(window, aggregation)
    return operator


def main() -> None:
    print("generating ~5 seconds of football sensor data (2000 Hz)...")
    stream = football_stream(10_000)

    print("running the M4 dashboard workload (80 concurrent windows)\n")
    operator = build_slicing_operator()
    sample_shown = 0
    emitted = 0
    for record in stream:
        for result in operator.process(record):
            emitted += 1
            if result.query_id == 0 and sample_shown < 5:
                minimum, maximum, first, last = result.value
                print(
                    f"  1s window [{result.start / SECOND_MS:5.1f}s, "
                    f"{result.end / SECOND_MS:5.1f}s): "
                    f"min={minimum:5.2f} max={maximum:5.2f} "
                    f"first={first:5.2f} last={last:5.2f}"
                )
                sample_shown += 1
    print(f"\n{emitted} window aggregates emitted for the dashboard")
    print(f"slices held at the end: {operator.total_slices()}")

    print("\nthroughput shoot-out (same workload, fresh operators):")
    # The figures' estimator: a fresh operator per pass, the clock around
    # its replay only, fastest of a few alternated passes.
    cells = measure(
        {
            "slicing": lambda: partial(build_slicing_operator().run, stream),
            "buckets": lambda: partial(build_buckets_operator().run, stream),
        }
    )
    slicing = len(stream) / cells["slicing"].seconds
    buckets = len(stream) / cells["buckets"].seconds
    print(f"  general slicing : {slicing:>12,.0f} records/s")
    print(f"  buckets (Flink) : {buckets:>12,.0f} records/s")
    print(
        f"  speedup         : {slicing / buckets:.1f}x"
        "  (the paper reports an order of magnitude at 80 windows)"
    )


if __name__ == "__main__":
    main()
