"""Command-line experiment runner: regenerate paper tables and figures.

Usage::

    python -m repro.experiments                # every experiment
    python -m repro.experiments fig8 fig11     # a selection
    REPRO_BENCH_SCALE=4 python -m repro.experiments fig9

Each experiment prints its result table; the benchmark suite
(`pytest benchmarks/`) additionally asserts the
paper's qualitative shapes.
"""

from __future__ import annotations

import sys
import time

from . import (
    fig8_inorder_throughput,
    fig9_ooo_throughput,
    fig10_memory,
    fig11_latency,
    fig12_stream_order,
    fig13_aggregations,
    fig14_holistic,
    fig15_split_cost,
    fig16_measures,
    fig17_parallel,
    recovery_latency,
    table1_memory_models,
)

EXPERIMENTS = {
    "table1": lambda: [table1_memory_models()],
    "fig8": lambda: [fig8_inorder_throughput()],
    "fig9": lambda: [
        fig9_ooo_throughput(dataset="football"),
        fig9_ooo_throughput(dataset="machine"),
    ],
    "fig10": lambda: [fig10_memory()],
    "fig11": lambda: [fig11_latency()],
    "fig12": lambda: [fig12_stream_order()],
    "fig13": lambda: [fig13_aggregations()],
    "fig14": lambda: [fig14_holistic()],
    "fig15": lambda: [fig15_split_cost()],
    "fig16": lambda: [fig16_measures()],
    "fig17": lambda: [fig17_parallel()],
    "recovery": lambda: [recovery_latency()],
}


def main(argv: list[str]) -> int:
    """Run the selected experiments (all when ``argv`` is empty)."""
    names = argv or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        begin = time.perf_counter()
        tables = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - begin
        for table in tables:
            print(table.render())
            print()
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
