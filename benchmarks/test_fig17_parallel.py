"""Figure 17: parallel stream slicing (M4 dashboard workload).

Paper shape: throughput scales near-linearly with the degree of
parallelism while dedicated cores are available, CPU utilization grows
with the worker count, and slicing holds an order-of-magnitude lead
over buckets at every parallelism level (80 concurrent windows per
operator instance).  Every row is the same computation -- the per-key
windows of one stream -- on a different number of shard workers.
"""

import os

from conftest import save_table

from repro.experiments.figures import fig17_parallel

CPUS = os.cpu_count() or 1
PARALLELISM = tuple(p for p in (1, 2, 4) if p <= CPUS) or (1,)


def run():
    # 64 000 records: at 16 000, building the 64 per-key operators (80
    # add_query calls each) is over half of the one-worker slicing run
    # and the margins below are marginal.
    return fig17_parallel(parallelism_list=PARALLELISM, num_records=64_000)


def _by_parallelism(table, technique, column):
    return {
        row["parallelism"]: row[column]
        for row in table.rows
        if row["technique"] == technique
    }


def test_fig17_parallel():
    table = run()
    save_table(table)
    slicing = _by_parallelism(table, "Lazy Slicing", "throughput")
    buckets = _by_parallelism(table, "Buckets", "throughput")

    # Slicing dominates buckets at every parallelism level.
    for parallelism in PARALLELISM:
        assert slicing[parallelism] > 2 * buckets[parallelism], (
            parallelism,
            slicing,
            buckets,
        )

    # Every degree of parallelism computes the same windows.
    for technique in ("Lazy Slicing", "Buckets"):
        counts = _by_parallelism(table, technique, "results")
        assert len(set(counts.values())) == 1 and counts[1] > 0, (technique, counts)

    if len(PARALLELISM) > 1:
        # A second core is worth having (x1.9 measured on a 2-vCPU host).
        assert slicing[2] > 1.3 * slicing[1], slicing
        cpu = _by_parallelism(table, "Lazy Slicing", "cpu_percent")
        assert cpu[PARALLELISM[-1]] > cpu[1] * 0.8, cpu
