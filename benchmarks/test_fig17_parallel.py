"""Figure 17: parallel stream slicing (M4 dashboard workload).

Paper shape: throughput scales near-linearly with the degree of
parallelism while dedicated cores are available, CPU utilization grows
with the worker count, and slicing holds an order-of-magnitude lead
over buckets at every parallelism level (80 concurrent windows per
operator instance).  Every row is the same computation -- the per-key
windows of one stream -- on a different number of shard workers.
"""

from conftest import FULL_SCALE, figure


def test_fig17_parallel():
    table = figure("fig17")

    def by_parallelism(technique, column):
        return {
            row["parallelism"]: row[column]
            for row in table.rows
            if row["technique"] == technique
        }

    slicing = by_parallelism("Lazy Slicing", "throughput")
    buckets = by_parallelism("Buckets", "throughput")

    # Slicing dominates buckets at every parallelism level.
    for parallelism in slicing:
        assert slicing[parallelism] > buckets[parallelism], (slicing, buckets)
        if FULL_SCALE:
            assert slicing[parallelism] > 4 * buckets[parallelism], (slicing, buckets)

    # Every degree of parallelism computes the same windows.
    for technique in ("Lazy Slicing", "Buckets"):
        counts = by_parallelism(technique, "results")
        assert len(set(counts.values())) == 1 and counts[1] > 0, (technique, counts)

    if FULL_SCALE and len(slicing) > 1:
        # A second core is worth having (x1.4-1.9 measured on a 2-vCPU
        # host, depending on what the neighbours do with the second).
        assert slicing[2] > 1.3 * slicing[1], slicing
        cpu = by_parallelism("Lazy Slicing", "cpu_percent")
        assert cpu[max(cpu)] > cpu[1] * 0.8, cpu
