"""Figure 8: in-order throughput vs concurrent context-free windows.

Paper shape: all slicing techniques (lazy, eager, Pairs, Cutty) process
millions of records/s nearly independent of the number of concurrent
windows; Buckets, Tuple Buffer, and Aggregate Tree fall off by orders
of magnitude as windows grow.
"""

from conftest import geometric_speedup, save_table

from repro.experiments.figures import fig8_inorder_throughput

WINDOWS = (1, 8, 64)
SLICING = ("Lazy Slicing", "Eager Slicing", "Pairs", "Cutty")
NON_SLICING = ("Buckets", "Tuple Buffer", "Aggregate Tree")


def run():
    return fig8_inorder_throughput(windows_list=WINDOWS, num_records=8_000)


def test_fig8_inorder_throughput():
    table = run()
    save_table(table)
    by_tech = table.series("technique", "throughput")

    # Slicing beats every non-slicing technique at high window counts.
    at_max = {
        row["technique"]: row["throughput"]
        for row in table.rows
        if row["windows"] == max(WINDOWS)
    }
    for fast in SLICING:
        for slow in NON_SLICING:
            assert at_max[fast] > 3 * at_max[slow], (fast, slow, at_max)

    # Slicing stays within a small factor across window counts, while
    # buckets degrade massively.
    for name in ("Lazy Slicing", "Eager Slicing"):
        series = by_tech[name]
        assert max(series) / min(series) < 8, (name, series)
    buckets = by_tech["Buckets"]
    assert buckets[0] / buckets[-1] > 5, buckets
