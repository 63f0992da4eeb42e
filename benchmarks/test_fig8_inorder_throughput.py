"""Figure 8: in-order throughput vs concurrent context-free windows.

Paper shape: all slicing techniques (lazy, eager, Pairs, Cutty) process
millions of records/s nearly independent of the number of concurrent
windows, general slicing matching the specialised ones; Buckets, Tuple
Buffer, and Aggregate Tree fall off by orders of magnitude as windows
grow.
"""

from conftest import FULL_SCALE, figure

GENERAL = ("Lazy Slicing", "Eager Slicing")
SPECIALISED = ("Pairs", "Cutty")
NON_SLICING = ("Buckets", "Tuple Buffer", "Aggregate Tree")


def test_fig8_inorder_throughput():
    table = figure("fig8")
    by_tech = table.series("technique", "throughput")
    most = max(table.column("windows"))
    at_max = {
        row["technique"]: row["throughput"] for row in table.rows if row["windows"] == most
    }

    # Slicing beats every non-slicing technique at high window counts.
    for fast in GENERAL + SPECIALISED:
        for slow in NON_SLICING:
            assert at_max[fast] > at_max[slow], (fast, slow, at_max)
    if not FULL_SCALE:
        return
    for fast in GENERAL + SPECIALISED:
        for slow in NON_SLICING:
            assert at_max[fast] > 10 * at_max[slow], (fast, slow, at_max)

    # The headline: general slicing keeps up with the techniques
    # specialised to this workload (x1.4-1.9 behind them here; the paper
    # has them equal on the JVM), at every window count.
    for general in GENERAL:
        for special in SPECIALISED:
            for ours, theirs in zip(by_tech[general], by_tech[special]):
                assert ours > theirs / 2.5, (general, special, by_tech)

    # Slicing is flat in the window count, while buckets degrade massively.
    for name in GENERAL:
        series = by_tech[name]
        assert max(series) / min(series) < 2, (name, series)
    buckets = by_tech["Buckets"]
    assert buckets[0] / buckets[-1] > 10, buckets
