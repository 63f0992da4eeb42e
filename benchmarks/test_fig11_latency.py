"""Figure 11: output latency of aggregate stores (sum 11a, median 11c).

Paper shape: lazy techniques (lazy slicing, tuple buffer) pay the full
final aggregation at window end and their latency grows linearly with
the stored entries; eager techniques (eager slicing, aggregate tree)
answer from precomputed structures; buckets answer from a precomputed
hash-map entry in O(1) -- the lowest latency of all, the flip side of
their poor throughput (the paper's latency/throughput trade-off).
"""

from conftest import FULL_SCALE, figure


def test_fig11_latency():
    table = figure("fig11")
    sizes = sorted(set(table.column("entries")))
    top = sizes[-1]

    def latency(aggregation, technique, entries=top):
        return table.value(
            "latency_ns", aggregation=aggregation, technique=technique, entries=entries
        )

    for aggregation in ("sum", "median"):
        buckets = latency(aggregation, "Buckets")
        eager = latency(aggregation, "Eager Slicing")
        lazy = latency(aggregation, "Lazy Slicing")
        buffer = latency(aggregation, "Tuple Buffer")
        tree = latency(aggregation, "Aggregate Tree")
        # Buckets fastest; eager techniques beat lazy ones.
        assert buckets <= eager < lazy, (aggregation, buckets, eager, lazy)
        assert tree < buffer, (aggregation, tree, buffer)
        if FULL_SCALE:
            assert eager < lazy / 5, (aggregation, eager, lazy)
            assert tree < buffer / 5, (aggregation, tree, buffer)
    if not FULL_SCALE:
        return

    # Lazy latency grows roughly linearly with entries; eager barely moves.
    lazy_series = [latency("sum", "Lazy Slicing", n) for n in sizes]
    assert lazy_series[-1] > 10 * lazy_series[0], lazy_series
    eager_series = [latency("sum", "Eager Slicing", n) for n in sizes]
    assert eager_series[-1] < 5 * eager_series[0], eager_series
    # Buckets are flat: the result is precomputed regardless of function.
    assert latency("median", "Buckets") < 20 * latency("sum", "Buckets")
