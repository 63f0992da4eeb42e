"""Figure 11: output latency of aggregate stores (sum 11a, median 11c).

Paper shape: lazy techniques (lazy slicing, tuple buffer) pay the full
final aggregation at window end and their latency grows linearly with
the stored entries; eager techniques (eager slicing, aggregate tree)
answer from precomputed trees in O(log n); buckets answer from a
precomputed hash-map entry in O(1) -- the lowest latency of all, the
flip side of their poor throughput (the paper's latency/throughput
trade-off).
"""

from conftest import save_table

from repro.experiments.figures import fig11_latency

ENTRIES = (100, 1_000, 10_000)


def run():
    return fig11_latency(entries_list=ENTRIES, aggregations=("sum", "median"), iterations=60)


def _latency(table, aggregation, technique, entries):
    for row in table.rows:
        if (
            row["aggregation"] == aggregation
            and row["technique"] == technique
            and row["entries"] == entries
        ):
            return row["latency_ns"]
    raise KeyError((aggregation, technique, entries))


def test_fig11_latency():
    table = run()
    save_table(table)
    top = max(ENTRIES)

    for aggregation in ("sum", "median"):
        buckets = _latency(table, aggregation, "Buckets", top)
        eager = _latency(table, aggregation, "Eager Slicing", top)
        lazy = _latency(table, aggregation, "Lazy Slicing", top)
        buffer = _latency(table, aggregation, "Tuple Buffer", top)
        tree = _latency(table, aggregation, "Aggregate Tree", top)

        # Buckets fastest; eager techniques beat lazy ones at size.
        assert buckets <= eager, (aggregation, buckets, eager)
        assert eager < lazy / 5, (aggregation, eager, lazy)
        assert tree < buffer / 5, (aggregation, tree, buffer)

    # Lazy latency grows roughly linearly with entries; eager barely moves.
    lazy_series = [_latency(table, "sum", "Lazy Slicing", n) for n in ENTRIES]
    assert lazy_series[-1] > 10 * lazy_series[0], lazy_series
    eager_series = [_latency(table, "sum", "Eager Slicing", n) for n in ENTRIES]
    assert eager_series[-1] < 50 * eager_series[0], eager_series

    # Buckets are flat: the result is precomputed regardless of function.
    buckets_sum = _latency(table, "sum", "Buckets", top)
    buckets_median = _latency(table, "median", "Buckets", top)
    assert buckets_median < 20 * buckets_sum
