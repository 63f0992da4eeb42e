"""Figure 12: impact of out-of-order fraction (12a) and delay (12b).

Paper shape: slicing and buckets hold near-constant throughput as the
out-of-order fraction rises and are robust against longer delays; the
tuple buffer and (especially) the aggregate tree decay with the
fraction, and the tuple buffer additionally decays with the delay.
"""

from conftest import save_table

from repro.experiments.figures import fig12_stream_order

FRACTIONS = (0.0, 0.2, 0.6)
DELAYS = ((0, 200), (0, 2_000), (2_000, 6_000))


def run():
    return fig12_stream_order(
        fractions=FRACTIONS,
        delay_ranges=DELAYS,
        num_records=5_000,
        concurrent_windows=10,
    )


def _series(table, panel, technique, x_column):
    rows = [r for r in table.rows if r["panel"] == panel and r["technique"] == technique]
    rows.sort(key=lambda r: r[x_column])
    return [r["throughput"] for r in rows]


def test_fig12_stream_order():
    table = run()
    save_table(table)

    # 12a: slicing tolerates growing ooo fractions far better than the
    # aggregate tree, whose leaf inserts are O(n).
    lazy = _series(table, "12a", "Lazy Slicing", "fraction")
    tree = _series(table, "12a", "Aggregate Tree", "fraction")
    lazy_decay = lazy[0] / lazy[-1]
    tree_decay = tree[0] / tree[-1]
    assert tree_decay > 2 * lazy_decay, (lazy, tree)
    assert lazy_decay < 4, lazy

    # At 60% disorder slicing dominates both buffer and tree.
    at60 = {
        row["technique"]: row["throughput"]
        for row in table.rows
        if row["panel"] == "12a" and row["fraction"] == FRACTIONS[-1]
    }
    assert at60["Lazy Slicing"] > 2 * at60["Aggregate Tree"]
    assert at60["Lazy Slicing"] > at60["Tuple Buffer"]

    # 12b: slicing robust against the delay magnitude.
    lazy_delay = _series(table, "12b", "Lazy Slicing", "delay_hi")
    assert max(lazy_delay) / min(lazy_delay) < 4, lazy_delay
