"""Figure 12: impact of out-of-order fraction (12a) and delay (12b).

Paper shape: slicing and buckets hold near-constant throughput as the
out-of-order fraction rises and are robust against longer delays; the
tuple buffer and (especially) the aggregate tree decay with the
fraction, and the tuple buffer additionally decays with the delay.
"""

from conftest import FULL_SCALE, figure


def _series(table, panel, technique, x_column):
    rows = [r for r in table.rows if r["panel"] == panel and r["technique"] == technique]
    rows.sort(key=lambda r: r[x_column])
    return [r["throughput"] for r in rows]


def test_fig12_stream_order():
    table = figure("fig12")
    lazy = _series(table, "12a", "Lazy Slicing", "fraction")
    buffer = _series(table, "12a", "Tuple Buffer", "fraction")
    tree = _series(table, "12a", "Aggregate Tree", "fraction")

    # At the highest disorder slicing dominates both buffer and tree,
    # and the tree decays more than slicing does.
    assert lazy[-1] > buffer[-1] > tree[-1], (lazy, buffer, tree)
    lazy_decay = lazy[0] / lazy[-1]
    tree_decay = tree[0] / tree[-1]
    assert tree_decay > lazy_decay, (lazy, tree)
    if not FULL_SCALE:
        return

    # 12a: slicing tolerates growing ooo fractions; the aggregate tree,
    # whose leaf inserts are O(n), and the tuple buffer collapse.
    assert lazy_decay < 2, lazy
    assert tree_decay > 20 * lazy_decay, (lazy, tree)
    assert buffer[0] / buffer[-1] > 10, buffer
    assert lazy[-1] > 10 * buffer[-1], (lazy, buffer)

    # 12b: slicing robust against the delay magnitude; the tuple buffer
    # decays with it.
    lazy_delay = _series(table, "12b", "Lazy Slicing", "delay_hi")
    assert max(lazy_delay) / min(lazy_delay) < 2, lazy_delay
    buffer_delay = _series(table, "12b", "Tuple Buffer", "delay_hi")
    assert buffer_delay[0] > buffer_delay[-1], buffer_delay
