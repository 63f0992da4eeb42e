"""Figure 10: memory consumption with unordered streams.

Paper shape, time-based windows (10a/10b): slicing memory grows with
the number of slices and is independent of the number of records;
tuple buffer / aggregate tree grow with records and are independent of
slices.  Count-based windows (10c/10d): every technique must keep
records, so record volume dominates all curves.
"""

from conftest import save_table

from repro.experiments.figures import fig10_memory

SLICES = (50, 200, 800)
TUPLES = (1_000, 4_000, 16_000)


def run():
    return fig10_memory(
        slices_list=SLICES,
        tuples_list=TUPLES,
        fixed_tuples=8_000,
        fixed_slices=200,
    )


def _series(table, panel, technique, x_column):
    rows = [r for r in table.rows if r["panel"] == panel and r["technique"] == technique]
    rows.sort(key=lambda r: r[x_column])
    return [r["bytes"] for r in rows]


def test_fig10_memory():
    table = run()
    save_table(table)

    # 10a (time, vary slices): slicing grows with slices...
    lazy_10a = _series(table, "10a", "Lazy Slicing", "slices")
    assert lazy_10a[-1] > 2 * lazy_10a[0], lazy_10a
    # ...while the tuple buffer is flat in the slice count.
    buffer_10a = _series(table, "10a", "Tuple Buffer", "slices")
    assert max(buffer_10a) < 1.3 * min(buffer_10a), buffer_10a

    # 10b (time, vary tuples): slicing flat; buffer/tree grow linearly.
    lazy_10b = _series(table, "10b", "Lazy Slicing", "tuples")
    assert max(lazy_10b) < 1.5 * min(lazy_10b), lazy_10b
    buffer_10b = _series(table, "10b", "Tuple Buffer", "tuples")
    assert buffer_10b[-1] > 5 * buffer_10b[0], buffer_10b
    tree_10b = _series(table, "10b", "Aggregate Tree", "tuples")
    assert tree_10b[-1] > 5 * tree_10b[0], tree_10b

    # Time-based: slicing uses far less memory than record-keeping
    # techniques at high record counts.
    assert lazy_10b[-1] < buffer_10b[-1] / 5
    assert lazy_10b[-1] < tree_10b[-1] / 5

    # 10d (count, vary tuples): record storage dominates everyone --
    # slicing now grows with tuples too.
    lazy_10d = _series(table, "10d", "Lazy Slicing", "tuples")
    assert lazy_10d[-1] > 4 * lazy_10d[0], lazy_10d
