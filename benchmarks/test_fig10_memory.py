"""Figure 10: memory consumption with unordered streams.

Paper shape, time-based windows (10a/10b): slicing memory grows with
the number of slices and is independent of the number of records;
tuple buffer / aggregate tree grow with records and are independent of
slices.  Count-based windows (10c/10d): every technique must keep
records, so record volume dominates all curves.
"""

from conftest import FULL_SCALE, figure


def _series(table, panel, technique, x_column):
    rows = [r for r in table.rows if r["panel"] == panel and r["technique"] == technique]
    rows.sort(key=lambda r: r[x_column])
    return [r["bytes"] for r in rows]


def test_fig10_memory():
    table = figure("fig10")
    lazy_10a = _series(table, "10a", "Lazy Slicing", "slices")
    buffer_10a = _series(table, "10a", "Tuple Buffer", "slices")
    lazy_10b = _series(table, "10b", "Lazy Slicing", "tuples")
    buffer_10b = _series(table, "10b", "Tuple Buffer", "tuples")
    tree_10b = _series(table, "10b", "Aggregate Tree", "tuples")
    lazy_10d = _series(table, "10d", "Lazy Slicing", "tuples")

    # 10a: slicing grows with slices; 10b: buffer and tree grow with
    # tuples and end far above slicing; 10d: on count windows slicing
    # grows with tuples too.
    assert lazy_10a[0] < lazy_10a[-1]
    assert buffer_10b[0] < buffer_10b[-1] and tree_10b[0] < tree_10b[-1]
    assert lazy_10b[-1] < buffer_10b[-1] < tree_10b[-1]
    assert lazy_10d[0] < lazy_10d[-1]
    if not FULL_SCALE:
        return

    # 10a (time, vary slices): slicing grows with slices while the tuple
    # buffer is flat in the slice count.
    assert lazy_10a[-1] > 2 * lazy_10a[0], lazy_10a
    assert max(buffer_10a) < 1.3 * min(buffer_10a), buffer_10a
    # 10b (time, vary tuples): slicing flat; buffer/tree grow linearly.
    assert max(lazy_10b) < 1.5 * min(lazy_10b), lazy_10b
    assert buffer_10b[-1] > 5 * buffer_10b[0], buffer_10b
    assert tree_10b[-1] > 5 * tree_10b[0], tree_10b
    assert lazy_10b[-1] < buffer_10b[-1] / 5
    assert lazy_10b[-1] < tree_10b[-1] / 5
    # 10d (count, vary tuples): record storage dominates everyone.
    assert lazy_10d[-1] > 4 * lazy_10d[0], lazy_10d
