"""Figure 14: holistic aggregation (median) across techniques/datasets.

Paper shape: slicing beats the tuple buffer and tuple buckets on
holistic aggregations because sorted RLE-encoded slices are shared
among overlapping windows instead of recomputed per window; the
low-cardinality machine dataset (37 distinct values) runs faster than
the high-cardinality football dataset thanks to run-length encoding.
"""

from conftest import save_table

from repro.experiments.figures import fig14_holistic


def run():
    return fig14_holistic(num_records=2_500, concurrent_windows=10)


def _value(table, dataset, technique):
    for row in table.rows:
        if row["dataset"] == dataset and row["technique"] == technique:
            return row["throughput"]
    raise KeyError((dataset, technique))


def test_fig14_holistic():
    table = run()
    save_table(table)

    for dataset in ("football", "machine"):
        slicing = _value(table, dataset, "Lazy Slicing")
        buffer = _value(table, dataset, "Tuple Buffer")
        buckets = _value(table, dataset, "Tuple Buckets")
        assert slicing > buffer, (dataset, slicing, buffer)
        assert slicing > buckets, (dataset, slicing, buckets)

    # Cardinality effect: machine (37 distinct values) beats football
    # (~tens of thousands) for slicing thanks to RLE.
    assert _value(table, "machine", "Lazy Slicing") > _value(
        table, "football", "Lazy Slicing"
    )
