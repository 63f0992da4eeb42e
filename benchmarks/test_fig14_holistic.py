"""Figure 14: holistic aggregation (median) across techniques/datasets.

Paper shape: slicing beats the tuple buffer and tuple buckets on
holistic aggregations because sorted RLE-encoded slices are shared
among overlapping windows instead of recomputed per window; the
low-cardinality machine dataset (37 distinct values) runs faster than
the high-cardinality football dataset thanks to run-length encoding.
"""

from conftest import figure


def test_fig14_holistic():
    table = figure("fig14")

    def value(dataset, technique):
        return table.value("throughput", dataset=dataset, technique=technique)

    for dataset in ("football", "machine"):
        slicing = value(dataset, "Lazy Slicing")
        assert slicing > value(dataset, "Tuple Buffer"), dataset
        assert slicing > value(dataset, "Tuple Buckets"), dataset

    # Cardinality effect: machine (37 distinct values) beats football
    # (~tens of thousands) for slicing thanks to RLE.
    assert value("machine", "Lazy Slicing") > value("football", "Lazy Slicing")
