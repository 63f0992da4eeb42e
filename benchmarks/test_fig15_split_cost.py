"""Figure 15: processing time for recomputing aggregates after splits.

Paper shape: recomputation time grows linearly with the number of
records in the split slice, and holistic aggregates (median) cost far
more per record than algebraic ones (sum).
"""

from conftest import FULL_SCALE, figure


def test_fig15_split_cost():
    table = figure("fig15")
    series = table.series("aggregation", "time_us")

    for aggregation in ("sum", "median"):
        times = series[aggregation]
        assert times == sorted(times), times  # grows with the slice
        if FULL_SCALE:
            # Roughly linear: 100x records within ~8-500x time.
            assert 8 < times[-1] / times[0] < 500, times

    # Holistic recomputation costs more than algebraic -- but no longer
    # "far more": since issue 14 a median slice is recomputed by ONE
    # sort of its values (`Percentile.fold_values`, C speed) instead of
    # one multiset merge per record, so the ratio fell from ~x80 to
    # x3-4 at 10 000 records.  The old `> 5x` bound asserted the merge
    # loop, not the paper's claim; what remains of it is the ranking.
    assert series["median"][-1] > series["sum"][-1], series
    if FULL_SCALE:
        assert series["median"][-1] > 2 * series["sum"][-1], series
