"""Figure 13: impact of the aggregation function (time vs count windows).

Paper shape: on time-based windows, all distributive/algebraic
functions run at similar speed while holistic functions (median,
90-percentile) are much slower.  On count-based windows with disorder,
invertible functions (sum) stay fast, the min/max family loses little
(removals rarely touch the aggregate), and a non-invertible function
that always needs recomputation ("sum w/o invert") decays hard.
"""

from conftest import FULL_SCALE, figure


def test_fig13_aggregations():
    table = figure("fig13")

    def value(aggregation, measure):
        return table.value("throughput", aggregation=aggregation, measure=measure)

    # Time-based: holistic functions lag behind every algebraic one.
    algebraic = [value(name, "time") for name in ("sum", "avg", "min", "stddev")]
    for holistic in ("median", "90-percentile"):
        assert value(holistic, "time") < min(algebraic), holistic

    # Count-based with disorder: invertibility decides the decay, and
    # min/max-family non-invertible functions barely decay: removals
    # rarely change the aggregate.
    sum_ratio = value("sum", "count") / value("sum", "time")
    naive_ratio = value("sum w/o invert", "count") / value("sum w/o invert", "time")
    max_ratio = value("max", "count") / value("max", "time")
    assert naive_ratio < sum_ratio, (naive_ratio, sum_ratio)
    assert naive_ratio < max_ratio, (naive_ratio, max_ratio)
    if not FULL_SCALE:
        return
    assert max(algebraic) / min(algebraic) < 3, algebraic
    for holistic in ("median", "90-percentile"):
        assert value(holistic, "time") < min(algebraic) / 3, holistic
    assert naive_ratio < sum_ratio / 3, (naive_ratio, sum_ratio)
