"""Figure 13: impact of the aggregation function (time vs count windows).

Paper shape: on time-based windows, all distributive/algebraic
functions run at similar speed while holistic functions (median,
90-percentile) are much slower.  On count-based windows with disorder,
invertible functions (sum) stay fast, the min/max family loses little
(removals rarely touch the aggregate), and a non-invertible function
that always needs recomputation ("sum w/o invert") decays hard.
"""

from conftest import save_table

from repro.experiments.figures import fig13_aggregations

AGGREGATIONS = (
    "sum",
    "sum w/o invert",
    "avg",
    "min",
    "max",
    "maxcount",
    "stddev",
    "median",
    "90-percentile",
)


def run():
    return fig13_aggregations(
        num_records=2_500, concurrent_windows=10, aggregations=AGGREGATIONS
    )


def _value(table, aggregation, measure):
    for row in table.rows:
        if row["aggregation"] == aggregation and row["measure"] == measure:
            return row["throughput"]
    raise KeyError((aggregation, measure))


def test_fig13_aggregations():
    table = run()
    save_table(table)

    # Time-based: algebraic functions cluster; holistic ones lag far behind.
    algebraic = [_value(table, name, "time") for name in ("sum", "avg", "min", "stddev")]
    assert max(algebraic) / min(algebraic) < 6, algebraic
    for holistic in ("median", "90-percentile"):
        assert _value(table, holistic, "time") < min(algebraic) / 2, holistic

    # Count-based with disorder: invertibility decides the decay.
    sum_ratio = _value(table, "sum", "count") / _value(table, "sum", "time")
    naive_ratio = _value(table, "sum w/o invert", "count") / _value(
        table, "sum w/o invert", "time"
    )
    assert naive_ratio < sum_ratio, (naive_ratio, sum_ratio)

    # min/max-family non-invertible functions barely decay: removals
    # rarely change the aggregate.
    max_ratio = _value(table, "max", "count") / _value(table, "max", "time")
    assert max_ratio > naive_ratio, (max_ratio, naive_ratio)
