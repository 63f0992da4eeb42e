"""Figure 15: processing time for recomputing aggregates after splits.

Paper shape: recomputation time grows linearly with the number of
records in the split slice, and holistic aggregates (median) cost far
more per record than algebraic ones (sum).
"""

from conftest import save_table

from repro.experiments.figures import fig15_split_cost

SIZES = (100, 1_000, 10_000)


def run():
    return fig15_split_cost(sizes=SIZES, repetitions=5)


def _series(table, aggregation):
    rows = [r for r in table.rows if r["aggregation"] == aggregation]
    rows.sort(key=lambda r: r["tuples"])
    return [r["time_us"] for r in rows]


def test_fig15_split_cost():
    table = run()
    save_table(table)

    for aggregation in ("sum", "median"):
        series = _series(table, aggregation)
        # Monotone growth, roughly linear: 100x records within ~8-500x time.
        assert series[0] < series[1] < series[2], series
        assert 8 < series[2] / series[0] < 2_000, series

    # Holistic recomputation costs much more than algebraic recomputation.
    assert _series(table, "median")[-1] > 5 * _series(table, "sum")[-1]
