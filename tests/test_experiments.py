"""Tests for the experiment harness and small-scale figure runs."""

import pytest

from repro.experiments import (
    INORDER_ONLY_TECHNIQUES,
    TECHNIQUES,
    ResultTable,
    bench_scale,
    make_operator,
    scaled,
)
from repro.data.football import football_keyed_stream
from repro.experiments.figures import (
    _parallel_slicing_factory,
    fig11_latency,
    fig13_aggregations,
    fig15_split_cost,
    fig17_parallel,
    table1_memory_models,
)
from repro.runtime import ShardedPipeline


class TestHarness:
    def test_all_paper_techniques_registered(self):
        for name in (
            "Lazy Slicing",
            "Eager Slicing",
            "Tuple Buffer",
            "Aggregate Tree",
            "Buckets",
            "Tuple Buckets",
            "Pairs",
            "Cutty",
        ):
            assert name in TECHNIQUES

    def test_make_operator_builds_each_inorder_technique(self):
        for name in TECHNIQUES:
            operator = make_operator(name, stream_in_order=True)
            assert operator is not None

    def test_inorder_only_techniques_reject_ooo(self):
        for name in INORDER_ONLY_TECHNIQUES:
            with pytest.raises(ValueError):
                make_operator(name, stream_in_order=False)

    def test_unknown_technique(self):
        with pytest.raises(KeyError):
            make_operator("Quantum Slicing", stream_in_order=True)

    def test_scaled_respects_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scaled(1000, minimum=10) == 10

    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_bench_scale_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-number")
        assert bench_scale() == 1.0


class TestResultTable:
    def test_add_and_column(self):
        table = ResultTable("t", ["a", "b"])
        table.add(a=1, b=2)
        table.add(a=3, b=4)
        assert table.column("a") == [1, 3]

    def test_missing_column_rejected(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(a=1)

    def test_series_grouping(self):
        table = ResultTable("t", ["tech", "value"])
        table.add(tech="x", value=1)
        table.add(tech="y", value=2)
        table.add(tech="x", value=3)
        assert table.series("tech", "value") == {"x": [1, 3], "y": [2]}

    def test_render_contains_rows(self):
        table = ResultTable("My Title", ["name", "value"])
        table.add(name="sum", value=123456.0)
        text = table.render()
        assert "My Title" in text
        assert "sum" in text
        assert "123,456" in text

    def test_render_empty(self):
        table = ResultTable("Empty", ["col"])
        assert "Empty" in table.render()


class TestSmallFigureRuns:
    """Tiny-scale executions proving each experiment function works."""

    def test_table1(self):
        table = table1_memory_models()
        assert len(table.rows) == 8

    def test_fig11_small(self):
        table = fig11_latency(entries_list=(50,), aggregations=("sum",), iterations=20)
        techniques = set(table.column("technique"))
        assert "Lazy Slicing" in techniques and "Buckets" in techniques
        assert all(row["latency_ns"] > 0 for row in table.rows)

    def test_fig11_bucket_fastest(self):
        table = fig11_latency(entries_list=(2000,), aggregations=("sum",), iterations=50)
        latency = {row["technique"]: row["latency_ns"] for row in table.rows}
        assert latency["Buckets"] <= latency["Lazy Slicing"]
        assert latency["Buckets"] <= latency["Tuple Buffer"]

    def test_fig13_subset(self):
        table = fig13_aggregations(
            num_records=400, concurrent_windows=4, aggregations=("sum", "min")
        )
        assert len(table.rows) == 4  # 2 aggregations x 2 measures
        assert all(row["throughput"] > 0 for row in table.rows)

    def test_fig15_monotone_in_slice_size(self):
        table = fig15_split_cost(sizes=(100, 2000), aggregations=("sum",), repetitions=3)
        times = table.column("time_us")
        assert times[1] > times[0]

    @pytest.mark.shard
    def test_fig17_small(self):
        table = fig17_parallel(parallelism_list=(1, 2), num_records=600, num_keys=4)
        assert [(row["technique"], row["parallelism"]) for row in table.rows] == [
            ("Lazy Slicing", 1),
            ("Lazy Slicing", 2),
            ("Buckets", 1),
            ("Buckets", 2),
        ]
        assert all(row["throughput"] > 0 for row in table.rows)
        assert all(row["cpu_percent"] > 0 for row in table.rows)
        # Every row computes the same per-key windows.
        assert len(set(table.column("results"))) == 1
        assert table.rows[0]["results"] > 0

    @pytest.mark.shard
    def test_fig17_results_do_not_depend_on_parallelism(self):
        """The scale-out claim is about one computation on more cores:
        the figure's slicing factory yields the same merged result list
        on one worker and on two."""
        stream = football_keyed_stream(600, 4)

        def run(parallelism):
            results = ShardedPipeline(_parallel_slicing_factory, parallelism).run(stream)
            # WindowResult equality leaves the key tag out.
            return [(result, result.key) for result in results]

        assert run(1) == run(2) != []
