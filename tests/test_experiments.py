"""Tests for the experiment harness, the figure registry and its sizes."""

import os
from functools import lru_cache, partial

import pytest

from repro.aggregations import M4
from repro.data.workloads import dashboard_windows
from repro.experiments import (
    FIGURES,
    INORDER_ONLY_TECHNIQUES,
    TECHNIQUES,
    ResultTable,
    bench_scale,
    make_operator,
    scaled,
)
from repro.experiments.estimate import ROUNDS
from repro.experiments.figures import technique
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

    def test_header_line_follows_the_title(self):
        table = ResultTable("Title", ["col"], "120 records, span 6 s, 3 rounds")
        assert table.render().splitlines()[:2] == ["Title", "120 records, span 6 s, 3 rounds"]

    def test_value_selects_the_one_matching_row(self):
        table = ResultTable("t", ["tech", "windows", "value"])
        table.add(tech="x", windows=1, value=10)
        table.add(tech="x", windows=8, value=20)
        assert table.value("value", tech="x", windows=8) == 20
        with pytest.raises(ValueError):
            table.value("value", tech="x")


#: What the tier-1 smoke runs shrink every registered size to.
TINY_SCALE = "0.01"

_tiny_tables = {}


@pytest.fixture
def tiny(monkeypatch):
    """``tiny(name)``: the registered table at :data:`TINY_SCALE`,
    generated once per session however many tests read it."""

    def table(name):
        if name not in _tiny_tables:
            monkeypatch.setenv("REPRO_BENCH_SCALE", TINY_SCALE)
            _tiny_tables[name] = FIGURES[name][1]()
        return _tiny_tables[name]

    return table


def _workloads(name):
    """Every :class:`Workload` the registry binds to a figure."""
    bound = FIGURES[name][1].keywords
    return [bound["workload"]] if "workload" in bound else list(bound.get("workloads", ()))


@lru_cache(maxsize=None)
def _timestamps(workload):
    return [record.ts for record in workload.stream()]


class TestRegistry:
    def test_every_table_of_the_evaluation_is_registered(self):
        paper = {"table1", "fig8", "fig9_football", "fig9_machine"} | {
            f"fig{n}" for n in range(10, 18)
        }
        ablations = {name for name, (family, _) in FIGURES.items() if family == "ablation"}
        assert paper <= set(FIGURES)
        assert len(ablations) == 7 and all(n.startswith("ablation_") for n in ablations)
        assert set(FIGURES) == paper | ablations | {"recovery"}

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(name, marks=pytest.mark.shard) if name == "fig17" else name
            for name in FIGURES
        ],
    )
    def test_generator_runs_at_tiny_scale(self, name, tiny):
        """Every registered generator runs with no argument, fills its
        declared columns and says what it replayed."""
        table = tiny(name)
        assert table.rows, name
        assert all(list(row) == table.columns for row in table.rows)
        for word in ("records", "span", "rounds"):
            assert word in table.header, (name, table.header)
        lines = table.render().splitlines()
        assert lines[0] == table.title and lines[1] == table.header

    @pytest.mark.parametrize("name", [name for name in FIGURES if _workloads(name)])
    def test_size_rule_at_scale_one(self, name, monkeypatch):
        """Every replayed stream spans at least three times its longest
        window and, where a session is registered, three session gaps --
        computed from the stream the registry's size spec generates."""
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        for workload in _workloads(name):
            stamps = _timestamps(workload)
            assert len(stamps) == workload.records
            span = stamps[-1] - stamps[0]
            longest = max(w.length for w in dashboard_windows(max(workload.windows)))
            assert span >= 3 * longest, (name, span)
            if workload.session_gap is not None:
                gaps = sum(
                    later - earlier > workload.session_gap
                    for earlier, later in zip(stamps, stamps[1:])
                )
                assert gaps >= 3, (name, gaps)

    def test_replayed_figures_all_declare_a_workload(self):
        sizeless = {name for name in FIGURES if not _workloads(name)}
        assert sizeless == {"table1", "fig10", "fig11", "fig15"}


class TestSmallFigureRuns:
    """Shapes that hold even at the smoke size."""

    def test_table1(self, tiny):
        assert len(tiny("table1").rows) == 8

    def test_fig11_small(self, tiny):
        table = tiny("fig11")
        techniques = set(table.column("technique"))
        assert "Lazy Slicing" in techniques and "Buckets" in techniques
        assert all(row["latency_ns"] > 0 for row in table.rows)

    def test_fig11_bucket_fastest(self, tiny):
        table = tiny("fig11")
        top = max(table.column("entries"))
        for aggregation in ("sum", "median"):
            latency = {
                row["technique"]: row["latency_ns"]
                for row in table.rows
                if (row["aggregation"], row["entries"]) == (aggregation, top)
            }
            assert latency["Buckets"] <= latency["Lazy Slicing"]
            assert latency["Buckets"] <= latency["Tuple Buffer"]

    def test_fig11_eager_sum_runs_the_kernel_an_inorder_operator_gets(self, monkeypatch):
        """The eager row times the shipped path: ``select_kernel`` sends
        an in-order ``Sum`` to subtract-on-evict, not to the FlatFAT
        default of a bare ``EagerAggregateStore``."""
        from repro.aggregations import Sum
        from repro.core.kernels import SubtractOnEvictKernel
        from repro.experiments import figures

        built = []

        class Spy(figures.EagerAggregateStore):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(figures, "EagerAggregateStore", Spy)
        eager_query = figures._store_queries(Sum(), 16)["Eager Slicing"]
        (store,) = built
        assert [type(kernel) for kernel in store.kernels] == [SubtractOnEvictKernel]
        assert eager_query() == sum(float(i % 101) for i in range(16))

    def test_fig13_subset(self, tiny):
        table = tiny("fig13")
        assert len(table.rows) == 2 * len(set(table.column("aggregation")))
        assert {"sum", "min", "median"} <= set(table.column("aggregation"))
        assert all(row["throughput"] > 0 for row in table.rows)

    def test_fig15_monotone_in_slice_size(self, tiny):
        times = tiny("fig15").series("aggregation", "time_us")["sum"]
        assert times[-1] > times[0]

    @pytest.mark.shard
    def test_fig17_small(self, tiny):
        table = tiny("fig17")
        degrees = [p for p in (1, 2, 4) if p <= (os.cpu_count() or 1)] or [1]
        assert [(row["technique"], row["parallelism"]) for row in table.rows] == [
            (name, degree) for name in ("Lazy Slicing", "Buckets") for degree in degrees
        ]
        assert all(row["throughput"] > 0 for row in table.rows)
        assert all(row["cpu_percent"] > 0 for row in table.rows)
        # Every row computes the same per-key windows.
        assert len(set(table.column("results"))) == 1
        assert table.rows[0]["results"] > 0

    @pytest.mark.shard
    def test_fig17_results_do_not_depend_on_parallelism(self, monkeypatch):
        """The scale-out claim is about one computation on more cores:
        the figure's slicing factory yields the same merged result list
        on one worker and on two."""
        monkeypatch.setenv("REPRO_BENCH_SCALE", TINY_SCALE)
        (workload,) = _workloads("fig17")
        stream = workload.stream()
        factory = partial(technique, "Lazy Slicing", workload.windows[0], M4(), in_order=True)

        def run(parallelism):
            return ShardedPipeline(factory, parallelism).run(stream)

        assert run(1) == run(2) != []
