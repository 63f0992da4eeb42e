"""Smoke test of the benchmark itself.  Not part of tier-1; run it explicitly:

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import measure  # noqa: E402 - puts src/ on the path
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_names_the_workloads() -> None:
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)
    for gated in run.SPEC["workloads"]:
        assert gated["why"] == WORKLOADS[gated["name"]].why
    assert "setup_s" in run.END_TO_END


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_at_quarter_size(workload: str, capfd) -> None:
    """Quarter size (12 s of event time is the least that closes a 10 s
    window), one round per process: completes, prints every metric of
    BENCHMARK.json exactly once, and nothing fails."""
    status = run.main(["--workload", workload, "--scale", "0.25", "--seconds", "0"])
    lines = capfd.readouterr().out.splitlines()
    assert status == 0

    printed = [line.split()[0] for line in lines if line.startswith("  ") and line.split()]
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert printed.count(name) == 1, name
    assert any("failed_share 0.000000" in line for line in lines)

    outcome = json.loads(lines[-1])
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 1
    assert set(outcome["metrics"]) == set(run.END_TO_END) | set(run.PER_LAYER)
    for name in run.END_TO_END:
        assert outcome["metrics"][name]["value"] > 0, name


def _patch_points() -> dict:
    return {
        (owner, name): vars(owner)[name]
        for targets in spans.TARGETS.values()
        for owner, names in targets
        for name in names
    }


@pytest.mark.parametrize("workload", ["ooo_sliding_eager", "keyed_supervised_disk"])
def test_traced_run_restores_the_layers(workload: str) -> None:
    before = _patch_points()
    with tempfile.TemporaryDirectory() as workdir:
        bench = measure.Bench(WORKLOADS[workload], seed=1, scale=0.25, workdir=workdir)
        traced = bench.traced_rounds(0, out=None)
    assert traced["values"]["trace.spans"] > 0
    assert bench.check.failed == 0
    assert _patch_points() == before, "the traced run left a layer patched"
