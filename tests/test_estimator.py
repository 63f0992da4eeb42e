"""The one estimator of the figure tree (``repro.experiments.estimate``)."""

import gc

import pytest

from repro.experiments import estimate
from repro.experiments.estimate import ROUNDS, measure, nearest_rank


class FakeClock:
    """``perf_counter_ns`` stand-in: each timed call lasts what the test
    scripted for it, so floors are exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(estimate, "perf_counter_ns", fake)
    return fake


def test_nearest_rank_known_samples():
    # 100 samples 1..100: nearest-rank p50 = 50th sample, p99 = 99th,
    # p100 = the maximum.  int(q*n) truncation would return 51/100/100.
    samples = list(range(1, 101))
    assert nearest_rank(samples, 0.50) == 50
    assert nearest_rank(samples, 0.99) == 99
    assert nearest_rank(samples, 1.0) == 100
    assert nearest_rank(samples, 0.0) == 1
    # 4 samples: p50 is the 2nd (ceil(0.5*4)=2), p99/p100 the 4th.
    assert nearest_rank([10, 20, 30, 40], 0.50) == 20
    assert nearest_rank([10, 20, 30, 40], 0.99) == 40
    assert nearest_rank([10, 20, 30, 40], 1.0) == 40
    # Single sample: every percentile collapses onto it.
    assert {nearest_rank([7], q) for q in (0.0, 0.5, 0.99, 1.0)} == {7}


def test_cases_are_built_every_round_in_rotated_order():
    built = []

    def case(name):
        def build():
            built.append(name)
            return lambda: name

        return build

    cells = measure({name: case(name) for name in "abc"})
    assert ROUNDS == 3
    assert built == ["a", "b", "c", "b", "c", "a", "c", "a", "b"]
    assert list(cells) == ["a", "b", "c"]  # reported in the order given
    assert cells["b"].value == "b"


def test_fastest_observation_per_call_position(clock):
    # Pass r of the cell takes durations[r][k] ns at call position k.
    durations = iter([[50, 10, 30], [20, 40, 30], [60, 60, 5]])

    def build():
        row = iter(next(durations))

        def run():
            clock.now += next(row)

        return run

    (cell,) = measure({"cell": build}, calls=3).values()
    assert cell.floors == [20, 10, 5]
    # `seconds` is the fastest whole pass (20 + 40 + 30), not the sum of floors.
    assert cell.seconds == pytest.approx(90e-9)


def test_build_runs_outside_the_timer(clock):
    def build():
        clock.now += 1_000_000  # set-up cost

        def run():
            clock.now += 7

        return run

    (cell,) = measure({"cell": build}).values()
    assert cell.floors == [7]


def test_a_slow_first_pass_is_not_repeated(clock):
    passes = {"slow": 0, "quick": 0}

    def case(name, nanoseconds):
        def build():
            def run():
                passes[name] += 1
                clock.now += nanoseconds

            return run

        return build

    slow_ns = int(estimate.SLOW_SECONDS * 1e9)
    cells = measure({"slow": case("slow", slow_ns), "quick": case("quick", slow_ns - 1)})
    assert passes == {"slow": 1, "quick": ROUNDS}
    assert cells["slow"].floors == [slow_ns]


def test_collector_parked_while_timing_and_restored_after():
    seen = []
    assert gc.isenabled()
    measure({"cell": lambda: lambda: seen.append(gc.isenabled())})
    assert seen == [False] * ROUNDS
    assert gc.isenabled()


@pytest.mark.parametrize("enabled_before", [True, False])
def test_collector_state_restored_after_a_raising_case(enabled_before):
    def run():
        raise RuntimeError("case failed")

    was_enabled = gc.isenabled()
    try:
        if not enabled_before:
            gc.disable()
        with pytest.raises(RuntimeError, match="case failed"):
            measure({"cell": lambda: run})
        assert gc.isenabled() is enabled_before
    finally:
        if was_enabled:
            gc.enable()
