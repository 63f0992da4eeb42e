"""Table 1: memory-usage models of the eight techniques.

Regenerates the analytic models and validates them against measured
deep sizes of real operator state: the *growth direction* of every row
(which symbol each technique's memory follows) must match Table 1.
"""

from conftest import save_table

from repro.experiments.figures import _fill_count_operator, _fill_time_operator, table1_memory_models
from repro.runtime.memory import deep_sizeof


def run():
    return table1_memory_models(num_tuples=10_000, num_slices=100, num_windows=100)


def _measured(fill, name, slices, tuples):
    operator = fill(name, slices, tuples, 10_000_000)
    return sum(deep_sizeof(obj) for obj in operator.state_objects())


def test_table1_memory_models():
    table = run()
    save_table(table)
    models = {row["technique"]: row["model_bytes"] for row in table.rows}

    # Analytic ordering for a typical time-based workload.
    assert models["lazy slicing"] < models["eager slicing"]
    assert models["eager slicing"] < models["aggregate buckets"]
    assert models["aggregate buckets"] < models["tuple buffer"]
    assert models["tuple buffer"] < models["aggregate tree"]
    assert models["lazy slicing on tuples"] > models["tuple buffer"]

    # Measured growth directions match the models (time-based windows):
    # row 1: tuple buffer ~ |tuples|.
    assert _measured(_fill_time_operator, "Tuple Buffer", 50, 4_000) > 2 * _measured(
        _fill_time_operator, "Tuple Buffer", 50, 1_000
    )
    # row 5: lazy slicing ~ |slices| and flat in |tuples|.
    assert _measured(_fill_time_operator, "Lazy Slicing", 400, 2_000) > 2 * _measured(
        _fill_time_operator, "Lazy Slicing", 50, 2_000
    )
    flat_small = _measured(_fill_time_operator, "Lazy Slicing", 50, 1_000)
    flat_large = _measured(_fill_time_operator, "Lazy Slicing", 50, 4_000)
    assert flat_large < 1.5 * flat_small
    # rows 7/8: slicing on tuples (count measure) grows with |tuples|.
    assert _measured(_fill_count_operator, "Lazy Slicing", 50, 4_000) > 2 * _measured(
        _fill_count_operator, "Lazy Slicing", 50, 1_000
    )
