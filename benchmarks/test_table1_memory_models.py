"""Table 1: memory-usage models of the eight techniques.

Regenerates the analytic models and validates them against measured
deep sizes of real operator state: the *growth direction* of every row
(which symbol each technique's memory follows) must match Table 1.
"""

from conftest import figure

from repro.experiments import FIGURES, scaled
from repro.experiments.figures import fill_operator
from repro.runtime.memory import deep_sizeof


def _measured(measure, name, slices, tuples):
    operator = fill_operator(name, measure, slices, tuples)
    return sum(deep_sizeof(obj) for obj in operator.state_objects())


def test_table1_memory_models():
    table = figure("table1")
    models = {row["technique"]: row["model_bytes"] for row in table.rows}

    # Analytic ordering for a typical time-based workload.
    assert models["lazy slicing"] < models["eager slicing"]
    assert models["eager slicing"] < models["aggregate buckets"]
    assert models["aggregate buckets"] < models["tuple buffer"]
    assert models["tuple buffer"] < models["aggregate tree"]
    assert models["lazy slicing on tuples"] > models["tuple buffer"]

    # Measured growth directions match the models (time-based windows):
    # row 1: tuple buffer ~ |tuples|.
    # The measured sizes are fractions of the table's own.
    sizes = FIGURES["table1"][1].keywords
    many = scaled(sizes["num_tuples"]) // 2
    few = many // 4
    slices = sizes["num_slices"] // 2
    assert _measured("time", "Tuple Buffer", slices, many) > 2 * _measured(
        "time", "Tuple Buffer", slices, few
    )
    # row 5: lazy slicing ~ |slices| and flat in |tuples|.
    assert _measured("time", "Lazy Slicing", 8 * slices, many) > 2 * _measured(
        "time", "Lazy Slicing", slices, many
    )
    flat_small = _measured("time", "Lazy Slicing", slices, few)
    flat_large = _measured("time", "Lazy Slicing", slices, many)
    assert flat_large < 1.5 * flat_small
    # rows 7/8: slicing on tuples (count measure) grows with |tuples|.
    assert _measured("count", "Lazy Slicing", slices, many) > 2 * _measured(
        "count", "Lazy Slicing", slices, few
    )
