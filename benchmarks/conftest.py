"""Shared benchmark plumbing.

Every benchmark runs one entry of ``repro.experiments.FIGURES`` -- the
registry owns the sizes -- prints the table, saves it under
``benchmarks/results/<name>.txt`` and asserts the paper's qualitative
*shape*.  Rankings (who wins) are asserted at every scale; factors
(by how much, how flat) only at ``REPRO_BENCH_SCALE`` >= 1, where the
streams are long enough for every window to close, and only such runs
write the results files.  Absolute numbers are Python-sized, not
JVM-sized; see EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

from repro.experiments import FIGURES, ResultTable, bench_scale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FULL_SCALE = bench_scale() >= 1


def figure(name: str) -> ResultTable:
    """Generate a registered table, echo it and (at full scale) save it."""
    _family, generator = FIGURES[name]
    table = generator()
    text = table.render()
    print("\n" + text)
    if FULL_SCALE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return table
