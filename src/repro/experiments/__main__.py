"""Command-line experiment runner: regenerate paper tables and figures.

Usage::

    python -m repro.experiments                # every registered table
    python -m repro.experiments fig8 fig11     # a selection
    python -m repro.experiments fig9 ablation  # a prefix: fig9_*, ablation_*
    REPRO_BENCH_SCALE=0.1 python -m repro.experiments fig9

Each experiment prints its result table; the benchmark suite
(``pytest benchmarks --ignore=benchmarks/e2e``) runs the same generators,
saves the tables and asserts the paper's qualitative shapes.
"""

from __future__ import annotations

import sys

from . import FIGURES


def main(argv: list[str]) -> int:
    """Run the selected experiments (all when ``argv`` is empty)."""
    selected = {
        arg: [name for name in FIGURES if name == arg or name.startswith(arg + "_")]
        for arg in argv or FIGURES
    }
    unknown = [arg for arg, names in selected.items() if not names]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(FIGURES)}", file=sys.stderr)
        return 2
    for names in selected.values():
        for name in names:
            family, generator = FIGURES[name]
            print(f"[{name}: {family}]")
            print(generator().render())
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
