#!/usr/bin/env python3
"""A tour of the workload-adaptivity decision tree (Figure 4).

General stream slicing inspects the registered queries and the declared
stream order and decides, per workload, whether raw records must be
retained, whether splits can happen, and how records are removed from
slices.  This script walks through the paper's decision tree and prints
the derived strategy for each workload -- then proves the memory claim
by measuring operator state for three of them.

Run with::

    python examples/adaptivity_tour.py
"""

from repro import GeneralSlicingOperator, Record
from repro.aggregations import M4, Median, Sum
from repro.core.characteristics import RemovalStrategy
from repro.runtime import deep_sizeof, inject_disorder
from repro.windows import (
    CountTumblingWindow,
    LastNEveryWindow,
    PunctuationWindow,
    SessionWindow,
    TumblingWindow,
)

WORKLOADS = [
    ("tumbling + sum, in-order", True, TumblingWindow(10_000), Sum()),
    ("tumbling + sum, out-of-order", False, TumblingWindow(10_000), Sum()),
    ("tumbling + M4 (non-commutative), in-order", True, TumblingWindow(10_000), M4()),
    ("tumbling + M4 (non-commutative), out-of-order", False, TumblingWindow(10_000), M4()),
    ("session + sum, out-of-order (the exception!)", False, SessionWindow(1_000), Sum()),
    ("punctuation windows, out-of-order", False, PunctuationWindow(), Sum()),
    ("count windows + sum, in-order", True, CountTumblingWindow(100), Sum()),
    ("count windows + sum, out-of-order", False, CountTumblingWindow(100), Sum()),
    ("last-10-every-5s (FCA), in-order", True, LastNEveryWindow(10, 5_000), Sum()),
    ("tumbling + median (holistic), out-of-order", False, TumblingWindow(10_000), Median()),
]


def main() -> None:
    print(f"{'workload':<48} {'records?':<9} {'splits?':<8} removal")
    print("-" * 86)
    for name, in_order, window, aggregation in WORKLOADS:
        operator = GeneralSlicingOperator(stream_in_order=in_order)
        query = operator.add_query(window, aggregation)
        chars = next(iter(operator.characteristics.values()))
        removal = chars.removal_strategies[query.query_id]
        removal_text = "" if removal is RemovalStrategy.NOT_NEEDED else removal.value
        print(
            f"{name:<48} {str(chars.store_tuples):<9} "
            f"{str(chars.needs_splits):<8} {removal_text}"
        )

    print("\nand the memory consequence (10,000 records, 20% out-of-order):")
    records = inject_disorder(
        [Record(ts, float(ts % 97)) for ts in range(0, 20_000, 2)],
        fraction=0.2,
        max_delay=500,
    )
    # A median's partial is the multiset of its slice's values: large, but
    # it is the only copy -- the class of the function is no input of the tree.
    for label, aggregation in (
        ("sum (drops records)", Sum()),
        ("median (drops them too)", Median()),
        ("M4 (keeps them)", M4()),
    ):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10**9)
        operator.add_query(TumblingWindow(1_000), aggregation)
        for record in records:
            operator.process(record)
        footprint = sum(deep_sizeof(obj) for obj in operator.state_objects())
        print(f"  {label:<24} {footprint:>12,} bytes, {operator.total_slices()} slices")


if __name__ == "__main__":
    main()
