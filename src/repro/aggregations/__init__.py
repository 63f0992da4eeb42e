"""Incremental aggregate functions (lift / combine / lower / invert).

See :mod:`repro.aggregations.base` for the framework and Section 5.4.1
of the paper for the design.  :func:`default_registry` maps the names
used by the benchmark harness (Figure 13) to instances.
"""

from .base import AggregateFunction, AggregationClass
from .basic import Average, Count, Max, Min, Sum, SumWithoutInvert
from .extended import (
    M4,
    ArgMax,
    ArgMin,
    GeometricMean,
    M4Partial,
    MaxCount,
    MinCount,
    PopulationStdDev,
    SampleStdDev,
)
from .holistic import Median, Percentile, PlainMedian, RleRuns, SortedValues
from .ordered import CollectList, ConcatString, First, Last
from .sketches import CountDistinct, Product, TopK

__all__ = [
    "AggregateFunction",
    "AggregationClass",
    "Sum",
    "SumWithoutInvert",
    "Count",
    "Average",
    "Min",
    "Max",
    "MinCount",
    "MaxCount",
    "ArgMin",
    "ArgMax",
    "GeometricMean",
    "PopulationStdDev",
    "SampleStdDev",
    "M4",
    "M4Partial",
    "Median",
    "Percentile",
    "PlainMedian",
    "RleRuns",
    "SortedValues",
    "First",
    "Last",
    "CollectList",
    "ConcatString",
    "TopK",
    "CountDistinct",
    "Product",
    "default_registry",
]


def default_registry() -> dict:
    """Return the named aggregation instances used by the benchmarks."""
    return {
        "sum": Sum(),
        "sum w/o invert": SumWithoutInvert(),
        "count": Count(),
        "avg": Average(),
        "min": Min(),
        "max": Max(),
        "mincount": MinCount(),
        "maxcount": MaxCount(),
        "argmin": ArgMin(),
        "argmax": ArgMax(),
        "geomean": GeometricMean(),
        "stddev": PopulationStdDev(),
        "m4": M4(),
        "median": Median(),
        "90-percentile": Percentile(0.9),
    }
