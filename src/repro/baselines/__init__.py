"""The Section 3 baseline techniques, all behind the common
:class:`~repro.core.operator_base.WindowOperator` interface.

Each family is one class hierarchy, and a Table 1 row is one subclass:

========================  ==========================================  ===========  ================
Technique                 Class                                       Table 1 row  Module
========================  ==========================================  ===========  ================
Tuple Buffer              :class:`TupleBufferOperator`                1            ``tuple_buffer``
Aggregate Tree (FlatFAT)  :class:`AggregateTreeOperator`              2            ``tuple_buffer``
Aggregate Buckets (WID)   :class:`AggregateBucketsOperator`           3            ``buckets``
Tuple Buckets (WID)       :class:`TupleBucketsOperator`               4            ``buckets``
Pairs slicing             :class:`PairsOperator`                      5 (lazy)     ``slicing``
Cutty slicing             :class:`CuttyOperator`                      6 (eager)    ``slicing``
General slicing           :class:`repro.core.GeneralSlicingOperator`  5-8          ``repro.core``
========================  ==========================================  ===========  ================

The Aggregate Tree is a Tuple Buffer with a FlatFAT kept over its
records; Pairs and Cutty are one in-order slicer that folds a list of
slice partials (lazy) or queries a FlatFAT over them (eager).
"""

from .buckets import AggregateBucketsOperator, BucketsOperator, TupleBucketsOperator
from .slicing import CuttyOperator, PairsOperator
from .tuple_buffer import AggregateTreeOperator, TupleBufferOperator

__all__ = [
    "TupleBufferOperator",
    "AggregateTreeOperator",
    "BucketsOperator",
    "AggregateBucketsOperator",
    "TupleBucketsOperator",
    "PairsOperator",
    "CuttyOperator",
]
