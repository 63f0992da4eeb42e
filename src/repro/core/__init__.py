"""Core of the reproduction: general stream slicing (Section 5).

Public entry point: :class:`GeneralSlicingOperator`.  The submodules
mirror the paper's architecture (Figure 7): stream slicer, slice
manager, window manager, and the shared aggregate store, plus the
workload characterization of Section 4.
"""

from .aggregate_store import (
    AggregateStore,
    EagerAggregateStore,
    LazyAggregateStore,
    SharedQueryPlan,
)
from .characteristics import (
    Query,
    RemovalStrategy,
    WorkloadCharacteristics,
    removal_strategy,
    requires_splits,
    requires_tuple_storage,
    select_kernel,
)
from .flatfat import FlatFAT
from .kernels import KernelKind, SubtractOnEvictKernel, TwoStacksKernel, make_kernel
from .measures import MeasureKind
from .operator_ import GeneralSlicingOperator
from .operator_base import StreamOrderViolation, WindowOperator
from .slice_ import Slice
from .slice_manager import SliceManager
from .stream_slicer import StreamSlicer
from .tracing import SpanStats, Tracer
from .types import Punctuation, Record, StreamElement, Watermark, WindowResult, is_in_order
from .window_manager import ManagedQuery, WindowManager

__all__ = [
    "GeneralSlicingOperator",
    "WindowOperator",
    "StreamOrderViolation",
    "Query",
    "WorkloadCharacteristics",
    "RemovalStrategy",
    "requires_tuple_storage",
    "requires_splits",
    "removal_strategy",
    "Record",
    "Watermark",
    "Punctuation",
    "StreamElement",
    "WindowResult",
    "is_in_order",
    "MeasureKind",
    "Slice",
    "SliceManager",
    "StreamSlicer",
    "Tracer",
    "SpanStats",
    "WindowManager",
    "ManagedQuery",
    "AggregateStore",
    "LazyAggregateStore",
    "EagerAggregateStore",
    "SharedQueryPlan",
    "FlatFAT",
    "KernelKind",
    "TwoStacksKernel",
    "SubtractOnEvictKernel",
    "make_kernel",
    "select_kernel",
]
