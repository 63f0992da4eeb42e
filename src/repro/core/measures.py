"""Windowing measures (Section 4.3 of the paper).

Windows can be defined over different monotonically advancing measures:
event-time, processing-time, arbitrary advancing attributes (odometer
kilometres, invoice numbers, ...), or a tuple count.  The slicing core is
measure-agnostic: it works on abstract integer "timestamps".  A record's
timestamp is its event-time unless the operator is given another
measure (``GeneralSlicingOperator(timestamp_of=...)``).

Count-based measures are special (Section 4.3): when a record arrives
out-of-order, it changes the count of every record with a larger
event-time.  The slicing core therefore keeps count-measure queries on a
chain of their own that tracks record positions itself (see
:mod:`repro.core.slice_manager`).
"""

from __future__ import annotations

import enum

__all__ = ["MeasureKind"]


class MeasureKind(enum.Enum):
    """Classification of windowing measures used by the decision logic.

    ``TIME`` covers event-time, processing-time, and arbitrary advancing
    measures: the paper treats them identically because the timestamp of
    a record never changes retroactively.  ``COUNT`` marks tuple-count
    measures whose positions shift when out-of-order records arrive.
    """

    TIME = "time"
    COUNT = "count"
