"""Figure 9: throughput under constraints (20% out-of-order + sessions).

Paper shape: general slicing keeps an order-of-magnitude lead over
non-slicing techniques and scales to many concurrent windows with
near-constant throughput; the aggregate tree collapses (expensive leaf
inserts on disorder); results look alike on both datasets because
performance follows workload, not data, characteristics.
"""

import pytest
from conftest import FULL_SCALE, figure


@pytest.mark.parametrize("dataset", ["football", "machine"])
def test_fig9_ooo_throughput(dataset):
    table = figure(f"fig9_{dataset}")
    most = max(table.column("windows"))
    at_max = {
        row["technique"]: row["throughput"] for row in table.rows if row["windows"] == most
    }
    # Slicing leads every record- or window-keeping technique.
    slicing = min(at_max["Lazy Slicing"], at_max["Eager Slicing"])
    for slow in ("Buckets", "Tuple Buffer", "Aggregate Tree"):
        assert slicing > at_max[slow], (slow, at_max)
    if not FULL_SCALE:
        return
    # The aggregate tree is the worst technique under disorder (its
    # buffer has to fill for that: buckets tie it on a short stream).
    assert at_max["Aggregate Tree"] == min(at_max.values()), at_max
    for slow in ("Buckets", "Tuple Buffer", "Aggregate Tree"):
        assert slicing > 3 * at_max[slow], (slow, at_max)
    assert slicing > 10 * at_max["Aggregate Tree"], at_max

    # The paper's "near-constant in the window count" does NOT hold here:
    # lazy slicing loses x4.0-4.4 from 1 to 64 windows, because the one
    # session window puts every record back on the per-record slicer path
    # (ROADMAP item 8).  The bound holds only because it is loose; it
    # keeps the decline from growing until that item removes it.
    lazy = table.series("technique", "throughput")["Lazy Slicing"]
    assert max(lazy) / min(lazy) < 8, lazy
