"""The paper's evaluation (Section 6) and this repository's ablations.

:data:`FIGURES` is the one registry: ``name -> (family, generator)``,
where ``generator()`` returns the :class:`ResultTable`.  It is the only
place a figure's sizes are written down -- bound here as keyword
arguments -- and what the CLI (``python -m repro.experiments [name ...]``),
``benchmarks/test_*.py`` (which add the shape assertions and save
``benchmarks/results/<name>.txt``) and the tier-1 smoke test all read.
``REPRO_BENCH_SCALE`` scales every size.  The experiment index lives in
DESIGN.md; one verdict per paper claim in EXPERIMENTS.md.

Sizes follow one rule (:class:`Workload`): a stream spans at least three
times its longest window and three session gaps.  At the football
dataset's 2 kHz that is 120 000 records (66 s) behind windows of up to
20 s.  Tuple Buffer, Tuple Buckets and Aggregate Tree refold or rebuild
their whole retained buffer under disorder, so the figures that run them
out of order (9, 12, 14) replay the same span at 200 Hz -- a lower,
stated rate, never a shorter span.
"""

from functools import partial
from typing import Callable, Dict, Tuple

from ..data.football import football_keyed_stream, football_stream
from ..data.machine import machine_stream
from ..data.workloads import SECOND_MS
from . import ablations, figures
from .estimate import measure
from .harness import (
    INORDER_ONLY_TECHNIQUES,
    ResultTable,
    TECHNIQUES,
    Workload,
    bench_scale,
    make_operator,
    scaled,
)

__all__ = [
    "FIGURES",
    "ResultTable",
    "TECHNIQUES",
    "INORDER_ONLY_TECHNIQUES",
    "make_operator",
    "bench_scale",
    "scaled",
    "measure",
]


def _football(*windows: int, session: bool = False, slow: bool = False) -> Workload:
    """66-73 s of the football stream: at its own 2 kHz, or ``slow``."""
    records, rate_hz = (13_200, 200) if slow else (120_000, 2_000)
    gap = SECOND_MS if session else None
    return Workload("football", football_stream, records, rate_hz, windows, gap)


def _machine(*windows: int, session: bool = False) -> Workload:
    """73 s of the machine stream at its own 100 Hz."""
    gap = SECOND_MS if session else None
    return Workload("machine", machine_stream, 6_600, 100, windows, gap)


_KEYED_FOOTBALL = Workload(
    "football, 64 keys", partial(football_keyed_stream, num_keys=64), 120_000, 2_000, (80,)
)

_PAPER: Dict[str, Callable[[], ResultTable]] = {
    "table1": partial(
        figures.table1_memory_models, num_tuples=10_000, num_slices=100, num_windows=100
    ),
    "fig8": partial(figures.fig8_inorder_throughput, workload=_football(1, 8, 64)),
    "fig9_football": partial(
        figures.fig9_ooo_throughput, workload=_football(1, 8, 64, session=True, slow=True)
    ),
    "fig9_machine": partial(
        figures.fig9_ooo_throughput, workload=_machine(1, 8, 64, session=True)
    ),
    "fig10": partial(
        figures.fig10_memory,
        slices_list=(50, 200, 800),
        tuples_list=(1_000, 4_000, 16_000),
        fixed_tuples=8_000,
        fixed_slices=200,
    ),
    "fig11": partial(figures.fig11_latency, entries_list=(100, 1_000, 10_000), calls=200),
    "fig12": partial(
        figures.fig12_stream_order,
        workload=_football(20, session=True, slow=True),
        fractions=(0.0, 0.2, 0.6),
        delay_ranges=((0, 200), (0, 2_000), (2_000, 6_000)),
    ),
    "fig13": partial(figures.fig13_aggregations, workload=_football(20)),
    "fig14": partial(
        figures.fig14_holistic, workloads=(_football(20, slow=True), _machine(20))
    ),
    "fig15": partial(figures.fig15_split_cost, sizes=(100, 1_000, 10_000)),
    "fig16": partial(figures.fig16_measures, workload=_football(4, 16, 64)),
    "fig17": partial(figures.fig17_parallel, workload=_KEYED_FOOTBALL),
}

_ABLATIONS: Dict[str, Callable[[], ResultTable]] = {
    "ablation_rle": partial(ablations.rle_ablation, workloads=(_football(10), _machine(10))),
    "ablation_tuple_storage": partial(ablations.tuple_storage_ablation, workload=_football(10)),
    "ablation_lazy_vs_eager": partial(ablations.lazy_vs_eager_ablation, workload=_football(20)),
    "ablation_edge_cache": partial(ablations.edge_cache_ablation, workload=_football(4, 32)),
    "ablation_tracing_overhead": partial(
        ablations.tracing_overhead_ablation, workload=_football(10)
    ),
    "ablation_sharing": partial(ablations.sharing_ablation, workload=_football(8, 32)),
    "ablation_batched_ingestion": partial(
        ablations.batched_ingestion_ablation, workload=_football(8), batch_sizes=(64, 1_024)
    ),
}

#: name -> (family, generator); ``generator.keywords`` is the size spec.
FIGURES: Dict[str, Tuple[str, Callable[[], ResultTable]]] = {
    **{name: ("paper", generator) for name, generator in _PAPER.items()},
    **{name: ("ablation", generator) for name, generator in _ABLATIONS.items()},
    # Beyond the paper: the substrate's checkpoint-and-replay trade-off.
    "recovery": (
        "recovery",
        partial(
            figures.recovery_latency,
            workload=_football(4, session=True),
            intervals=(500, 2_000, 8_000, 32_000),
            crashes=3,
            batch_size=64,
        ),
    ),
}
