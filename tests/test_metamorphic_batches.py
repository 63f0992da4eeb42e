"""Metamorphic batch-split tests: batching must be invisible.

For every technique the four ways of feeding the same element sequence
must produce bit-identical results, in content *and* order:

* one call per element (:meth:`process`),
* one batch per element (:meth:`process_batch` of one element),
* one batch holding the whole sequence (:meth:`process_batch`),
* the sequence cut at random points into consecutive batches.

This is the metamorphic relation behind the batched ingestion fast
path: ``process_batch(a + b)`` == ``process_batch(a)`` followed by
``process_batch(b)``.  Random split points land inside in-order runs,
on slice edges, next to watermarks, and around out-of-order records,
so every bail-out branch of the batch paths is crossed somewhere.
The queries cover every window type (tumbling, sliding, session and
count-based) and every function class (invertible, non-invertible and
holistic), one by one and multiplexed over shared slices.

The same relation is checked for each forced aggregation kernel of the
eager slicing operator (the batch run-fold must commute with two-stacks
flips and subtract-on-evict prefix maintenance, not just FlatFAT).

Seeds are pinned; override with ``REPRO_FUZZ_SEED``.
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from conftest import shuffled_with_disorder
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Average, Max, Median, Sum
from repro.experiments.harness import (
    INORDER_ONLY_TECHNIQUES,
    TECHNIQUES,
    make_operator,
)
from repro.windows import CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow

pytestmark = pytest.mark.fuzz

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20190326"))

#: Iteration multiplier for long fuzz campaigns (``fuzz-long`` CI job).
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))

SEEDS = range(3 * FUZZ_SCALE)
N_RECORDS = 300
LATENESS = 10_000


def _child_seed(tag: str, index: int) -> int:
    return random.Random(f"{BASE_SEED}:batch:{tag}:{index}").randrange(2**63)


def _inorder_elements(seed: int, fractional: bool = False) -> List[object]:
    """``fractional`` draws non-integer floats: sums then round, so a
    bulk fold that adds in another order (or compensates, as the builtin
    ``sum`` does since Python 3.12) shows in the last bits."""
    rng = random.Random(seed)
    ts = 0
    out: List[object] = []
    for step in range(N_RECORDS):
        ts += rng.choice([0, 1, 1, 2, 3]) + (15 if rng.random() < 0.04 else 0)
        value = rng.uniform(0.0, 9.0) if fractional else float(rng.randint(0, 9))
        out.append(Record(ts, value))
    out.append(Watermark(ts + 1_000))
    return out


def _ooo_elements(seed: int, fractional: bool = False) -> List[object]:
    base = [r for r in _inorder_elements(seed, fractional) if isinstance(r, Record)]
    records = shuffled_with_disorder(base, 0.25, 18, seed=seed + 1)
    out: List[object] = []
    high = 0
    for index, record in enumerate(records):
        out.append(record)
        high = max(high, record.ts)
        if index % 40 == 39:
            out.append(Watermark(high - 30))
    out.append(Watermark(high + 1_000))
    return out


def _random_chunks(elements: List[object], rng: random.Random) -> List[List[object]]:
    """Cut the sequence at 2-6 random interior points (chunks stay in order)."""
    n = len(elements)
    cuts = sorted(rng.sample(range(1, n), rng.randint(2, min(6, n - 1))))
    bounds = [0] + cuts + [n]
    return [elements[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_every_way(factory, elements: List[object], seed: int) -> None:
    per_element = factory()
    expected: List[object] = []
    for element in elements:
        expected.extend(per_element.process(element))

    singles = factory()
    got: List[object] = []
    for element in elements:
        got.extend(singles.process_batch([element]))
    assert got == expected, "one-element batches diverged from per-element"

    whole = factory().process_batch(elements)
    assert whole == expected, "one whole batch diverged from per-element"

    rng = random.Random(seed)
    split = factory()
    got: List[object] = []
    for chunk in _random_chunks(elements, rng):
        got.extend(split.process_batch(chunk))
    assert got == expected, "randomly split batches diverged from per-element"


#: Techniques that keep partial aggregates only: no holistic function.
PARTIALS_ONLY_TECHNIQUES = frozenset({"Buckets", "Pairs", "Cutty"})


def _add_queries(operator, *, sessions: bool, holistic: bool = False) -> None:
    operator.add_query(TumblingWindow(50), Sum())
    operator.add_query(SlidingWindow(80, 20), Average())
    if holistic:
        operator.add_query(TumblingWindow(50), Median())
    if sessions:
        operator.add_query(SessionWindow(7), Sum())


INORDER_MATRIX = [
    (tech, seed_index) for tech in TECHNIQUES for seed_index in SEEDS
]
OOO_MATRIX = [
    (tech, seed_index)
    for tech in TECHNIQUES
    if tech not in INORDER_ONLY_TECHNIQUES
    for seed_index in SEEDS
]


@pytest.mark.parametrize(
    "tech, seed_index", INORDER_MATRIX, ids=[f"{t}-s{s}" for t, s in INORDER_MATRIX]
)
def test_batch_split_invariance_inorder(tech, seed_index):
    seed = _child_seed(f"in:{tech}", seed_index)

    def factory():
        operator = make_operator(tech, stream_in_order=True, allowed_lateness=0)
        _add_queries(operator, sessions=tech not in INORDER_ONLY_TECHNIQUES)
        return operator

    _run_every_way(factory, _inorder_elements(seed), seed)


@pytest.mark.ooo
@pytest.mark.parametrize(
    "tech, seed_index", OOO_MATRIX, ids=[f"{t}-s{s}" for t, s in OOO_MATRIX]
)
def test_batch_split_invariance_out_of_order(tech, seed_index):
    seed = _child_seed(f"ooo:{tech}", seed_index)

    def factory():
        operator = make_operator(tech, stream_in_order=False, allowed_lateness=LATENESS)
        _add_queries(operator, sessions=True)
        return operator

    _run_every_way(factory, _ooo_elements(seed), seed)


FRACTIONAL_MATRIX = [(tech, True) for tech in TECHNIQUES] + [
    (tech, False) for tech in TECHNIQUES if tech not in INORDER_ONLY_TECHNIQUES
]


@pytest.mark.parametrize(
    "tech, ordered",
    FRACTIONAL_MATRIX,
    ids=[f"{t}-{'inorder' if o else 'ooo'}" for t, o in FRACTIONAL_MATRIX],
)
def test_batch_split_invariance_fractional_values(tech, ordered):
    """The relation must hold bit for bit on values whose sums round.
    No session query: its moving edges keep runs from being folded in
    one call, which is the path this test is about."""
    seed = _child_seed(f"fractional:{tech}:{ordered}", 0)

    def factory():
        operator = make_operator(
            tech, stream_in_order=ordered, allowed_lateness=0 if ordered else LATENESS
        )
        _add_queries(operator, sessions=False, holistic=tech not in PARTIALS_ONLY_TECHNIQUES)
        return operator

    elements = _inorder_elements(seed, True) if ordered else _ooo_elements(seed, True)
    _run_every_way(factory, elements, seed)


@pytest.mark.parametrize(
    "tech, ordered",
    FRACTIONAL_MATRIX,
    ids=[f"{t}-{'inorder' if o else 'ooo'}" for t, o in FRACTIONAL_MATRIX],
)
def test_batch_split_invariance_every_window_and_function_class(tech, ordered):
    """Each window type, count-based included, with an invertible, a
    non-invertible and (where the technique keeps records) a holistic
    function, all multiplexed over the slices they share."""
    seed = _child_seed(f"every-window:{tech}:{ordered}", 0)
    windows = [TumblingWindow(50), SlidingWindow(80, 20), CountTumblingWindow(6)]
    if tech not in INORDER_ONLY_TECHNIQUES:
        windows.append(SessionWindow(7))
    functions = [Sum, Max]
    if tech not in PARTIALS_ONLY_TECHNIQUES:
        functions.append(Median)

    def factory():
        operator = make_operator(
            tech, stream_in_order=ordered, allowed_lateness=0 if ordered else LATENESS
        )
        for window in windows:
            for function in functions:
                operator.add_query(window, function())
        return operator

    _run_every_way(factory, _inorder_elements(seed) if ordered else _ooo_elements(seed), seed)


KERNELS = ["flatfat", "finger_tree", "two_stacks", "subtract_on_evict"]

#: Kernels that absorb mid-list inserts natively -- the two the selector
#: can actually put on a disordered stream.
OOO_KERNELS = ["flatfat", "finger_tree"]


@pytest.mark.parametrize(
    "kernel, seed_index",
    [(k, s) for k in KERNELS for s in SEEDS],
    ids=[f"{k}-s{s}" for k in KERNELS for s in SEEDS],
)
def test_batch_split_invariance_per_kernel(kernel, seed_index):
    """The batch run-fold path must commute with every kernel's internal
    bookkeeping, not just FlatFAT's."""
    seed = _child_seed(f"kernel:{kernel}", seed_index)

    def factory():
        operator = GeneralSlicingOperator(
            stream_in_order=True, eager=True, kernel=kernel
        )
        # Sum + Average keep the subtract-on-evict kernel legal.
        operator.add_query(TumblingWindow(50), Sum())
        operator.add_query(SlidingWindow(80, 20), Average())
        return operator

    _run_every_way(factory, _inorder_elements(seed), seed)


@pytest.mark.ooo
@pytest.mark.parametrize(
    "kernel, seed_index",
    [(k, s) for k in OOO_KERNELS for s in SEEDS],
    ids=[f"{k}-s{s}" for k in OOO_KERNELS for s in SEEDS],
)
def test_batch_split_invariance_per_kernel_out_of_order(kernel, seed_index):
    """Disordered streams cross the batch bail-out branches *and* the
    kernels' positional insert/update paths; chunking must stay
    invisible for both insert-capable kernels."""
    seed = _child_seed(f"kernel-ooo:{kernel}", seed_index)

    def factory():
        operator = GeneralSlicingOperator(
            stream_in_order=False,
            eager=True,
            kernel=kernel,
            allowed_lateness=LATENESS,
        )
        _add_queries(operator, sessions=True)
        return operator

    _run_every_way(factory, _ooo_elements(seed), seed)


@pytest.mark.parametrize("seed_index", SEEDS)
def test_batch_split_invariance_shared_vs_unshared(seed_index):
    """Window sharing is a pure cache: turning it off must not change
    results, batched or not."""
    seed = _child_seed("share", seed_index)
    elements = _inorder_elements(seed)

    def build(share):
        operator = GeneralSlicingOperator(
            stream_in_order=True, share_windows=share
        )
        operator.add_query(SlidingWindow(100, 20), Sum())
        operator.add_query(SlidingWindow(60, 20), Sum())
        return operator

    for share in (True, False):
        _run_every_way(lambda share=share: build(share), elements, seed)

    # Direct cross-check: shared and unshared runs agree element-wise.
    a, b = build(True), build(False)
    out_a: List[object] = []
    out_b: List[object] = []
    for element in elements:
        out_a.extend(a.process(element))
        out_b.extend(b.process(element))
    assert out_a == out_b
