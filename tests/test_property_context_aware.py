"""Property tests for the context-aware window types vs the oracle.

Covers the harder paths: punctuation-delimited (FCF) windows with late
punctuations, multi-measure (FCA) windows, and count-based sliding
windows -- all under random streams and random disorder.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import final_values
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Sum
from repro.core.types import Punctuation
from repro.reference import reference_results
from repro.windows import CountSlidingWindow, LastNEveryWindow, PunctuationWindow

HORIZON = 100_000


@st.composite
def inorder_streams(draw, max_size=50, max_gap=10):
    n = draw(st.integers(1, max_size))
    gaps = draw(st.lists(st.integers(0, max_gap), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(-20, 20).map(float), min_size=n, max_size=n))
    ts = 0
    records = []
    for gap, value in zip(gaps, values):
        ts += gap
        records.append(Record(ts, value))
    return records


@given(
    records=inorder_streams(),
    punct_gaps=st.lists(st.integers(1, 40), min_size=1, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_punctuation_windows_inorder(records, punct_gaps):
    window = PunctuationWindow()
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(window, Sum())
    # Interleave punctuations at cumulative positions.
    elements = []
    punct_ts = []
    cumulative = 0
    for gap in punct_gaps:
        cumulative += gap
        punct_ts.append(cumulative)
    # Punctuations mark the boundary *before* equal-timestamp records,
    # so they sort ahead of records at the same timestamp (flag -1).
    merged = sorted(
        [(r.ts, 0, r) for r in records] + [(t, -1, Punctuation(t)) for t in punct_ts],
        key=lambda item: (item[0], item[1]),
    )
    elements = [item[2] for item in merged]
    final = final_values(operator, elements + [Watermark(HORIZON)])

    reference_window = PunctuationWindow()
    for ts in punct_ts:
        reference_window.on_punctuation(Punctuation(ts))
    expected = reference_results(
        [(reference_window, Sum())], elements, horizon=HORIZON
    )
    assert final == expected


@given(
    records=inorder_streams(max_size=40),
    count=st.integers(1, 8),
    every=st.integers(2, 30),
)
@settings(max_examples=50, deadline=None)
def test_last_n_every_inorder(records, count, every):
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(LastNEveryWindow(count=count, every=every), Sum())
    final = final_values(operator, records + [Watermark(HORIZON)])
    expected = reference_results(
        [(LastNEveryWindow(count=count, every=every), Sum())],
        records,
        horizon=HORIZON,
    )
    assert final == expected


@given(
    records=inorder_streams(max_size=40),
    length=st.integers(2, 10),
    slide=st.integers(1, 6),
    seed=st.integers(0, 100),
    fraction=st.floats(0.0, 0.6),
)
@settings(max_examples=50, deadline=None)
def test_count_sliding_with_disorder(records, length, slide, seed, fraction):
    from conftest import shuffled_with_disorder

    disordered = shuffled_with_disorder(records, fraction, 15, seed=seed)
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=HORIZON)
    operator.add_query(CountSlidingWindow(length, slide), Sum())
    final = final_values(operator, disordered + [Watermark(HORIZON)])
    # Equal-timestamp ties order by *arrival*, so the oracle must see the
    # operator's arrival order, not the pre-disorder order.
    expected = reference_results(
        [(CountSlidingWindow(length, slide), Sum())], disordered, horizon=HORIZON
    )
    assert final == expected


@given(
    records=inorder_streams(max_size=30),
    count=st.integers(1, 5),
    every=st.integers(3, 20),
    seed=st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_last_n_every_with_disorder(records, count, every, seed):
    from conftest import shuffled_with_disorder

    disordered = shuffled_with_disorder(records, 0.3, 10, seed=seed)
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=HORIZON)
    operator.add_query(LastNEveryWindow(count=count, every=every), Sum())
    final = final_values(operator, disordered + [Watermark(HORIZON)])
    expected = reference_results(
        [(LastNEveryWindow(count=count, every=every), Sum())],
        disordered,  # ties order by arrival at the operator
        horizon=HORIZON,
    )
    assert final == expected
