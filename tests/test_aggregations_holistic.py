"""Tests for holistic aggregations and the RLE-encoded sorted runs."""

import random
from functools import reduce

import pytest

from repro.aggregations import AggregateFunction, Median, Percentile, PlainMedian, RleRuns, SortedValues
from repro.aggregations import holistic


class TestRleRuns:
    def test_of_single_value(self):
        runs = RleRuns.of(5.0)
        assert runs.runs == [(5.0, 1)]
        assert runs.total == 1

    def test_from_values_sorts_and_encodes(self):
        runs = RleRuns.from_values([3.0, 1.0, 3.0, 2.0, 3.0])
        assert runs.runs == [(1.0, 1), (2.0, 1), (3.0, 3)]
        assert runs.total == 5

    def test_merge_preserves_order_and_counts(self):
        left = RleRuns.from_values([1.0, 3.0, 3.0])
        right = RleRuns.from_values([2.0, 3.0])
        merged = left.merge(right)
        assert merged.runs == [(1.0, 1), (2.0, 1), (3.0, 3)]
        assert merged.total == 5

    def test_merge_with_empty(self):
        runs = RleRuns.from_values([1.0])
        assert runs.merge(RleRuns()).runs == runs.runs
        assert RleRuns().merge(runs).runs == runs.runs

    def test_merge_coalesces_boundary_runs(self):
        left = RleRuns.from_values([1.0, 2.0])
        right = RleRuns.from_values([2.0, 3.0])
        assert left.merge(right).runs == [(1.0, 1), (2.0, 2), (3.0, 1)]

    def test_select(self):
        runs = RleRuns.from_values([1.0, 1.0, 2.0, 5.0])
        assert [runs.select(i) for i in range(4)] == [1.0, 1.0, 2.0, 5.0]

    def test_select_out_of_range(self):
        with pytest.raises(IndexError):
            RleRuns.from_values([1.0]).select(1)

    def test_quantile_bounds(self):
        runs = RleRuns.from_values([float(i) for i in range(10)])
        assert runs.quantile(0.0) == 0.0
        assert runs.quantile(1.0) == 9.0
        assert runs.quantile(0.5) == 5.0

    def test_quantile_empty_raises(self):
        with pytest.raises(ValueError):
            RleRuns().quantile(0.5)

    def test_quantile_invalid_q(self):
        with pytest.raises(ValueError):
            RleRuns.of(1.0).quantile(1.5)

    def test_subtract(self):
        runs = RleRuns.from_values([1.0, 1.0, 2.0, 3.0])
        removed = runs.subtract(RleRuns.from_values([1.0, 3.0]))
        assert removed.runs == [(1.0, 1), (2.0, 1)]

    def test_subtract_missing_value_raises(self):
        with pytest.raises(ValueError):
            RleRuns.from_values([1.0]).subtract(RleRuns.from_values([2.0]))

    def test_subtract_overdraw_raises(self):
        with pytest.raises(ValueError):
            RleRuns.from_values([1.0]).subtract(RleRuns.from_values([1.0, 1.0]))

    def test_distinct_counts_runs(self):
        assert RleRuns.from_values([1.0, 1.0, 2.0]).distinct() == 2

    def test_rle_compression_for_low_cardinality(self):
        # The Figure 14 effect: few distinct values -> few runs.
        many = RleRuns.from_values([float(i % 3) for i in range(1000)])
        assert many.distinct() == 3
        assert len(many) == 1000


def _typed(runs):
    """Runs with the type and sign of each representative made visible
    (``1 == 1.0 == True`` and ``0.0 == -0.0`` compare equal)."""
    return [(type(value).__name__, repr(value), count) for value, count in runs.runs]


class TestMergeAll:
    """``merge_all`` is the left fold of ``merge``, in one pass."""

    def test_counts_add_up_across_parts(self):
        parts = [RleRuns.from_values(v) for v in ([3.0, 1.0], [1.0, 1.0, 2.0], [3.0])]
        merged = RleRuns.merge_all(parts)
        assert merged.runs == [(1.0, 3), (2.0, 1), (3.0, 2)]
        assert merged.total == 6

    def test_nothing_and_empty_parts(self):
        assert RleRuns.merge_all([]).runs == []
        assert RleRuns.merge_all([]).total == 0
        merged = RleRuns.merge_all([RleRuns(), RleRuns.of(2.0), RleRuns()])
        assert merged.runs == [(2.0, 1)] and merged.total == 1

    @pytest.mark.parametrize(
        "values",
        [[1, 1.0, True], [1.0, True, 1], [True, 1, 1.0], [0.0, -0.0], [-0.0, 0.0, 0]],
        ids=repr,
    )
    def test_first_seen_represents_equal_values(self, values):
        parts = [RleRuns.of(value) for value in values]
        for merged in (RleRuns.merge_all(parts), reduce(RleRuns.merge, parts)):
            assert _typed(merged) == [(type(values[0]).__name__, repr(values[0]), len(values))]
        # ... and inside one part built from raw values, too.
        assert _typed(RleRuns.from_values(values)) == _typed(RleRuns.merge_all(parts))

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_pairwise_fold_on_random_multisets(self, seed):
        rng = random.Random(f"merge_all:{seed}")
        pool = [0.1, 0.25, -1.5, 2.0, 1e-3, 1, 1.0, True, 0.0, -0.0, 7, -3]
        parts = [
            RleRuns.from_values([rng.choice(pool) for _ in range(rng.randint(0, 6))])
            for _ in range(rng.randint(1, 40))
        ]
        before = [list(part.runs) for part in parts]
        merged = RleRuns.merge_all(parts)
        expected = reduce(RleRuns.merge, parts)
        assert _typed(merged) == _typed(expected)
        assert merged.total == expected.total == sum(count for _, count in merged.runs)
        assert [part.runs for part in parts] == before, "parts must not be mutated"
        for part in parts:
            assert part.total == sum(count for _, count in part.runs)

    def test_carried_total_everywhere(self):
        runs = RleRuns.from_values([2.0, 1.0, 2.0])
        assert runs.total == 3
        assert runs.merge(RleRuns.of(5.0)).total == 4
        assert runs.subtract(RleRuns.of(2.0)).total == 2
        assert RleRuns([(1.0, 2), (4.0, 3)]).total == 5  # summed when not given


#: Always the walk over both run lists (an empty operand aside), the
#: module's own crossover, always one bisect per run of the right operand.
WALK, DEFAULT, BISECT = 10**9, holistic._BISECT_IN_RATIO, 0

#: Distinct values in several representations of the same number.
POOL = [value for n in range(-4, 12) for value in (n, float(n), n + 0.5)] + [True, False, -0.0]


def _random_runs(rng, distinct):
    """A multiset with ``distinct`` runs; equal values keep a random representative."""
    chosen = {}
    for value in rng.sample(POOL, len(POOL)):
        chosen.setdefault(value, value)
        if len(chosen) == distinct:
            break
    return RleRuns([(value, rng.randint(1, 4)) for value in sorted(chosen.values())])


def _under(monkeypatch, ratio, operation):
    """``operation()`` with the crossover set to ``ratio``: its typed
    runs and total, or the error it raised."""
    monkeypatch.setattr(holistic, "_BISECT_IN_RATIO", ratio)
    try:
        result = operation()
    except ValueError as error:
        return str(error)
    assert result.total == sum(count for _, count in result.runs)
    return _typed(result), result.total


class TestBisectedMergeAndSubtract:
    """A small operand is bisected into a large one instead of walking
    both run lists: same runs, same representatives, same errors."""

    @pytest.mark.parametrize("seed", range(25))
    def test_merge_equals_the_walk_for_every_size_ratio(self, seed, monkeypatch):
        rng = random.Random(f"bisect-merge:{seed}")
        distinct = rng.randint(0, 30)
        large = _random_runs(rng, distinct)
        for k in range(distinct + 1):
            small = _random_runs(rng, k)
            before = list(large.runs), list(small.runs)
            for operation in (lambda: large.merge(small), lambda: small.merge(large)):
                walked = _under(monkeypatch, WALK, operation)
                assert _under(monkeypatch, DEFAULT, operation) == walked
                assert _under(monkeypatch, BISECT, operation) == walked
            assert (large.runs, small.runs) == before, "operands must not be mutated"

    @pytest.mark.parametrize("seed", range(25))
    def test_subtract_equals_the_walk_for_every_size_ratio(self, seed, monkeypatch):
        rng = random.Random(f"bisect-subtract:{seed}")
        distinct = rng.randint(1, 30)
        large = _random_runs(rng, distinct)
        for k in range(distinct + 1):
            # A sub-multiset under other representatives of its values.
            removed = RleRuns(
                [
                    (rng.choice([v for v in POOL if v == value]), rng.randint(1, count))
                    for value, count in sorted(rng.sample(large.runs, k))
                ]
            )
            before = list(large.runs), list(removed.runs)
            operation = lambda: large.subtract(removed)  # noqa: E731
            walked = _under(monkeypatch, WALK, operation)
            assert not isinstance(walked, str) and walked[1] == large.total - removed.total
            assert _under(monkeypatch, DEFAULT, operation) == walked
            assert _under(monkeypatch, BISECT, operation) == walked
            assert (large.runs, removed.runs) == before, "operands must not be mutated"

    @pytest.mark.parametrize(
        "removed, message",
        [
            ([(2.0, 1), (5.0, 9)], "cannot remove 9x 5: only 2 present"),
            ([(2.5, 1)], "cannot remove value 2.5: not present"),
            ([(0.5, 1), (2.5, 1), (9.0, 1)], "cannot remove value 0.5: not present"),
            # An overdrawn run is reported before a missing value, wherever each sits.
            ([(0.5, 1), (5.0, 3)], "cannot remove 3x 5: only 2 present"),
            ([(3.0, 7), (8.5, 1)], "cannot remove 7x 3.0: only 1 present"),
            ([(3.0, 7), (5.0, 7)], "cannot remove 7x 3.0: only 1 present"),
        ],
    )
    def test_subtract_raises_the_same_errors(self, removed, message, monkeypatch):
        runs = RleRuns([(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 1), (5, 2), (6.0, 1), (7.0, 1), (8.0, 3)])
        operation = lambda: runs.subtract(RleRuns(removed))  # noqa: E731
        for ratio in (WALK, DEFAULT, BISECT):
            assert _under(monkeypatch, ratio, operation) == message

    @pytest.mark.parametrize("values", [[1, 1.0, True], [1.0, True, 1], [0.0, -0.0], [-0.0, 0]], ids=repr)
    def test_the_left_operand_represents_equal_values_whichever_side_is_small(self, values, monkeypatch):
        first, second = values[0], values[1]
        padding = [(float(v), 1) for v in range(10, 30)]
        for ratio in (WALK, DEFAULT, BISECT):
            monkeypatch.setattr(holistic, "_BISECT_IN_RATIO", ratio)
            small_right = RleRuns([(first, 2)] + padding).merge(RleRuns.of(second))
            small_left = RleRuns.of(first).merge(RleRuns([(second, 2)] + padding))
            for merged in (small_right, small_left):
                assert _typed(merged)[0] == (type(first).__name__, repr(first), 3)
            kept = RleRuns([(first, 2)] + padding).subtract(RleRuns.of(second))
            assert _typed(kept)[0] == (type(first).__name__, repr(first), 1)

    def test_one_value_into_many_runs_does_not_walk_them(self):
        """The per-record ⊕ of a high-cardinality slice: comparisons grow
        with the logarithm of the run count, not with the count."""

        class Counted(float):
            comparisons = 0

            def __lt__(self, other):
                Counted.comparisons += 1
                return float.__lt__(self, other)

            def __eq__(self, other):
                Counted.comparisons += 1
                return float.__eq__(self, other)

            __hash__ = float.__hash__

        large = RleRuns([(float(v), 1) for v in range(4_096)])
        for operation in (large.merge, large.subtract):
            Counted.comparisons = 0
            result = operation(RleRuns.of(Counted(1_000.0)))
            assert result.total == large.total + (1 if operation == large.merge else -1)
            assert Counted.comparisons <= 4 * 12  # log2(4096) = 12 probes, a few comparisons each


def _state(partial):
    """What a multiset holds, with the type and sign of every value."""
    assert partial.total == sum(count for _, count in partial.runs)
    return _typed(partial), partial.total


def _looped(partial, left, entered):
    """The reference slide: ⊖ each part of ``left``, then ⊕ each of
    ``entered``, one new value per step -- the base class's hook."""
    try:
        return _state(AggregateFunction.slide_in_place(Median(), partial, left, entered))
    except ValueError as error:
        return str(error)


def _in_place(partial, left, entered):
    """``Median``'s own hook, on a private copy of ``partial``.  The
    operands stay as they were; so does the copy when the hook raises."""
    function = Median()
    before = _state(partial), [_state(part) for part in left + entered]
    own = function.private_copy(partial)
    assert own is not partial and own.runs is not partial.runs and _state(own) == before[0]
    try:
        result = function.slide_in_place(own, left, entered)
    except ValueError as error:
        assert _state(own) == before[0], "a slide that raises must edit nothing"
        result = str(error)
    else:
        assert result is own
        result = _state(result)
    assert (_state(partial), [_state(part) for part in left + entered]) == before
    return result


class TestSlideInPlace:
    """A carry edits its private copy in place: the same result, the same
    representatives and the same errors as the ⊖ / ⊕ loop, and a slide
    that raises edits nothing."""

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_invert_combine_loop(self, seed):
        rng = random.Random(f"slide-in-place:{seed}")
        window = [_random_runs(rng, rng.randint(1, 8)) for _ in range(rng.randint(1, 6))]
        carry = reduce(RleRuns.merge, window)
        errors = 0
        for gone in range(len(window) + 1):
            entered = [_random_runs(rng, rng.randint(1, 8)) for _ in range(rng.randint(0, 3))]
            # Contained, then most likely not: a part the window never held.
            for left in (window[:gone], window[:gone] + [_random_runs(rng, rng.randint(1, 8))]):
                expected = _looped(carry, left, entered)
                assert _in_place(carry, left, entered) == expected
                errors += isinstance(expected, str)
        assert errors, "the seed drew no removal the window does not hold"

    @pytest.mark.parametrize(
        "values", [[1, 1.0, True], [1.0, True, 1], [0.0, -0.0, 0], [-0.0, 0, 0.0]], ids=repr
    )
    def test_representatives_are_the_loops(self, values):
        first, second, third = values
        padding = [(float(v), 1) for v in range(10, 30)]
        for count in (1, 2, 3):
            carry = RleRuns([(first, count)] + padding)
            left, entered = [RleRuns.of(second)], [RleRuns.of(third)]
            slid = _in_place(carry, left, entered)
            assert slid == _looped(carry, left, entered)
            # A run that kept a count keeps its representative; one
            # that emptied takes the added value's.
            kept = first if count > 1 else third
            assert slid[0][0] == (type(kept).__name__, repr(kept), count)

    @pytest.mark.parametrize(
        "left, message",
        [
            ([[(2.0, 1), (5.0, 9)]], "cannot remove 9x 5: only 2 present"),
            ([[(2.5, 1)]], "cannot remove value 2.5: not present"),
            ([[(0.5, 1), (2.5, 1), (9.0, 1)]], "cannot remove value 0.5: not present"),
            ([[(0.5, 1), (5.0, 3)]], "cannot remove 3x 5: only 2 present"),
            ([[(3.0, 7), (8.5, 1)]], "cannot remove 7x 3.0: only 1 present"),
            # Each part is checked against what the parts before it left.
            ([[(5.0, 1)], [(5.0, 2)]], "cannot remove 2x 5: only 1 present"),
            ([[(5.0, 2)], [(5.0, 1)]], "cannot remove value 5.0: not present"),
            ([[(1.0, 1)], [(2.5, 1)], [(9.0, 9)]], "cannot remove value 2.5: not present"),
        ],
    )
    def test_raises_the_loops_errors_and_edits_nothing(self, left, message):
        carry = RleRuns([(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 1), (5, 2), (6.0, 1), (7.0, 1), (8.0, 3)])
        removed = [RleRuns(runs) for runs in left]
        for entered in ([], [RleRuns.of(2.0)]):
            assert _looped(carry, removed, entered) == message
            assert _in_place(carry, removed, entered) == message

    def test_a_subclass_that_changes_combine_slides_through_it(self):
        class Doubled(Median):
            __slots__ = ()

            def combine(self, left, right):
                return left.merge(right).merge(right)

        function = Doubled()
        carry = RleRuns.of(1.0)
        assert function.private_copy(carry) is carry
        slid = function.slide_in_place(carry, [], [RleRuns.of(2.0)])
        assert slid.runs == [(1.0, 1), (2.0, 2)] and carry.runs == [(1.0, 1)]


class TestSortedValues:
    def test_merge(self):
        left = SortedValues([1.0, 3.0])
        right = SortedValues([2.0, 4.0])
        assert left.merge(right).values == [1.0, 2.0, 3.0, 4.0]

    def test_subtract(self):
        values = SortedValues([1.0, 2.0, 2.0, 3.0])
        assert values.subtract(SortedValues([2.0])).values == [1.0, 2.0, 3.0]

    def test_subtract_missing_raises(self):
        with pytest.raises(ValueError):
            SortedValues([1.0]).subtract(SortedValues([9.0]))

    def test_quantile(self):
        values = SortedValues([float(i) for i in range(4)])
        assert values.quantile(0.5) == 2.0


class TestMedian:
    def test_median_odd(self):
        fn = Median()
        partial = fn.fold_values(None, [5.0, 1.0, 3.0])
        assert fn.lower(partial) == 3.0

    def test_median_even_uses_nearest_rank(self):
        fn = Median()
        partial = fn.fold_values(None, [1.0, 2.0, 3.0, 4.0])
        assert fn.lower(partial) == 3.0  # rank int(0.5*4)=2 -> value 3.0

    def test_empty_lowers_to_none(self):
        fn = Median()
        assert fn.lower(RleRuns()) is None

    def test_invert_multiset(self):
        fn = Median()
        partial = fn.fold_values(None, [1.0, 2.0, 3.0, 9.0])
        reduced = fn.invert(partial, fn.lift(9.0))
        assert fn.lower(reduced) == 2.0

    def test_holistic_classification(self):
        from repro.aggregations.base import AggregationClass

        assert Median().kind is AggregationClass.HOLISTIC


class TestBulkHooks:
    def test_fold_values_sorts_once_and_merges_into_the_partial(self):
        fn = Median()
        start = fn.fold_values(None, [5.0, 1.0])
        assert start.runs == [(1.0, 1), (5.0, 1)]
        grown = fn.fold_values(start, [3.0, 5.0, 3.0])
        assert grown.runs == [(1.0, 1), (3.0, 2), (5.0, 2)] and grown.total == 5
        assert start.runs == [(1.0, 1), (5.0, 1)], "partials are immutable"
        assert fn.fold_values(start, []) is start
        assert fn.fold_values(None, []) is None

    def test_combine_all_edge_cases(self):
        fn = Percentile(0.9)
        one = RleRuns.of(4.0)
        assert fn.combine_all([]) is None
        assert fn.combine_all([one]) is one
        assert fn.combine_all([one, RleRuns.of(4.0)]).runs == [(4.0, 2)]


class TestPercentile:
    def test_90th(self):
        fn = Percentile(0.9)
        partial = fn.fold_values(None, [float(i) for i in range(100)])
        assert fn.lower(partial) == 90.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Percentile(2.0)

    def test_name_includes_quantile(self):
        assert Percentile(0.9).name == "90-percentile"


class TestPlainMedian:
    def test_matches_rle_median(self):
        values = [float(i % 13) for i in range(77)]
        rle = Median()
        plain = PlainMedian()
        assert rle.lower(rle.fold_values(None, values)) == plain.lower(plain.fold_values(None, values))

    def test_empty(self):
        assert PlainMedian().lower(SortedValues()) is None
