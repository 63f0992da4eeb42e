"""Property-based tests: the declared algebraic properties must hold.

The correctness of slicing *depends* on these properties (Section 4.2):
associativity enables sharing; commutativity enables cheap out-of-order
updates; invertibility enables cheap count shifts.  Hypothesis checks
each declared property against the implementation.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregations import (
    Average,
    Count,
    GeometricMean,
    M4,
    Max,
    Median,
    Min,
    Percentile,
    PopulationStdDev,
    Sum,
    default_registry,
)
from repro.aggregations.ordered import CollectList, ConcatString, First, Last

# Bounded floats keep float associativity exact enough to assert equality
# on lowered results with tolerance.
values = st.integers(min_value=-1000, max_value=1000).map(float)
positive_values = st.integers(min_value=1, max_value=1000).map(float)

COMMUTATIVE_FUNCTIONS = [Sum(), Count(), Average(), Min(), Max(), PopulationStdDev(), Median()]
ALL_FUNCTIONS = COMMUTATIVE_FUNCTIONS + [M4(), First(), Last(), CollectList()]


def _approx_equal(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            _approx_equal(a, b) for a, b in zip(left, right)
        )
    return left == right


@given(x=values, y=values, z=values)
@settings(max_examples=60)
def test_associativity_all_functions(x, y, z):
    for fn in ALL_FUNCTIONS:
        a, b, c = fn.lift(x), fn.lift(y), fn.lift(z)
        left = fn.combine(fn.combine(a, b), c)
        right = fn.combine(a, fn.combine(b, c))
        assert _approx_equal(fn.lower(left), fn.lower(right)), fn.name


@given(x=values, y=values)
@settings(max_examples=60)
def test_commutativity_where_declared(x, y):
    for fn in COMMUTATIVE_FUNCTIONS:
        assert fn.commutative, fn.name
        left = fn.combine(fn.lift(x), fn.lift(y))
        right = fn.combine(fn.lift(y), fn.lift(x))
        assert _approx_equal(fn.lower(left), fn.lower(right)), fn.name


@given(batch=st.lists(values, min_size=1, max_size=30), removed_index=st.integers(0, 29))
@settings(max_examples=60)
def test_invert_roundtrip(batch, removed_index):
    removed_index %= len(batch)
    removed = batch[removed_index]
    remaining = batch[:removed_index] + batch[removed_index + 1 :]
    for fn in (Sum(), Count(), Average(), PopulationStdDev(), Median()):
        assert fn.invertible, fn.name
        full = fn.fold_values(None, batch)
        reduced = fn.invert(full, fn.lift(removed))
        if remaining:
            expected = fn.fold_values(None, remaining)
            assert _approx_equal(fn.lower(reduced), fn.lower(expected)), fn.name


@given(batch=st.lists(positive_values, min_size=1, max_size=20))
@settings(max_examples=40)
def test_geomean_matches_direct_computation(batch):
    fn = GeometricMean()
    partial = fn.fold_values(None, batch)
    direct = math.exp(sum(math.log(v) for v in batch) / len(batch))
    assert math.isclose(fn.lower(partial), direct, rel_tol=1e-9)


@given(batch=st.lists(values, min_size=1, max_size=50))
@settings(max_examples=60)
def test_median_matches_sorted_reference(batch):
    fn = Median()
    partial = fn.fold_values(None, batch)
    expected = sorted(batch)[min(len(batch) - 1, int(0.5 * len(batch)))]
    assert fn.lower(partial) == expected


@given(batch=st.lists(values, min_size=1, max_size=50), q=st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_percentile_matches_nearest_rank(batch, q):
    fn = Percentile(q)
    partial = fn.fold_values(None, batch)
    expected = sorted(batch)[min(len(batch) - 1, max(0, int(q * len(batch))))]
    assert fn.lower(partial) == expected


@given(
    left=st.lists(values, min_size=0, max_size=30),
    right=st.lists(values, min_size=0, max_size=30),
)
@settings(max_examples=60)
def test_rle_merge_equals_multiset_union(left, right):
    from repro.aggregations import RleRuns

    merged = RleRuns.from_values(left).merge(RleRuns.from_values(right))
    assert merged.runs == RleRuns.from_values(left + right).runs


@given(batch=st.lists(values, min_size=1, max_size=30))
@settings(max_examples=60)
def test_m4_fold_matches_direct(batch):
    fn = M4()
    result = fn.lower(fn.fold_values(None, batch))
    assert result == (min(batch), max(batch), batch[0], batch[-1])


@given(batch=st.lists(st.text(max_size=4), min_size=1, max_size=10))
@settings(max_examples=40)
def test_concat_order_sensitive(batch):
    fn = ConcatString("|")
    assert fn.lower(fn.fold_values(None, batch)) == "|".join(batch)


# ----------------------------------------------------------------------
# bulk hooks: an override must equal the sequential fold bit for bit


def _left_fold_values(fn, partial, values):
    """The reference: one ``lift`` + ``combine`` per value, in order."""
    for value in values:
        lifted = fn.lift(value)
        partial = lifted if partial is None else fn.combine(partial, lifted)
    return partial


def _left_fold_partials(fn, partials):
    """The reference: ``((p0 ⊕ p1) ⊕ p2) ⊕ ...``; ``None`` when empty."""
    result = None
    for partial in partials:
        result = partial if result is None else fn.combine(result, partial)
    return result


def _bulk_functions():
    """Every registry aggregation plus the order-sensitive ones."""
    functions = dict(default_registry())
    functions.update(
        first=First(), last=Last(), collect=CollectList(), concat=ConcatString("|")
    )
    return functions


def _draw_value(name, rng):
    """A non-integer float (sums round, so grouping shows in the last
    bits), shaped for the function: pairs for argmin/argmax, positive
    for the log-domain mean, short strings for concatenation."""
    value = rng.choice([0.1, 0.2, 0.3, 0.7]) + rng.randint(-3, 3) + rng.random() * 1e-3
    if name in ("argmin", "argmax"):
        return (value, rng.randrange(5))
    if name == "geomean":
        return abs(value) + 0.5
    if name == "concat":
        return rng.choice("abc") * rng.randint(0, 2)
    if name in ("median", "90-percentile"):
        # Few distinct values, so that runs repeat across partials.
        return rng.choice([0.1, 0.25, -1.5, 2.0, 1e-3])
    return value


BULK_SEEDS = range(25)


@pytest.mark.parametrize("name", sorted(_bulk_functions()))
def test_combine_all_equals_left_fold_of_combine(name):
    fn = _bulk_functions()[name]
    assert fn.combine_all([]) is None
    for seed in BULK_SEEDS:
        rng = random.Random(f"combine_all:{name}:{seed}")
        # Sizes 0, 1 and 2 first, then anything up to 40.
        size = seed if seed < 3 else rng.randint(0, 40)
        partials = [
            _left_fold_values(fn, None, [_draw_value(name, rng) for _ in range(rng.randint(1, 4))])
            for _ in range(size)
        ]
        before = repr(partials)
        expected = _left_fold_partials(fn, partials)
        got = fn.combine_all(partials)
        assert got == expected, (name, seed)
        assert repr(got) == repr(expected), (name, seed)  # 0.0 / -0.0, 1 / 1.0
        assert repr(partials) == before, "combine_all must not mutate its input"
        if size == 1:
            assert got is partials[0]


@pytest.mark.parametrize("name", sorted(_bulk_functions()))
def test_fold_values_equals_left_fold_of_lift_and_combine(name):
    fn = _bulk_functions()[name]
    assert fn.fold_values(None, []) is None
    for seed in BULK_SEEDS:
        rng = random.Random(f"fold_values:{name}:{seed}")
        head = [_draw_value(name, rng) for _ in range(rng.randint(0, 3))]
        values = [_draw_value(name, rng) for _ in range(rng.randint(0, 40))]
        start = _left_fold_values(fn, None, head)
        expected = _left_fold_values(fn, start, values)
        got = fn.fold_values(start, values)
        assert got == expected, (name, seed)
        assert repr(got) == repr(expected), (name, seed)


# ----------------------------------------------------------------------
# accumulate: one call per record must be lift-then-combine, bit for bit


def _exact(value):
    """``value`` with its types, signs and run representatives spelled
    out (``RleRuns.__repr__`` shows sizes only; ``1 == 1.0 == True``)."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_exact(item) for item in value])
    if isinstance(value, frozenset):
        return ("frozenset", sorted(_exact(item) for item in value))
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return (type(value).__name__, [_exact(getattr(value, slot)) for slot in slots])
    return (type(value).__name__, repr(value))


def _exported_functions():
    """One instance of every aggregation ``repro.aggregations`` exports."""
    import repro.aggregations as exported

    arguments = {"Percentile": (0.9,), "TopK": (3,), "ConcatString": ("|",)}
    classes = {name: getattr(exported, name) for name in exported.__all__}
    return {
        name: cls(*arguments.get(name, ()))
        for name, cls in classes.items()
        if isinstance(cls, type)
        and issubclass(cls, exported.AggregateFunction)
        and cls is not exported.AggregateFunction
    }


#: Ints and floats, ties, values that compare equal and differ in type
#: (``1`` / ``1.0`` / ``True``) or sign (``0.0`` / ``-0.0``).
_ACCUMULATE_VALUES = [3, 1.0, 1, 0.0, -0.0, 2.5, True, 1, -0.0, 0.0, 7, 2.5, -4, 3.0, 0, -4.5]


def _shaped(name, value):
    if name in ("ArgMin", "ArgMax"):
        return (value, repr(value))
    if name == "GeometricMean":
        return abs(value) + 1
    if name == "ConcatString":
        return repr(value)
    return value


@pytest.mark.parametrize("name", sorted(_exported_functions()))
def test_accumulate_equals_lift_then_combine(name):
    fn = _exported_functions()[name]
    forwards = [_shaped(name, value) for value in _ACCUMULATE_VALUES]
    for values in (forwards, forwards[::-1], forwards[4:] + forwards[:4]):
        partial = None
        for value in values:
            lifted = fn.lift(value)
            expected = lifted if partial is None else fn.combine(partial, lifted)
            before = _exact(partial)
            got = fn.accumulate(partial, value)
            assert _exact(got) == _exact(expected), (name, value)
            assert type(got) is type(expected)
            assert _exact(partial) == before, "accumulate must not mutate its input"
            partial = expected


def test_accumulate_is_fused_where_the_fusion_is_exact():
    from repro.aggregations import AggregateFunction

    functions = _exported_functions()
    fused = {name for name, fn in functions.items() if type(fn).accumulate is not AggregateFunction.accumulate}
    assert fused == {"Sum", "SumWithoutInvert", "Count", "Average", "Min", "Max", "Percentile", "Median"}


@pytest.mark.parametrize("name", sorted(_exported_functions()))
def test_accumulate_in_place_equals_accumulate_and_returns_its_input(name):
    """The open head's write: ``accumulate``'s value bit for bit and in
    type, and, where the class edits in place, the very partial it was
    handed."""
    fn = _exported_functions()[name]
    forwards = [_shaped(name, value) for value in _ACCUMULATE_VALUES]
    for values in (forwards, forwards[::-1], forwards[4:] + forwards[:4]):
        partial = edited = None
        for value in values:
            expected = fn.accumulate(partial, value)
            got = fn.accumulate_in_place(edited, value)
            assert _exact(got) == _exact(expected), (name, value)
            assert type(got) is type(expected)
            if fn.edits_in_place() and edited is not None:
                assert got is edited, "the in-place write returns its input"
            partial, edited = expected, got


def test_only_the_multisets_edit_the_head_in_place():
    functions = _exported_functions()
    assert {name for name, fn in functions.items() if fn.edits_in_place()} == {
        "Percentile",
        "Median",
    }

    class ShiftedMedian(Median):
        """Its own lift: the inherited in-place write would skip it."""

        __slots__ = ()

        def lift(self, value):
            return super().lift(value + 1)

    fn = ShiftedMedian()
    assert not fn.edits_in_place()
    partial = fn.lift(1)
    assert _exact(fn.accumulate_in_place(partial, 2)) == _exact(fn.combine(partial, fn.lift(2)))
