"""The incremental aggregation framework (Section 5.4.1 of the paper).

Every aggregation is described by four functions, following Tangwongsan
et al. (General Incremental Sliding-Window Aggregation, PVLDB 2015):

``lift``
    Transform one input value into a partial aggregate.
``combine`` (:math:`\\oplus`)
    Merge two partial aggregates into one.  Must be associative; slicing
    relies on associativity to share partials among windows.
``lower``
    Turn a partial aggregate into the final window result.
``invert`` (:math:`\\ominus`, optional)
    Remove a partial aggregate from another incrementally.  Only
    invertible aggregations provide it; the slice manager exploits it to
    shift records between count-based slices cheaply (Figure 6).

Algebraic properties (Section 4.2) are exposed as class attributes so
that the workload-characterization logic (:mod:`repro.core.characteristics`)
can inspect registered queries:

* ``commutative`` -- whether :math:`x \\oplus y = y \\oplus x`.  Slicing
  must keep raw records for non-commutative aggregations on out-of-order
  streams (Figure 4).
* ``invertible`` -- whether an ``invert`` implementation exists.
* ``kind`` -- distributive / algebraic / holistic (Gray et al.).
  Holistic aggregations have unbounded partial-aggregate size: the
  partial holds every value of its slice, so it needs no record store
  beside it (Figure 4 does not ask about the class).
"""

from __future__ import annotations

import enum
from functools import reduce
from typing import Any, Generic, Optional, Sequence, TypeVar

V = TypeVar("V")  # input value
P = TypeVar("P")  # partial aggregate
R = TypeVar("R")  # final result

__all__ = ["AggregationClass", "AggregateFunction"]


class AggregationClass(enum.Enum):
    """Gray et al.'s classification of aggregate functions (Section 4.2)."""

    #: Partials equal finals and have constant size (sum, min, max).
    DISTRIBUTIVE = "distributive"
    #: Fixed-size intermediate summarizes the partials (avg, M4, variance).
    ALGEBRAIC = "algebraic"
    #: Partial aggregates grow without bound (median, percentiles).
    HOLISTIC = "holistic"


class AggregateFunction(Generic[V, P, R]):
    """Base class for all aggregations.

    Subclasses implement :meth:`lift`, :meth:`combine`, and :meth:`lower`
    and declare their algebraic properties.  Invertible aggregations
    additionally implement :meth:`invert`.

    Partial aggregates must be treated as immutable values: ``combine``
    and ``invert`` return new partials rather than mutating arguments, so
    partials can safely be shared between slices and aggregate trees.
    There are two exceptions.  A partial that :meth:`private_copy` made
    shares nothing, and :meth:`slide_in_place` may edit it.  The open
    head's partial is written by in-order records only, and
    :meth:`accumulate_in_place` may edit it.
    """

    #: Human-readable name used in benchmark tables.
    name: str = "aggregate"
    #: All supported aggregations are associative (required for slicing).
    associative: bool = True
    #: Whether combine commutes.
    commutative: bool = True
    #: Whether :meth:`invert` is implemented.
    invertible: bool = False
    #: Whether :meth:`invert` reverses :meth:`combine` exactly on the
    #: partial domain.  True for partials that stay integral under
    #: integer inputs (sums, counts); False when the partial lives in a
    #: transformed float domain (log-sums, running products), where
    #: ``(x ⊕ y) ⊖ y != x`` bit-for-bit.  Subtract-based kernels are
    #: only selected when this holds, keeping slicing bit-identical to
    #: recomputation.  Meaningless unless :attr:`invertible`.
    exact_invert: bool = True
    #: Distributive / algebraic / holistic.
    kind: AggregationClass = AggregationClass.ALGEBRAIC

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # An inherited bulk hook is a shortcut around the *parent's* lift
        # and combine (``Sum.fold_values`` adds the raw values): a class
        # with its own gets the exact left fold back, unless it brings
        # the hook too.
        # The in-place slide is the same kind of shortcut around the
        # parent's combine and invert.
        # The in-place head write is a shortcut around the same pair and
        # around accumulate: a class that brings any of the three but no
        # in-place write of its own writes the head with its accumulate,
        # which edits nothing and costs no extra call.
        own = set(cls.__dict__)
        if "lift" in own or "combine" in own:
            for hook in ("accumulate", "fold_values", "combine_all"):
                if hook not in own:
                    setattr(cls, hook, getattr(AggregateFunction, hook))
        if own & {"lift", "combine", "accumulate"} and "accumulate_in_place" not in own:
            cls.accumulate_in_place = cls.accumulate
        if "combine" in own or "invert" in own:
            for hook in ("private_copy", "slide_in_place"):
                if hook not in own:
                    setattr(cls, hook, getattr(AggregateFunction, hook))

    def lift(self, value: V) -> P:
        """Transform an input value into a partial aggregate."""
        raise NotImplementedError

    def combine(self, left: P, right: P) -> P:
        """Merge two partial aggregates (the :math:`\\oplus` operation).

        ``left`` precedes ``right`` in stream order; non-commutative
        aggregations rely on this ordering.
        """
        raise NotImplementedError

    def lower(self, partial: P) -> R:
        """Transform a partial aggregate into the final result."""
        raise NotImplementedError

    def invert(self, partial: P, removed: P) -> P:
        """Remove ``removed`` from ``partial`` (the :math:`\\ominus` operation).

        Only available when :attr:`invertible` is ``True``.
        """
        raise NotImplementedError(f"{self.name} is not invertible")

    def identity(self) -> Optional[P]:
        """Return the neutral element of :meth:`combine`, or ``None``.

        Aggregations without a natural identity return ``None``; callers
        must then special-case empty sequences (:meth:`fold_values` and
        :meth:`combine_all` return ``None`` for them).
        """
        return None

    def lower_or_default(self, partial: Optional[P]) -> Any:
        """Lower ``partial``; empty windows lower to :meth:`empty_result`."""
        if partial is None:
            return self.empty_result()
        return self.lower(partial)

    def empty_result(self) -> Any:
        """The result reported for an empty window (default ``None``)."""
        return None

    def signature(self) -> tuple:
        """Sharing key: queries whose aggregations have equal signatures
        share one partial aggregate per slice.

        Parameterless aggregations share by class; parametrized ones
        (e.g. :class:`~repro.aggregations.holistic.Percentile`) must
        include their parameters.
        """
        return (type(self),)

    def accumulate(self, partial: Optional[P], value: V) -> P:
        """Fold one raw value into ``partial`` (``None``: an empty slice):
        what a record entering its slice costs per function.  The default
        is ``partial ⊕ lift(value)``; an override fuses the two steps and
        must return that value bit for bit, of the same type.
        """
        lifted = self.lift(value)
        return lifted if partial is None else self.combine(partial, lifted)

    def accumulate_in_place(self, partial: Optional[P], value: V) -> P:
        """:meth:`accumulate`, free to edit ``partial`` and return it.

        Only the in-order write of a record into the open head calls it:
        no carry, plan or other slice holds the head's partial, and the
        eager store, whose kernel leaf does, rewrites that leaf on every
        read that reaches the head from a function that overrides this
        (:meth:`edits_in_place`).  The result must equal
        :meth:`accumulate`'s bit for bit, of the same type.  The default
        is the class's :meth:`accumulate` itself, which edits nothing.
        """
        return self.accumulate(partial, value)

    def edits_in_place(self) -> bool:
        """Whether :meth:`accumulate_in_place` may edit its partial: the
        class overrides it rather than keeping its :meth:`accumulate`."""
        cls = type(self)
        return cls.accumulate_in_place is not cls.accumulate

    def fold_values(self, partial: Optional[P], values: Sequence[V]) -> Optional[P]:
        """Fold a run of raw values into ``partial`` in stream order.

        This is the bulk primitive behind the batched ingestion path:
        a run of in-order records is folded with one call instead of one
        ``lift``/``combine`` round-trip per record.  The default is the
        exact left fold that repeated :meth:`lift` + :meth:`combine`
        would produce, so results are identical on both paths; an
        override must equal that fold bit for bit.  Simple distributive
        aggregations override it with C-level reductions (``min`` /
        ``max`` / ``len``, ``reduce(add, ...)`` -- not the builtin
        ``sum``, which compensates float rounding since Python 3.12).
        """
        lift = self.lift
        combine = self.combine
        for value in values:
            lifted = lift(value)
            partial = lifted if partial is None else combine(partial, lifted)
        return partial

    def combine_all(self, partials: Sequence[P]) -> Optional[P]:
        """Combine a run of partials, given in stream order, into one.

        This is the bulk primitive behind every slice-range fold: the
        lazy store answers a window with one call over the partials of
        the slices it covers.  ``partials`` holds no ``None``; an empty
        run yields ``None``.  The default is the exact left fold that
        repeated :meth:`combine` performs, ``((p0 ⊕ p1) ⊕ p2) ⊕ ...``.
        An override must return that fold's value bit for bit, so only
        functions whose partials are exact in any grouping (multisets,
        integer counts) have a faster one -- see
        :class:`~repro.aggregations.holistic.Percentile`.
        """
        if not partials:
            return None
        return reduce(self.combine, partials)

    def private_copy(self, partial: P) -> P:
        """A copy of ``partial`` that shares nothing mutable with it, for
        one owner to edit through :meth:`slide_in_place`.  The default
        returns ``partial`` itself: the default :meth:`slide_in_place`
        edits nothing, so sharing is safe.
        """
        return partial

    def slide_in_place(self, partial: P, left: Sequence[P], entered: Sequence[P]) -> P:
        """``partial`` ⊖ every partial of ``left`` ⊕ every partial of
        ``entered``, in that order: what sliding a window costs.

        ``partial`` must come from :meth:`private_copy` (or from an
        earlier call on one); the override may edit it and return it.
        ``left`` and ``entered`` are shared and stay untouched.  The
        result must equal the loop below -- the same value, the same
        representatives of equal values, the same ``ValueError`` -- and
        a call that raises leaves ``partial`` as it was.  The default is
        that loop, one new value per step.
        """
        for removed in left:
            partial = self.invert(partial, removed)
        for added in entered:
            partial = self.combine(partial, added)
        return partial

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"
