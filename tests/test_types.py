"""Tests for stream element types (repro.core.types)."""

import pytest

from repro.core.types import (
    Punctuation,
    Record,
    Watermark,
    WindowResult,
    is_in_order,
)


class TestRecord:
    def test_fields(self):
        record = Record(5, 2.5, key="a")
        assert record.ts == 5
        assert record.value == 2.5
        assert record.key == "a"

    def test_default_key_is_none(self):
        assert Record(0, 1.0).key is None

    def test_equality(self):
        assert Record(1, 2.0) == Record(1, 2.0)
        assert Record(1, 2.0) != Record(1, 3.0)
        assert Record(1, 2.0) != Record(2, 2.0)
        assert Record(1, 2.0, key="k") != Record(1, 2.0)

    def test_hashable(self):
        assert len({Record(1, 2.0), Record(1, 2.0), Record(2, 2.0)}) == 2

    def test_not_equal_to_other_types(self):
        assert Record(1, 2.0) != Watermark(1)
        assert Record(1, 2.0) != "record"


class TestWatermark:
    def test_fields_and_equality(self):
        assert Watermark(7).ts == 7
        assert Watermark(7) == Watermark(7)
        assert Watermark(7) != Watermark(8)

    def test_distinct_hash_from_record(self):
        assert hash(Watermark(3)) != hash(Record(3, 3))


class TestPunctuation:
    def test_kinds(self):
        assert Punctuation(5).kind == Punctuation.END
        assert Punctuation(5, Punctuation.START).kind == Punctuation.START

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Punctuation(5, "middle")

    def test_equality(self):
        assert Punctuation(5) == Punctuation(5)
        assert Punctuation(5) != Punctuation(5, Punctuation.START)
        assert Punctuation(5) != Punctuation(6)


class TestWindowResult:
    def test_fields(self):
        result = WindowResult(2, 0, 10, 42.0)
        assert result.as_tuple() == (2, 0, 10, 42.0)
        assert not result.is_update

    def test_update_flag(self):
        assert WindowResult(0, 0, 10, 1.0, is_update=True).is_update

    def test_equality_includes_update_flag(self):
        assert WindowResult(0, 0, 10, 1.0) != WindowResult(0, 0, 10, 1.0, is_update=True)
        assert WindowResult(0, 0, 10, 1.0) == WindowResult(0, 0, 10, 1.0)

    def test_results_differing_only_in_key_are_unequal(self):
        # As for Record: a keyed operator's result for key "a" is not its
        # result for key "b", nor an unkeyed operator's.
        assert WindowResult(0, 0, 10, 1.0, key="a") != WindowResult(0, 0, 10, 1.0, key="b")
        assert WindowResult(0, 0, 10, 1.0, key="a") != WindowResult(0, 0, 10, 1.0)
        assert WindowResult(0, 0, 10, 1.0, key="a") == WindowResult(0, 0, 10, 1.0, key="a")
        # A list key is allowed: equal results still hash equal.
        assert hash(WindowResult(0, 0, 10, 1.0, key=[1])) == hash(WindowResult(0, 0, 10, 1.0, key=[1]))

    def test_hashable_with_unhashable_value(self):
        # Values may be lists (CollectList); hashing must still work.
        assert isinstance(hash(WindowResult(0, 0, 10, [1, 2])), int)


class TestStreamHelpers:
    def test_is_in_order_true(self):
        assert is_in_order([Record(1, 0), Record(1, 0), Record(3, 0)])

    def test_is_in_order_false(self):
        assert not is_in_order([Record(3, 0), Record(1, 0)])

    def test_is_in_order_ignores_watermarks(self):
        assert is_in_order([Record(5, 0), Watermark(1), Record(5, 0)])

    def test_is_in_order_empty(self):
        assert is_in_order([])

