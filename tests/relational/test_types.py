"""Tests for repro.relational.types."""

import sys

import pytest

from repro.exceptions import SchemaError
from repro.relational.types import (
    NULL,
    DataType,
    coerce_value,
    infer_type,
    is_null,
    parse_cell,
)


class TestNullSentinel:
    def test_null_is_singleton(self):
        from repro.relational.types import _NullType

        assert _NullType() is NULL

    def test_null_is_falsy(self):
        assert not NULL

    def test_is_null_detects_none_and_nan(self):
        assert is_null(None)
        assert is_null(NULL)
        assert is_null(float("nan"))

    def test_is_null_rejects_zero_and_empty_string(self):
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(False)

    def test_null_equality_and_hash(self):
        assert NULL == NULL
        assert hash(NULL) == hash(NULL)
        assert NULL != 0


class TestCoerceValue:
    def test_coerce_int(self):
        assert coerce_value("7", DataType.INT) == 7
        assert coerce_value(7.0, DataType.INT) == 7

    def test_coerce_non_integral_float_to_int_fails(self):
        with pytest.raises(SchemaError):
            coerce_value(7.5, DataType.INT)

    def test_coerce_float(self):
        assert coerce_value("2.5", DataType.FLOAT) == pytest.approx(2.5)
        assert coerce_value(3, DataType.FLOAT) == pytest.approx(3.0)

    def test_coerce_string(self):
        assert coerce_value(12, DataType.STRING) == "12"

    def test_coerce_bool_from_strings(self):
        assert coerce_value("true", DataType.BOOL) is True
        assert coerce_value("No", DataType.BOOL) is False

    def test_coerce_bool_invalid_string(self):
        with pytest.raises(SchemaError):
            coerce_value("maybe", DataType.BOOL)

    def test_coerce_preserves_null(self):
        assert coerce_value(None, DataType.INT) is NULL
        assert coerce_value(NULL, DataType.FLOAT) is NULL

    def test_coerce_invalid_int(self):
        with pytest.raises(SchemaError):
            coerce_value("abc", DataType.INT)

    def test_coerce_integer_beyond_float_range(self):
        with pytest.raises(SchemaError):
            coerce_value(10**400, DataType.FLOAT)
        assert coerce_value(2**1024 - 2**970 - 1, DataType.FLOAT) == sys.float_info.max


class TestInferType:
    def test_infer_int(self):
        assert infer_type([1, 2, 3]) is DataType.INT

    def test_infer_float_promotes_ints(self):
        assert infer_type([1, 2.5]) is DataType.FLOAT

    def test_infer_string_wins(self):
        assert infer_type([1, "a", 2.0]) is DataType.STRING

    def test_infer_bool(self):
        assert infer_type([True, False]) is DataType.BOOL

    def test_infer_ignores_nulls(self):
        assert infer_type([None, 3, NULL]) is DataType.INT

    def test_infer_all_null_defaults_to_float(self):
        assert infer_type([None, NULL]) is DataType.FLOAT

    def test_infer_numeric_strings(self):
        assert infer_type(["1", "2"]) is DataType.INT
        assert infer_type(["1.5", "2"]) is DataType.FLOAT


class TestParseCell:
    def test_parse_empty_is_null(self):
        assert parse_cell("") is NULL
        assert parse_cell("  ") is NULL
        assert parse_cell("NaN") is NULL
        assert parse_cell("null") is NULL

    def test_parse_numbers(self):
        assert parse_cell("42") == 42
        assert parse_cell("4.5") == pytest.approx(4.5)

    def test_parse_booleans(self):
        assert parse_cell("true") is True
        assert parse_cell("False") is False

    def test_parse_strings_pass_through(self):
        assert parse_cell("Jane") == "Jane"

    def test_datatype_properties(self):
        assert DataType.INT.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STRING.is_numeric
        assert DataType.INT.python_type is int
