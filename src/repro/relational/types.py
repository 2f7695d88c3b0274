"""Value types for the relational substrate.

The substrate supports the four types a tabular ML pipeline needs:
integers, floats, strings and booleans, plus an explicit ``NULL`` sentinel
that survives joins and is distinguishable from ``0``/``""``/``False``.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from decimal import Decimal
from typing import Any, Iterable, Optional, Tuple

import numpy as np

from repro.exceptions import SchemaError


class _NullType:
    """Singleton sentinel for SQL-style NULL values."""

    _instance: Optional["_NullType"] = None

    def __new__(cls) -> "_NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: Any) -> bool:
        return other is self or isinstance(other, _NullType)

    def __hash__(self) -> int:
        return hash("__amalur_null__")


NULL = _NullType()


def is_null(value: Any) -> bool:
    """Return True for the NULL sentinel, Python None, or float NaN."""
    if value is NULL or value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


class DataType(enum.Enum):
    """Column data types supported by the substrate."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def python_type(self) -> type:
        return {
            DataType.INT: int,
            DataType.FLOAT: float,
            DataType.STRING: str,
            DataType.BOOL: bool,
        }[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.FLOAT)


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to ``dtype``, preserving NULLs.

    Raises :class:`SchemaError` if the value cannot be represented in the
    requested type.
    """
    if is_null(value):
        return NULL
    try:
        if dtype is DataType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise SchemaError(f"cannot coerce non-integral float {value!r} to INT")
            return int(value)
        if dtype is DataType.FLOAT:
            return float(value)
        if dtype is DataType.STRING:
            try:
                return str(value)
            except ValueError:
                if not isinstance(value, int):
                    raise
                # str() refuses an int of more than sys.get_int_max_str_digits() digits.
                return str(Decimal(value))
        if dtype is DataType.BOOL:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
                raise SchemaError(f"cannot coerce string {value!r} to BOOL")
            return bool(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"cannot coerce {value!r} to {dtype.value}") from exc
    raise SchemaError(f"unknown data type {dtype!r}")  # pragma: no cover


def infer_type(values: Iterable[Any]) -> DataType:
    """Infer the narrowest :class:`DataType` able to hold all ``values``.

    NULLs are ignored; an all-NULL column defaults to FLOAT so it can hold
    NaN in matrix form. Typed numpy arrays resolve from their dtype without
    touching individual values.
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind == "b":
            return DataType.BOOL
        if kind in "iu":
            return DataType.INT
        if kind == "f":
            return DataType.FLOAT
        values = values.tolist()  # strings / objects: per-value parsing below
    seen_float = False
    seen_int = False
    seen_bool = False
    seen_str = False
    any_value = False
    for value in values:
        if is_null(value):
            continue
        any_value = True
        if isinstance(value, bool):
            seen_bool = True
        elif isinstance(value, int):
            seen_int = True
        elif isinstance(value, float):
            seen_float = True
        elif isinstance(value, str):
            parsed = _parse_string(value)
            if isinstance(parsed, bool):
                seen_bool = True
            elif isinstance(parsed, int):
                seen_int = True
            elif isinstance(parsed, float):
                seen_float = True
            else:
                seen_str = True
        else:
            seen_str = True
    if not any_value:
        return DataType.FLOAT
    if seen_str:
        return DataType.STRING
    if seen_float:
        return DataType.FLOAT
    if seen_int:
        return DataType.INT
    if seen_bool:
        return DataType.BOOL
    return DataType.STRING  # pragma: no cover - unreachable


#: A stripped cell ``int()`` reads as base 10: a sign, then decimal digits
#: grouped by single underscores.
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")
#: The least ``sys.get_int_max_str_digits()`` other than 0 (no limit): no
#: shorter literal trips the limit (interpreters before it have no limit).
_LEAST_INT_DIGITS_LIMIT = getattr(sys.int_info, "str_digits_check_threshold", 640)


def _parse_string(text: str) -> Any:
    """Parse a string into bool/int/float if possible, else return it."""
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(stripped)
    except ValueError:
        # int() refuses a literal of more than sys.get_int_max_str_digits()
        # digits; it is an integer all the same, and Decimal reads it exactly.
        if len(stripped) > _LEAST_INT_DIGITS_LIMIT and _INT_LITERAL.fullmatch(stripped):
            return int(Decimal(stripped))
    try:
        return float(stripped)
    except ValueError:
        return text


#: Cell spellings (lowercased, stripped) that CSV ingest reads as NULL.
NULL_LITERALS = ("", "null", "none", "na", "nan")


def unescape_protected_cell(stripped: str) -> Optional[str]:
    """Undo the ``write_csv`` backslash escape of mistypeable strings.

    ``write_csv`` protects STRING values that would otherwise re-parse as a
    different type — NULL (the literals in :data:`NULL_LITERALS`), numbers
    (``"5"``, ``"1e3"``) and bool literals (``"true"``) — and values that
    already start with a backslash — by prefixing one backslash. A cell
    starting with ``\\`` whose remainder is such a protected form is
    therefore a *string* literal: return the remainder. Any other cell
    (including backslash-prefixed text that needs no protection) returns
    ``None`` and parses normally.
    """
    if not stripped.startswith("\\"):
        return None
    remainder = stripped[1:]
    if remainder.startswith("\\") or remainder.strip().lower() in NULL_LITERALS:
        return remainder
    if not isinstance(_parse_string(remainder), str):
        return remainder
    return None


def parse_cell(text: str) -> Any:
    """Parse a raw CSV cell into a typed Python value (NULL for empties)."""
    if text is None:
        return NULL
    stripped = text.strip()
    unescaped = unescape_protected_cell(stripped)
    if unescaped is not None:
        return unescaped
    if stripped.lower() in NULL_LITERALS:
        return NULL
    return _parse_string(stripped)


# ---------------------------------------------------------------------------------
# Columnar storage: whole-column coercion to (values, validity) array pairs
# ---------------------------------------------------------------------------------
#
# The columnar Table stores each column as a typed numpy array plus a boolean
# validity mask (True = non-NULL). Storage dtypes per DataType:
#
#   INT    -> int64    (0 placeholder at NULL positions)
#   FLOAT  -> float64  (NaN placeholder at NULL positions)
#   BOOL   -> bool_    (False placeholder at NULL positions)
#   STRING -> object   (the NULL sentinel itself at NULL positions)
#
# ``coerce_column`` vectorizes the per-value ``coerce_value`` contract: numeric
# inputs (typed arrays, or lists that numpy can convert in C) never touch
# Python per value; anything else falls back to element-wise ``coerce_value``,
# preserving the exact error semantics.

_STORAGE_DTYPE = {
    DataType.INT: np.int64,
    DataType.FLOAT: np.float64,
    DataType.BOOL: np.bool_,
    DataType.STRING: object,
}


def null_placeholder(dtype: DataType) -> Any:
    """The in-array placeholder stored at NULL positions for ``dtype``."""
    return {
        DataType.INT: 0,
        DataType.FLOAT: np.nan,
        DataType.BOOL: False,
        DataType.STRING: NULL,
    }[dtype]


def _finalize_float(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64)
    return values, ~np.isnan(values)


# int64 bounds as exact float64 values (2**63 is representable; upper is
# exclusive because int64 max itself rounds up to 2**63 in float).
INT64_MIN_FLOAT = -9223372036854775808.0
INT64_MAX_FLOAT = 9223372036854775808.0


def int_exact_cast(values: np.ndarray) -> np.ndarray:
    """Cast a float64 array (no NaNs) to int64, failing loudly like
    scalar coercion: non-integral or non-finite values raise, and values
    outside int64 range raise instead of wrapping."""
    if values.size:
        finite = np.isfinite(values)
        if not bool(finite.all()):
            bad = values[~finite][0]
            raise SchemaError(f"cannot coerce non-integral float {bad!r} to INT")
        non_integral = values != np.floor(values)
        if bool(non_integral.any()):
            bad = values[non_integral][0]
            raise SchemaError(f"cannot coerce non-integral float {bad!r} to INT")
        out_of_range = (values < INT64_MIN_FLOAT) | (values >= INT64_MAX_FLOAT)
        if bool(out_of_range.any()):
            bad = values[out_of_range][0]
            raise SchemaError(f"integer {bad!r} overflows the int64 column storage")
    return values.astype(np.int64)


def _finalize_int(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce a float array to INT storage, enforcing integrality."""
    valid = ~np.isnan(values)
    out = np.zeros(values.shape, dtype=np.int64)
    out[valid] = int_exact_cast(values[valid])
    return out, valid


def _coerce_column_fallback(values, dtype: DataType) -> Tuple[np.ndarray, np.ndarray]:
    """Element-wise path: exact ``coerce_value`` semantics for mixed inputs."""
    coerced = [coerce_value(v, dtype) for v in values]
    valid = np.fromiter((v is not NULL for v in coerced), dtype=bool, count=len(coerced))
    out = np.empty(len(coerced), dtype=_STORAGE_DTYPE[dtype])
    if dtype is DataType.STRING:
        out[:] = coerced
        return out, valid
    placeholder = null_placeholder(dtype)
    try:
        out[:] = [placeholder if v is NULL else v for v in coerced]
    except OverflowError as exc:
        raise SchemaError(f"value overflows the {dtype.value} column storage") from exc
    if dtype is DataType.FLOAT:
        # A coerced NaN (e.g. the string "nan") is NULL under is_null(); the
        # validity mask is the storage-level source of truth, so keep the
        # FLOAT invariant NULL <=> NaN.
        valid &= ~np.isnan(out)
    return out, valid


def coerce_column(values, dtype: DataType) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce a whole column to ``dtype`` storage, returning (values, valid).

    Equivalent to mapping :func:`coerce_value` over ``values`` (same
    :class:`SchemaError` conditions), but typed/convertible numeric input is
    processed entirely in numpy.
    """
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise SchemaError(f"column data must be 1-D, got shape {values.shape}")
    if not isinstance(values, np.ndarray):
        values = list(values)
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=_STORAGE_DTYPE[dtype]), np.empty(0, dtype=bool)

    if dtype is DataType.FLOAT:
        if isinstance(values, np.ndarray) and values.dtype.kind in "bif":
            return _finalize_float(values)
        try:
            # numpy converts numbers, numeric strings and None (-> NaN) in C;
            # the NULL sentinel or unparsable strings raise and fall back.
            return _finalize_float(np.asarray(values, dtype=np.float64))
        except (TypeError, ValueError):
            return _coerce_column_fallback(values, dtype)

    if dtype is DataType.INT:
        natural = values if isinstance(values, np.ndarray) else None
        if natural is None:
            try:
                natural = np.asarray(values)
            except (TypeError, ValueError, OverflowError):
                natural = None
        if natural is not None:
            if natural.dtype.kind == "u":
                if natural.size and int(natural.max()) > np.iinfo(np.int64).max:
                    raise SchemaError("value overflows the int column storage")
                return natural.astype(np.int64), np.ones(n, dtype=bool)
            if natural.dtype.kind == "i":
                return natural.astype(np.int64, copy=False), np.ones(n, dtype=bool)
            if natural.dtype.kind in "bf":
                return _finalize_int(np.asarray(natural, dtype=np.float64))
        return _coerce_column_fallback(values, dtype)

    if dtype is DataType.BOOL:
        if isinstance(values, np.ndarray) and values.dtype.kind == "b":
            return values.astype(np.bool_, copy=False), np.ones(n, dtype=bool)
        return _coerce_column_fallback(values, dtype)

    if dtype is DataType.STRING:
        if isinstance(values, np.ndarray) and values.dtype.kind == "U":
            return values.astype(object), np.ones(n, dtype=bool)
        return _coerce_column_fallback(values, dtype)

    raise SchemaError(f"unknown data type {dtype!r}")  # pragma: no cover


def storage_to_list(values: np.ndarray, valid: np.ndarray) -> list:
    """Convert (values, valid) storage back to a Python list with NULLs."""
    out = values.tolist()
    if not bool(valid.all()):
        for i in np.nonzero(~valid)[0]:
            out[i] = NULL
    return out
