"""Vectorized key factorization for entity resolution.

The key-based entity resolver (:mod:`repro.metadata.entity_resolution`)
maps the key tuples of two tables into one shared integer code space so
that equal keys get equal codes, NULL keys get ``-1`` (SQL semantics: NULL
never matches anything, including another NULL), and matching becomes
``np.searchsorted`` over sorted codes instead of a Python dict probe per
row.

The factorization follows the value-equality rules of the row-at-a-time
implementation it replaces: numeric and boolean keys compare numerically
(``1 == 1.0 == True``), string keys compare as exact strings, and a numeric
key never equals a string key.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.relational.table import Table
from repro.relational.types import INT64_MAX_FLOAT, INT64_MIN_FLOAT, DataType

_NUMERIC_KINDS = (DataType.INT, DataType.FLOAT, DataType.BOOL)


def cumcount(codes: np.ndarray) -> np.ndarray:
    """Occurrence index of each element among equal values, in array order.

    ``cumcount([5, 3, 5, 5, 3]) == [0, 0, 1, 2, 1]``.
    """
    n = codes.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=new_group[1:])
    group_starts = np.nonzero(new_group)[0]
    group_lengths = np.diff(np.append(group_starts, n))
    ranks_sorted = np.arange(n, dtype=np.int64) - np.repeat(group_starts, group_lengths)
    out = np.empty(n, dtype=np.int64)
    out[order] = ranks_sorted
    return out


def _numeric_view(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Key column as float64 with NULL positions neutralized to 0."""
    out = np.asarray(values, dtype=np.float64)
    if not bool(valid.all()):
        out = out.copy()
        out[~valid] = 0.0
    return out


def _integer_view(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Key column as exact int64 (no float round-trip) with NULLs neutralized."""
    out = np.asarray(values, dtype=np.int64)
    if not bool(valid.all()):
        out = out.copy()
        out[~valid] = 0
    return out


def _integral(floats: np.ndarray) -> np.ndarray:
    """Where ``floats`` hold an integer inside the int64 range, so that
    converting to int64 is exact (``-0.0`` included; NaN and the
    infinities never)."""
    return (floats == np.floor(floats)) & (floats >= INT64_MIN_FLOAT) & (floats < INT64_MAX_FLOAT)


def _mixed_int_float_codes(
    int_values: np.ndarray,
    int_valid: np.ndarray,
    float_values: np.ndarray,
    float_valid: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared codes for an INT-vs-FLOAT key pair without precision loss.

    Python ``==`` (the seed semantics) compares int and float exactly, so
    ``2**53 + 1`` must NOT equal ``2.0**53``. Integral floats inside the
    int64 range are converted to exact int64 and share the int side's code
    space; every other float (fractional, non-finite, out of range) can
    never equal an int64 key and gets a private code.
    """
    ints = np.asarray(int_values, dtype=np.int64)
    floats = np.asarray(float_values, dtype=np.float64)
    convertible = float_valid & _integral(floats)
    mapped = np.where(convertible, floats, 0.0).astype(np.int64)
    combined = np.concatenate([np.where(int_valid, ints, 0), mapped])
    _, codes = np.unique(combined, return_inverse=True)
    codes = codes.astype(np.int64, copy=False)
    int_codes = codes[: ints.size]
    float_codes = codes[ints.size:].copy()
    non_convertible = np.nonzero(~convertible)[0]
    if non_convertible.size:
        base = int(codes.max(initial=-1)) + 1
        float_codes[non_convertible] = base + np.arange(non_convertible.size)
    return int_codes, float_codes


def exact_value_codes(ints: np.ndarray, floats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Codes for int64 and float64 values in one space, equal exactly when
    Python ``==`` holds between the values.

    An integral float inside the int64 range shares the code of its exact
    int64 (so ``2**53 + 1`` and ``2.0**53`` differ, and ``-0.0``, ``0.0``
    and ``0`` agree). The other floats (fractional, infinite, beyond int64)
    never equal an int64 and share codes among themselves by float64
    equality, except NaN: every NaN gets a code of its own.
    """
    ints = np.asarray(ints, dtype=np.int64)
    floats = np.asarray(floats, dtype=np.float64)
    convertible, nan = _integral(floats), np.isnan(floats)
    rest = ~(convertible | nan)
    rest_codes = _ranks(floats[rest])
    codes = _ranks(np.concatenate([ints, floats[convertible].astype(np.int64)]))
    float_codes = np.empty(floats.size, dtype=np.int64)
    float_codes[convertible] = codes[ints.size:]
    base = int(codes.max(initial=-1)) + 1
    rest_codes += base
    float_codes[rest] = rest_codes
    base = int(rest_codes.max(initial=base - 1)) + 1
    float_codes[nan] = base + np.arange(np.count_nonzero(nan))
    return codes[: ints.size], float_codes


def _ranks(values: np.ndarray) -> np.ndarray:
    """Each value's position among the distinct values (int64): equal
    values, equal ranks — the inverse of ``np.unique``, without the
    copies it makes on the way (half the peak memory, the same time)."""
    order = np.argsort(values)
    ordered = values[order]
    step = np.zeros(values.size, dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    del ordered
    np.cumsum(step, out=step)
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = step
    return ranks


def _string_view(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Key column as strings ``np.unique`` orders like ``str``, NULLs neutralized.

    Fixed-width ``<U`` strings drop trailing NULs (``'a\\x00'`` reads back
    ``'a'``), so a column holding such a key keeps its Python strings:
    slower to sort, but ``'a'`` and ``'a\\x00'`` stay apart as ``==`` keeps
    them. Every other column takes the ``<U`` view, whose order and codes
    are the same.
    """
    if values.dtype.kind == "O":
        if not bool(valid.all()):
            values = np.where(valid, values, "")
        strings = values.astype(str)
        if sum(map(len, values)) != int(np.char.str_len(strings).sum()):
            return values
        return strings
    return np.asarray(values, dtype=str)


def pair_column_codes(
    left_values: np.ndarray,
    left_valid: np.ndarray,
    left_dtype: DataType,
    right_values: np.ndarray,
    right_valid: np.ndarray,
    right_dtype: DataType,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared-space integer codes for one key column pair (-1 at NULLs)."""
    n_left = left_values.shape[0]
    left_numeric = left_dtype in _NUMERIC_KINDS
    right_numeric = right_dtype in _NUMERIC_KINDS
    if left_numeric == right_numeric:
        if left_numeric and left_dtype is not DataType.FLOAT and right_dtype is not DataType.FLOAT:
            # INT/BOOL on both sides: stay in exact int64 — a float64
            # round-trip would collapse integer keys above 2**53.
            view = _integer_view
        elif left_numeric and DataType.INT in (left_dtype, right_dtype):
            # INT vs FLOAT: exact mixed comparison (no float64 round-trip
            # of the int side).
            if left_dtype is DataType.INT:
                int_codes, float_codes = _mixed_int_float_codes(
                    left_values, left_valid, right_values, right_valid
                )
                codes = np.concatenate([int_codes, float_codes])
            else:
                int_codes, float_codes = _mixed_int_float_codes(
                    right_values, right_valid, left_values, left_valid
                )
                codes = np.concatenate([float_codes, int_codes])
            codes[~np.concatenate([left_valid, right_valid])] = -1
            return codes[:n_left], codes[n_left:]
        elif left_numeric:
            view = _numeric_view  # FLOAT/FLOAT or BOOL/FLOAT: float64 is exact
        else:
            view = _string_view
        combined = np.concatenate(
            [view(left_values, left_valid), view(right_values, right_valid)]
        )
        _, codes = np.unique(combined, return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
    else:
        # A numeric key never equals a string key: factorize each side in a
        # disjoint code range so no cross-side code collides.
        view_left = _numeric_view if left_numeric else _string_view
        view_right = _numeric_view if right_numeric else _string_view
        _, left_codes = np.unique(view_left(left_values, left_valid), return_inverse=True)
        _, right_codes = np.unique(view_right(right_values, right_valid), return_inverse=True)
        offset = int(left_codes.max(initial=-1)) + 1
        codes = np.concatenate(
            [left_codes.astype(np.int64), right_codes.astype(np.int64) + offset]
        )
    codes[~np.concatenate([left_valid, right_valid])] = -1
    return codes[:n_left], codes[n_left:]


def key_codes(
    left: Table, right: Table, pairs: Sequence[Tuple[str, str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Codes for (possibly composite) keys; -1 where any key part is NULL."""
    if not pairs:
        raise ValueError("key factorization needs at least one column pair")
    n_left = left.n_rows
    combined = None
    null_mask = None
    for left_column, right_column in pairs:
        l_codes, r_codes = pair_column_codes(
            left.column_values(left_column),
            left.column_valid(left_column),
            left.schema[left_column].dtype,
            right.column_values(right_column),
            right.column_valid(right_column),
            right.schema[right_column].dtype,
        )
        codes = np.concatenate([l_codes, r_codes])
        part_null = codes < 0
        if combined is None:
            combined = np.where(part_null, 0, codes)
            null_mask = part_null
        else:
            # Mix the next column in, then re-compact so values stay bounded
            # by (n_left + n_right)^2 — no overflow for any number of key
            # columns.
            radix = int(codes.max(initial=-1)) + 2
            mixed = combined * radix + np.where(part_null, 0, codes)
            _, combined = np.unique(mixed, return_inverse=True)
            combined = combined.astype(np.int64, copy=False)
            null_mask = null_mask | part_null
    combined = np.where(null_mask, -1, combined)
    return combined[:n_left], combined[n_left:]


__all__: List[str] = [
    "cumcount",
    "exact_value_codes",
    "key_codes",
    "pair_column_codes",
]
