"""NULL and duplicate-key parity: vectorized joins vs the seed implementation.

The vectorized hash joins and the key-based resolver must reproduce the
row-at-a-time seed semantics *row for row*: NULL keys never match (not even
another NULL), duplicate keys expand combinatorially in deterministic order,
and overlapping columns prefer the left value with NULL fallback. A compact
reference implementation of the seed algorithms lives below; every case is
checked both order-sensitively (provenance lists) and via an
order-insensitive canonical form (sorted row multisets), so a future
reordering optimization would still be caught only when it changes the
*content* of the result.
"""

import numpy as np
import pytest

from repro.metadata.entity_resolution import KeyBasedResolver
from repro.relational.joins import full_outer_join, inner_join, left_join
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import NULL, DataType, is_null


# -- reference (seed) implementations --------------------------------------------


def _key(table, row, keys):
    values = tuple(table.cell(row, k) for k in keys)
    if any(is_null(v) for v in values):
        return None  # NULL keys never match anything
    return values


def reference_join(left, right, on, *, keep_left, keep_right):
    index = {}
    for j in range(right.n_rows):
        key = _key(right, j, on)
        if key is not None:
            index.setdefault(key, []).append(j)
    pairs = []
    matched = set()
    for i in range(left.n_rows):
        key = _key(left, i, on)
        hits = index.get(key, []) if key is not None else []
        if hits:
            for j in hits:
                pairs.append((i, j))
                matched.add(j)
        elif keep_left:
            pairs.append((i, -1))
    if keep_right:
        for j in range(right.n_rows):
            if j not in matched:
                pairs.append((-1, j))
    return pairs


def reference_emit(left, right, pairs, target_columns):
    rows = []
    for i, j in pairs:
        row = []
        for name in target_columns:
            value = NULL
            if name in left.schema and i >= 0:
                value = left.cell(i, name)
            if is_null(value) and name in right.schema and j >= 0:
                value = right.cell(j, name)
            row.append("∅" if is_null(value) else value)
        rows.append(tuple(row))
    return rows


def reference_resolve(left, right, pairs):
    index = {}
    for j in range(right.n_rows):
        key = tuple(right.cell(j, rc) for _, rc in pairs)
        if any(is_null(v) for v in key):
            continue
        index.setdefault(key, []).append(j)
    matches, used = [], set()
    for i in range(left.n_rows):
        key = tuple(left.cell(i, lc) for lc, _ in pairs)
        if any(is_null(v) for v in key):
            continue
        for j in index.get(key, []):
            if j in used:
                continue
            matches.append((i, j))
            used.add(j)
            break
    return matches


def canonical(rows):
    """Order-insensitive canonical form: sorted tuple-of-stringified-rows."""
    return sorted(tuple(str(v) for v in row) for row in rows)


def result_rows(result):
    out = []
    for row in result.table.rows():
        out.append(tuple("∅" if is_null(v) else v for v in row))
    return out


JOINS = {
    "inner": (inner_join, dict(keep_left=False, keep_right=False)),
    "left": (left_join, dict(keep_left=True, keep_right=False)),
    "full_outer": (full_outer_join, dict(keep_left=True, keep_right=True)),
}


def make_tables(left_keys, right_keys, *, key_dtype=DataType.INT):
    left = Table(
        "L",
        Schema([Column("k", key_dtype, is_key=True), Column("lv", DataType.FLOAT)]),
        {"k": list(left_keys), "lv": [float(10 + i) for i in range(len(left_keys))]},
    )
    right = Table(
        "R",
        Schema([Column("k", key_dtype, is_key=True), Column("rv", DataType.FLOAT)]),
        {"k": list(right_keys), "rv": [float(100 + i) for i in range(len(right_keys))]},
    )
    return left, right


KEY_CASES = {
    "null_keys_both_sides": ([1, NULL, 2, NULL], [NULL, 2, NULL, 3]),
    "duplicate_left_keys": ([1, 1, 2, 1], [1, 2, 3]),
    "duplicate_right_keys": ([1, 2], [1, 1, 2, 1]),
    "duplicates_and_nulls": ([1, 1, NULL, 2, NULL, 1], [1, NULL, 1, 2, NULL, 2]),
    "disjoint": ([1, 2], [3, 4]),
    "all_null": ([NULL, NULL], [NULL]),
}

# Keys that a fixed-width numpy string view would collapse: trailing NULs.
NUL_LEFT_KEYS = ["a", "a\x00", "b", "a\x00\x00", NULL]
NUL_RIGHT_KEYS = ["a\x00", "a", "c", "a\x00\x00", "a\x00b"]


class TestJoinNullParity:
    @pytest.mark.parametrize("flavour", list(JOINS))
    @pytest.mark.parametrize("case", list(KEY_CASES))
    def test_matches_seed_row_for_row(self, flavour, case):
        operator, flags = JOINS[flavour]
        left, right = make_tables(*KEY_CASES[case])
        result = operator(left, right, on=["k"])
        pairs = reference_join(left, right, ["k"], **flags)
        # Order-sensitive: provenance must match the seed iteration order.
        assert list(zip(result.left_rows, result.right_rows)) == pairs
        # Content: emitted rows must match cell for cell.
        expected = reference_emit(left, right, pairs, result.table.schema.names)
        got = result_rows(result)
        assert [tuple(str(v) for v in r) for r in got] == [
            tuple(str(v) for v in r) for r in expected
        ]
        # Order-insensitive canonical comparison (robust to future reordering).
        assert canonical(got) == canonical(expected)

    @pytest.mark.parametrize("flavour", list(JOINS))
    def test_string_keys_with_nulls(self, flavour):
        operator, flags = JOINS[flavour]
        left, right = make_tables(
            ["a", NULL, "b", "a"], ["a", "c", NULL, "a"], key_dtype=DataType.STRING
        )
        result = operator(left, right, on=["k"])
        pairs = reference_join(left, right, ["k"], **flags)
        assert list(zip(result.left_rows, result.right_rows)) == pairs
        expected = reference_emit(left, right, pairs, result.table.schema.names)
        assert canonical(result_rows(result)) == canonical(expected)

    @pytest.mark.parametrize("flavour", list(JOINS))
    def test_string_keys_differing_in_trailing_nuls(self, flavour):
        """'a' and 'a\\x00' are different keys, as Python == says."""
        operator, flags = JOINS[flavour]
        left, right = make_tables(NUL_LEFT_KEYS, NUL_RIGHT_KEYS, key_dtype=DataType.STRING)
        result = operator(left, right, on=["k"])
        pairs = reference_join(left, right, ["k"], **flags)
        assert list(zip(result.left_rows, result.right_rows)) == pairs
        expected = reference_emit(left, right, pairs, result.table.schema.names)
        assert canonical(result_rows(result)) == canonical(expected)

    def test_composite_keys_with_partial_nulls(self):
        left = Table.from_dict("L", {"a": [1, 1, NULL, 2], "b": ["x", NULL, "x", "y"],
                                     "v": [1.0, 2.0, 3.0, 4.0]})
        right = Table.from_dict("R", {"a": [1, 1, 2, NULL], "b": ["x", "x", "y", "y"],
                                      "w": [5.0, 6.0, 7.0, 8.0]})
        result = full_outer_join(left, right, on=["a", "b"])
        pairs = reference_join(left, right, ["a", "b"], keep_left=True, keep_right=True)
        assert list(zip(result.left_rows, result.right_rows)) == pairs
        expected = reference_emit(left, right, pairs, result.table.schema.names)
        assert canonical(result_rows(result)) == canonical(expected)

    def test_overlapping_column_null_fallback(self):
        """A NULL left value falls back to the right value, as in the seed."""
        left = Table.from_dict("L", {"k": [1, 2], "shared": [NULL, 20.0]})
        right = Table.from_dict("R", {"k": [1, 2], "shared": [5.0, 99.0]})
        result = inner_join(left, right, on=["k"])
        assert result.table.cell(0, "shared") == pytest.approx(5.0)
        assert result.table.cell(1, "shared") == pytest.approx(20.0)

    def test_numeric_cross_dtype_keys_match(self):
        """INT 2 must join FLOAT 2.0 (Python == semantics of the seed)."""
        left = Table.from_dict("L", {"k": [1, 2], "v": [1.0, 2.0]})
        right = Table.from_dict("R", {"k": [2.0, 3.5], "w": [7.0, 8.0]})
        result = inner_join(left, right, on=["k"])
        assert list(zip(result.left_rows, result.right_rows)) == [(1, 0)]

    def test_large_int64_keys_join_exactly(self):
        """Integer keys above 2**53 must not collapse through float64."""
        big = 2**53
        left = Table.from_dict("L", {"k": [big, big + 1], "v": [1.0, 2.0]})
        right = Table.from_dict("R", {"k": [big + 1, big + 2], "w": [7.0, 8.0]})
        result = inner_join(left, right, on=["k"])
        assert list(zip(result.left_rows, result.right_rows)) == [(1, 0)]
        resolver = KeyBasedResolver([("k", "k")])
        assert [(m.left_row, m.right_row) for m in resolver.resolve(left, right)] == [(1, 0)]

    def test_int_vs_float_keys_compare_exactly(self):
        """INT 2**53+1 must not match FLOAT 2.0**53 (Python == is exact),
        while small integral floats still match their int twins."""
        big = 2**53
        left = Table.from_dict("L", {"k": [big + 1, 2], "v": [1.0, 2.0]})
        right = Table.from_dict(
            "R", {"k": [float(big), 2.0, 2.5], "w": [7.0, 8.0, 9.0]},
            k={"dtype": DataType.FLOAT},
        )
        result = inner_join(left, right, on=["k"])
        assert list(zip(result.left_rows, result.right_rows)) == [(1, 1)]

    def test_int_target_column_merge_is_exact(self):
        """Overlapping INT/FLOAT columns must not round ints through float64."""
        big = 2**53
        left = Table.from_dict("L", {"k": [1, 2], "v": [big + 1, big + 3]})
        right = Table.from_dict(
            "R", {"k": [1, 2], "v": [5.0, 6.0]}, v={"dtype": DataType.FLOAT}
        )
        result = inner_join(left, right, on=["k"])
        assert result.table.column("v") == [big + 1, big + 3]

    def test_string_never_matches_number(self):
        left = Table.from_dict("L", {"k": ["2", "x"], "v": [1.0, 2.0]})
        right = Table.from_dict("R", {"k": [2, 3], "w": [7.0, 8.0]})
        result = inner_join(left, right, on=["k"])
        assert result.table.n_rows == 0


class TestResolverNullParity:
    @pytest.mark.parametrize("case", list(KEY_CASES))
    def test_greedy_one_to_one_matches_seed(self, case):
        left, right = make_tables(*KEY_CASES[case])
        resolver = KeyBasedResolver([("k", "k")])
        got = [(m.left_row, m.right_row) for m in resolver.resolve(left, right)]
        assert got == reference_resolve(left, right, [("k", "k")])

    def test_string_keys_differing_in_trailing_nuls(self):
        left, right = make_tables(NUL_LEFT_KEYS, NUL_RIGHT_KEYS, key_dtype=DataType.STRING)
        resolver = KeyBasedResolver([("k", "k")])
        got = [(m.left_row, m.right_row) for m in resolver.resolve(left, right)]
        assert got == reference_resolve(left, right, [("k", "k")])
        assert got == [(0, 1), (1, 0), (3, 3)]

    def test_resolve_index_equals_resolve(self):
        left, right = make_tables(*KEY_CASES["duplicates_and_nulls"])
        resolver = KeyBasedResolver([("k", "k")])
        left_rows, right_rows = resolver.resolve_index(left, right)
        assert [(m.left_row, m.right_row) for m in resolver.resolve(left, right)] == list(
            zip(left_rows.tolist(), right_rows.tolist())
        )

    def test_large_randomized_parity(self):
        rng = np.random.default_rng(42)
        n_left, n_right = 500, 400
        left_keys = [
            NULL if rng.random() < 0.15 else int(rng.integers(0, 80))
            for _ in range(n_left)
        ]
        right_keys = [
            NULL if rng.random() < 0.15 else int(rng.integers(0, 80))
            for _ in range(n_right)
        ]
        left, right = make_tables(left_keys, right_keys)
        resolver = KeyBasedResolver([("k", "k")])
        got = [(m.left_row, m.right_row) for m in resolver.resolve(left, right)]
        assert got == reference_resolve(left, right, [("k", "k")])
        for flavour, (operator, flags) in JOINS.items():
            result = operator(left, right, on=["k"])
            pairs = reference_join(left, right, ["k"], **flags)
            assert list(zip(result.left_rows, result.right_rows)) == pairs, flavour
            expected = reference_emit(left, right, pairs, result.table.schema.names)
            assert canonical(result_rows(result)) == canonical(expected), flavour
