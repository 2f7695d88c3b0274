"""NULL and duplicate-key parity: resolver and builder vs the seed implementation.

The Table I targets are built one way: ``KeyBasedResolver.resolve_index``
finds the row matches and ``integrate_tables`` turns them into the factors
``(D_k, M_k, I_k, R_k)``. Both must reproduce the row-at-a-time seed
semantics *row for row*: NULL keys never match (not even another NULL),
duplicate keys pair greedily 1:1 in row order, and an overlapping column
takes the base value, falling back to the other value where the base is
NULL. Compact reference implementations of the seed algorithms live below.
Every case checks the resolver's matches, both factors' indicators against
a row-at-a-time Table I row map, the materialized target against the
seed's emitted cells (NULL read as 0.0), and the whole build against
``tests/dense_reference.py``.
"""

import numpy as np
import pytest
from dense_reference import assert_two_source_matches_dense

from repro import telemetry
from repro.matrices.builder import integrate_tables
from repro.metadata.entity_resolution import KeyBasedResolver
from repro.metadata.mappings import ScenarioType
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import NULL, DataType, is_null


# -- reference (seed) implementations --------------------------------------------


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


def reference_row_map(n_left, n_right, matches, scenario):
    """Per target row, the (base row, other row) pair, -1 where absent (Table I)."""
    if scenario is ScenarioType.UNION:
        return [(i, -1) for i in range(n_left)] + [(-1, j) for j in range(n_right)]
    other_of = dict(matches)
    rows = []
    for i in range(n_left):
        j = other_of.get(i, -1)
        if j >= 0 or scenario is not ScenarioType.INNER_JOIN:
            rows.append((i, j))
    if scenario is ScenarioType.FULL_OUTER_JOIN:
        matched = set(other_of.values())
        rows.extend((-1, j) for j in range(n_right) if j not in matched)
    return rows


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
            row.append(value)
        rows.append(row)
    return rows


def numeric_part(table):
    """The columns a source provides to the numeric target."""
    return table.project([c.name for c in table.schema if c.dtype.is_numeric])


def assert_resolver_matches_seed(left, right, key_pairs):
    """``resolve_index`` equals the seed's greedy 1:1 matches; returns them."""
    left_rows, right_rows = KeyBasedResolver(key_pairs).resolve_index(left, right)
    matches = list(zip(left_rows.tolist(), right_rows.tolist()))
    assert matches == reference_resolve(left, right, key_pairs)
    return left_rows, right_rows


def assert_builder_matches_seed(left, right, key_pairs, scenario):
    """One Table I build on the resolver's matches against the seed references."""
    if scenario is ScenarioType.UNION:
        row_matches = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    else:
        row_matches = assert_resolver_matches_seed(left, right, key_pairs)
    target_columns = list(numeric_part(left).schema.names)
    target_columns += [c for c in numeric_part(right).schema.names if c not in target_columns]
    dataset = integrate_tables(left, right, [], row_matches, target_columns, scenario)
    rows = reference_row_map(
        left.n_rows, right.n_rows, zip(*(m.tolist() for m in row_matches)), scenario
    )
    base, other = dataset.factors
    assert base.indicator.compressed.tolist() == [i for i, _ in rows]
    assert other.indicator.compressed.tolist() == [j for _, j in rows]
    expected = [
        [0.0 if is_null(v) else float(v) for v in row]
        for row in reference_emit(numeric_part(left), numeric_part(right), rows, target_columns)
    ]
    assert dataset.materialize().tolist() == expected
    assert_two_source_matches_dense(dataset, left, right, [], row_matches, scenario)


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


INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

KEY_CASES = {
    "null_keys_both_sides": ([1, NULL, 2, NULL], [NULL, 2, NULL, 3]),
    "duplicate_left_keys": ([1, 1, 2, 1], [1, 2, 3]),
    "duplicate_right_keys": ([1, 2], [1, 1, 2, 1]),
    "duplicates_and_nulls": ([1, 1, NULL, 2, NULL, 1], [1, NULL, 1, 2, NULL, 2]),
    "disjoint": ([1, 2], [3, 4]),
    "all_null": ([NULL, NULL], [NULL]),
    "one_row_matched": ([7], [7]),
    "one_row_unmatched": ([7], [8]),
    "int64_limits": (
        [INT64_MAX, INT64_MIN, -INT64_MAX, 0],
        [-INT64_MAX, INT64_MAX, INT64_MAX - 1, INT64_MIN],
    ),
}

# Keys that a fixed-width numpy string view would collapse: trailing NULs.
NUL_LEFT_KEYS = ["a", "a\x00", "b", "a\x00\x00", NULL]
NUL_RIGHT_KEYS = ["a\x00", "a", "c", "a\x00\x00", "a\x00b"]


def _cross_dtype_tables():
    """INT 2 equals FLOAT 2.0 (Python == semantics of the seed)."""
    left = Table.from_dict("L", {"k": [1, 2], "v": [1.0, 2.0]})
    right = Table.from_dict("R", {"k": [2.0, 3.5], "w": [7.0, 8.0]})
    return left, right


def _large_int_tables():
    """Integer keys above 2**53 must not collapse through float64."""
    big = 2**53
    left = Table.from_dict("L", {"k": [big, big + 1], "v": [1.0, 2.0]})
    right = Table.from_dict("R", {"k": [big + 1, big + 2], "w": [7.0, 8.0]})
    return left, right


def _int_vs_float_tables():
    """INT 2**53+1 must not match FLOAT 2.0**53 (Python == is exact), while
    small integral floats still match their int twins."""
    big = 2**53
    left = Table.from_dict("L", {"k": [big + 1, 2], "v": [1.0, 2.0]})
    right = Table.from_dict(
        "R", {"k": [float(big), 2.0, 2.5], "w": [7.0, 8.0, 9.0]},
        k={"dtype": DataType.FLOAT},
    )
    return left, right


def _int64_limit_vs_float_tables():
    """FLOAT ±2.0**63 equals INT -2**63 only: 2.0**63 is past the int64 range,
    and INT ±(2**63-1) rounds to ±2.0**63 in float64 but is not equal to it."""
    left = Table.from_dict(
        "L", {"k": [INT64_MAX, INT64_MIN, -INT64_MAX, 3], "v": [1.0, 2.0, 3.0, 4.0]}
    )
    right = Table.from_dict(
        "R", {"k": [2.0**63, -(2.0**63), 3.0], "w": [7.0, 8.0, 9.0]},
        k={"dtype": DataType.FLOAT},
    )
    return left, right


def _string_vs_number_tables():
    left = Table.from_dict("L", {"k": ["2", "x"], "v": [1.0, 2.0]})
    right = Table.from_dict("R", {"k": [2, 3], "w": [7.0, 8.0]})
    return left, right


def _string_key_tables():
    return make_tables(["a", NULL, "b", "a"], ["a", "c", NULL, "a"], key_dtype=DataType.STRING)


def _trailing_nul_tables():
    return make_tables(NUL_LEFT_KEYS, NUL_RIGHT_KEYS, key_dtype=DataType.STRING)


def _composite_key_tables():
    left = Table.from_dict("L", {"a": [1, 1, NULL, 2], "b": ["x", NULL, "x", "y"],
                                 "v": [1.0, 2.0, 3.0, 4.0]})
    right = Table.from_dict("R", {"a": [1, 1, 2, NULL], "b": ["x", "x", "y", "y"],
                                  "w": [5.0, 6.0, 7.0, 8.0]})
    return left, right


def _overlapping_column_tables():
    """A NULL base value falls back to the other value, as in the seed."""
    left = Table.from_dict("L", {"k": [1, 2, 3], "shared": [NULL, 20.0, NULL]})
    right = Table.from_dict("R", {"k": [1, 2, 4], "shared": [5.0, 99.0, 6.0]})
    return left, right


def _all_null_base_column_tables():
    """A shared column that is NULL in every base row takes the other values."""
    left = Table.from_dict("L", {"k": [1, 2, 3], "shared": [NULL, NULL, NULL],
                                 "v": [1.0, 2.0, 3.0]})
    right = Table.from_dict("R", {"k": [3, 1, 5], "shared": [30.0, NULL, 50.0]})
    return left, right


#: The join-only inputs: (tables, key pairs, the resolver's expected matches).
EXTRA_CASES = {
    "cross_dtype": (_cross_dtype_tables, [("k", "k")], [(1, 0)]),
    "large_int64": (_large_int_tables, [("k", "k")], [(1, 0)]),
    "int_vs_float_exact": (_int_vs_float_tables, [("k", "k")], [(1, 1)]),
    "int64_limit_vs_float": (_int64_limit_vs_float_tables, [("k", "k")], [(1, 1), (3, 2)]),
    "string_never_equals_number": (_string_vs_number_tables, [("k", "k")], []),
    "string_keys_with_nulls": (_string_key_tables, [("k", "k")], [(0, 0), (3, 3)]),
    "trailing_nuls": (_trailing_nul_tables, [("k", "k")], [(0, 1), (1, 0), (3, 3)]),
    "composite_partial_nulls": (_composite_key_tables, [("a", "a"), ("b", "b")], [(0, 0), (3, 2)]),
    "overlapping_column": (_overlapping_column_tables, [("k", "k")], [(0, 0), (1, 1)]),
    "all_null_base_column": (_all_null_base_column_tables, [("k", "k")], [(0, 1), (2, 0)]),
}

SCENARIOS = pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)


class TestResolverNullParity:
    @pytest.mark.parametrize("case", list(KEY_CASES))
    def test_greedy_one_to_one_matches_seed(self, case):
        left, right = make_tables(*KEY_CASES[case])
        assert_resolver_matches_seed(left, right, [("k", "k")])

    @pytest.mark.parametrize("case", list(EXTRA_CASES))
    def test_key_equality_matches_seed(self, case):
        tables, key_pairs, expected = EXTRA_CASES[case]
        left, right = tables()
        left_rows, right_rows = assert_resolver_matches_seed(left, right, key_pairs)
        assert list(zip(left_rows.tolist(), right_rows.tolist())) == expected

    def test_resolve_index_equals_resolve(self):
        left, right = make_tables(*KEY_CASES["duplicates_and_nulls"])
        resolver = KeyBasedResolver([("k", "k")])
        left_rows, right_rows = resolver.resolve_index(left, right)
        assert [(m.left_row, m.right_row) for m in resolver.resolve(left, right)] == list(
            zip(left_rows.tolist(), right_rows.tolist())
        )

    def test_no_span_recorded_while_disabled(self):
        left, right = make_tables(*KEY_CASES["duplicates_and_nulls"])
        session = telemetry.enable(sample_memory=False)
        telemetry.disable()
        KeyBasedResolver([("k", "k")]).resolve_index(left, right)
        assert session.tracer.records == []

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
        for scenario in ScenarioType:
            assert_builder_matches_seed(left, right, [("k", "k")], scenario)


class TestBuilderNullParity:
    @SCENARIOS
    @pytest.mark.parametrize("case", list(KEY_CASES))
    def test_table_one_target_matches_seed(self, case, scenario):
        left, right = make_tables(*KEY_CASES[case])
        assert_builder_matches_seed(left, right, [("k", "k")], scenario)

    @SCENARIOS
    @pytest.mark.parametrize("case", list(EXTRA_CASES))
    def test_key_equality_target_matches_seed(self, case, scenario):
        tables, key_pairs, _ = EXTRA_CASES[case]
        assert_builder_matches_seed(*tables(), key_pairs, scenario)

    def test_overlapping_column_null_fallback(self):
        left, right = _overlapping_column_tables()
        row_matches = KeyBasedResolver([("k", "k")]).resolve_index(left, right)
        dataset = integrate_tables(
            left, right, [], row_matches, ["k", "shared"], ScenarioType.INNER_JOIN
        )
        assert dataset.materialize()[:, 1].tolist() == [5.0, 20.0]
