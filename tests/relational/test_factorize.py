"""Tests for repro.relational.factorize key coding."""

import numpy as np

from repro.relational.factorize import exact_value_codes, key_codes
from repro.relational.table import Table


def test_codes_are_equal_exactly_when_python_equality_holds():
    ints = [0, 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
    floats = [0.0, -0.0, 1.5, 2.0**53, 2.0**53 + 2, 2.0**63, -(2.0**63), float("inf"),
              float("-inf"), float("inf"), 1.5, float("nan"), float("nan")]
    int_codes, float_codes = exact_value_codes(np.array(ints), np.array(floats))
    values = ints + floats
    codes = np.concatenate([int_codes, float_codes]).tolist()
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (codes[i] == codes[j]) == (a == b or (i == j and a != a)), (a, b)


def test_empty_inputs():
    int_codes, float_codes = exact_value_codes(np.empty(0, np.int64), np.empty(0))
    assert int_codes.size == 0 and float_codes.size == 0


def _string_key_codes(left_keys, right_keys):
    left = Table.from_dict("L", {"k": left_keys})
    right = Table.from_dict("R", {"k": right_keys})
    left_codes, right_codes = key_codes(left, right, [("k", "k")])
    return left_codes.tolist(), right_codes.tolist()


def test_string_keys_differing_in_trailing_nuls_get_distinct_codes():
    assert _string_key_codes(["a", "b"], ["a\x00", "c"]) == ([0, 2], [1, 3])
    keys = ["", "\x00", "a", "a\x00", "a\x00\x00", "a\x00b", "b"]
    left_codes, right_codes = _string_key_codes(keys, list(reversed(keys)))
    # Codes follow Python string order, and are equal exactly when == holds.
    assert left_codes == list(range(len(keys)))
    assert right_codes == list(reversed(range(len(keys))))


def test_nul_free_string_keys_keep_their_codes():
    assert _string_key_codes(["a", "b"], ["a", "c"]) == ([0, 1], [0, 2])
    assert _string_key_codes(["x\x00y", "x"], ["x", "y"]) == ([1, 0], [0, 2])
