"""Tests for repro.relational.factorize.exact_value_codes."""

import numpy as np

from repro.relational.factorize import exact_value_codes


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
