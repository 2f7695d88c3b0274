"""Tests for repro.metadata.schema_matching."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.exceptions import MatchingError
from repro.metadata.entity_resolution import KeyBasedResolver
from repro.metadata.schema_matching import (
    ColumnMatch,
    HybridMatcher,
    InstanceBasedMatcher,
    NameBasedMatcher,
    match_schemas,
)
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture
def hospital_pair(hospital):
    return hospital


@pytest.fixture
def wide_pair():
    """42 x 41 numeric columns, the shape of the ``csv_facade_train`` tables."""
    left = Table.from_dict("L", {f"x{i}": [i, i + 1, i + 2] for i in range(42)})
    right = Table.from_dict("R", {f"y{i}": [i, i + 2, i + 4] for i in range(41)})
    return left, right


@pytest.fixture
def distinct_values_calls(monkeypatch):
    """The columns ``Table.distinct_values`` was asked for, in call order."""
    calls = []
    scan = Table.distinct_values

    def counted(table, column):
        calls.append((table.name, column))
        return scan(table, column)

    monkeypatch.setattr(Table, "distinct_values", counted)
    return calls


class TestNameBasedMatcher:
    def test_exact_names_match(self, hospital_pair):
        s1, s2 = hospital_pair
        matches = NameBasedMatcher(threshold=0.9).match(s1, s2)
        matched_pairs = {(m.left_column, m.right_column) for m in matches}
        assert {("m", "m"), ("n", "n"), ("a", "a")} <= matched_pairs

    def test_similar_names_score_high(self):
        left = Table.from_dict("L", {"heart_rate": [60, 70]})
        right = Table.from_dict("R", {"heartrate": [61, 71]})
        score = NameBasedMatcher().score(left, "heart_rate", right, "heartrate")
        assert score > 0.8

    def test_one_to_one_extraction(self):
        left = Table.from_dict("L", {"aa": [1], "ab": [2]})
        right = Table.from_dict("R", {"aa": [1]})
        matches = NameBasedMatcher(threshold=0.5).match(left, right)
        assert len(matches) == 1
        assert matches[0].left_column == "aa"

    def test_invalid_threshold(self):
        with pytest.raises(MatchingError):
            NameBasedMatcher(threshold=1.5)

    def test_never_scans_values(self, wide_pair, distinct_values_calls):
        NameBasedMatcher().match(*wide_pair)
        assert distinct_values_calls == []


class TestInstanceBasedMatcher:
    def test_value_overlap_matches_despite_names(self):
        left = Table.from_dict("L", {"patient": ["Jane", "Sam", "Ruby"]})
        right = Table.from_dict("R", {"person_name": ["Jane", "Sam", "Alice"]})
        matches = InstanceBasedMatcher(threshold=0.5).match(left, right)
        assert matches and matches[0].right_column == "person_name"

    def test_type_mismatch_scores_zero(self):
        left = Table.from_dict("L", {"age": [20, 30]})
        right = Table.from_dict("R", {"name": ["20", "x"]})
        assert InstanceBasedMatcher().score(left, "age", right, "name") == 0.0

    def test_numeric_range_overlap(self):
        left = Table.from_dict("L", {"age": [20, 30, 40]})
        right = Table.from_dict("R", {"years": [25, 35, 45]})
        assert InstanceBasedMatcher().score(left, "age", right, "years") > 0.3

    def test_empty_column_scores_zero(self):
        left = Table.from_dict("L", {"a": [None, None]})
        right = Table.from_dict("R", {"a": [1, 2]})
        assert InstanceBasedMatcher().score(left, "a", right, "a") == 0.0

    @pytest.mark.parametrize("sample_size", [0, -1])
    def test_sample_size_must_be_positive(self, sample_size):
        with pytest.raises(MatchingError):
            InstanceBasedMatcher(sample_size=sample_size)

    def test_string_sample_ignores_row_order(self):
        values = [f"v{i}" for i in range(3000)]
        shuffled = random.Random(0).sample(values, len(values))
        left = Table.from_dict("L", {"code": values})
        right = Table.from_dict("R", {"code": shuffled})
        assert InstanceBasedMatcher().score(left, "code", right, "code") == 1.0

    def test_string_sample_ignores_the_hash_seed(self):
        program = (
            "from repro.metadata.schema_matching import InstanceBasedMatcher\n"
            "from repro.relational.table import Table\n"
            "left = Table.from_dict('L', {'c': [f'v{i}' for i in range(3000)]})\n"
            "right = Table.from_dict('R', {'c': [f'v{i}' for i in range(1500, 4500)]})\n"
            "print(repr(InstanceBasedMatcher().score(left, 'c', right, 'c')))\n"
        )
        source_root = str(Path(repro.__file__).resolve().parents[1])
        search_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        scores = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=search_path)
            done = subprocess.run(
                [sys.executable, "-c", program],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            scores.append(float(done.stdout))
        assert scores[0] == scores[1]
        # half of either column is shared, and the coordinated samples say so
        assert 0.4 < scores[0] < 0.6

    def test_valid_nan_is_left_out_of_the_profile(self):
        values = np.array([np.nan, 1.0, 2.5, np.nan, 4.0, 8.0, np.nan, 16.0, 3.0, np.nan, 0.5])
        left = Table._from_storage(
            "L", Schema([Column("x", DataType.FLOAT)]),
            {"x": values}, {"x": np.ones(values.size, dtype=bool)},
        )
        right = Table.from_dict("R", {"y": [0.5, 1.0, 2.5, 32.0]})
        matcher = InstanceBasedMatcher(sample_size=5)
        profiles = [matcher.profile(left, "x") for _ in range(30)]
        assert all(profile == profiles[0] for profile in profiles)
        sample = profiles[0].values
        assert len(sample) == 5 and not any(np.isnan(list(sample)))
        assert (profiles[0].lo, profiles[0].hi) == (min(sample), max(sample))
        score = matcher.score(left, "x", right, "y")
        assert score == matcher.score_matrix(left, right)[("x", "y")]

    @pytest.mark.xfail(
        strict=True,
        reason="a numeric sample is the first sample_size values in set order: "
        "0..999 against 1500..2499 share no value and their ranges do not meet",
    )
    def test_numeric_sample_estimates_the_overlap(self):
        left = Table.from_dict("L", {"c": list(range(3000))})
        right = Table.from_dict("R", {"c": list(range(1500, 4500))})
        # half of either column is shared
        assert 0.4 < InstanceBasedMatcher().score(left, "c", right, "c") < 0.6


class TestHybridMatcher:
    def test_combines_signals(self, hospital_pair):
        s1, s2 = hospital_pair
        matches = match_schemas(s1, s2)
        matched = {(m.left_column, m.right_column) for m in matches}
        assert ("n", "n") in matched
        assert ("a", "a") in matched

    def test_weights_must_be_positive(self):
        with pytest.raises(MatchingError):
            HybridMatcher(name_weight=0.0, instance_weight=0.0)

    def test_weights_must_not_be_negative(self):
        with pytest.raises(MatchingError):
            HybridMatcher(name_weight=-1, instance_weight=2)

    def test_scans_each_column_once(self, wide_pair, distinct_values_calls):
        left, right = wide_pair
        HybridMatcher().match(left, right)
        columns = [("L", c) for c in left.schema.names] + [("R", c) for c in right.schema.names]
        assert len(columns) == 83
        assert distinct_values_calls == columns

    def test_score_matrix_covers_all_pairs(self, hospital_pair):
        s1, s2 = hospital_pair
        scores = HybridMatcher().score_matrix(s1, s2)
        assert len(scores) == len(s1.schema) * len(s2.schema)

    def test_reversed_match(self):
        match = ColumnMatch("L", "a", "R", "b", 0.9)
        reverse = match.reversed()
        assert reverse.left_table == "R" and reverse.right_column == "a"
        assert reverse.score == match.score


class TestSpans:
    def test_matching_and_resolution_emit_one_span_each(self):
        left = Table.from_dict("L", {"id": [1, 2, 3], "age": [20, 30, 40]}, id={"is_key": True})
        right = Table.from_dict("R", {"id": [2, 3, 4]}, id={"is_key": True})
        with telemetry.collect(sample_memory=False) as session:
            matches = HybridMatcher().match(left, right)
            KeyBasedResolver().resolve_index(left, right)
        assert matches
        assert [(record.name, record.attrs) for record in session.tracer.records] == [
            ("match.schema",
             {"left_columns": 2, "right_columns": 1, "pairs": 2, "matches": len(matches)}),
            ("resolve.key", {"left_rows": 3, "right_rows": 3, "matches": 2}),
        ]
