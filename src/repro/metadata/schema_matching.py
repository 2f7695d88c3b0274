"""Schema matching: discover column correspondences between tables.

The output — a list of :class:`ColumnMatch` — is the paper's "column
relationships from schema matching" (§II-A) and feeds directly into the
mapping matrices of §III-A.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import telemetry as _telemetry
from repro.exceptions import MatchingError
from repro.metadata.similarity import (
    jaro_winkler_similarity,
    levenshtein_similarity,
    ngram_jaccard_similarity,
    token_sort_similarity,
)
from repro.relational.table import Table
from repro.relational.types import DataType


@dataclass(frozen=True)
class ColumnMatch:
    """A correspondence between one column of each of two tables."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str
    score: float

    def reversed(self) -> "ColumnMatch":
        return ColumnMatch(
            self.right_table, self.right_column, self.left_table, self.left_column, self.score
        )


@dataclass(frozen=True)
class ColumnProfile:
    """What the matchers read of one column, gathered in one pass over it.

    ``name`` is lower-cased. The remaining fields are the instance signals
    and keep their defaults in the profile of a matcher that never looks at
    values: the numeric flag, the sample of distinct values, and — for a
    non-empty numeric sample — its bounds.
    """

    name: str
    is_numeric: bool = False
    values: FrozenSet = frozenset()
    lo: Optional[float] = None
    hi: Optional[float] = None


class SchemaMatcher:
    """Base class for schema matchers.

    Subclasses implement :meth:`score_profiles` for two column profiles (and
    :meth:`profile` when they read more of a column than its name); the base
    class profiles each column once per call and provides stable-greedy 1:1
    match extraction over the full score matrix.
    """

    def __init__(self, threshold: float = 0.6):
        if not 0.0 <= threshold <= 1.0:
            raise MatchingError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold

    def profile(self, table: Table, column: str) -> ColumnProfile:
        """What this matcher reads of ``column``; the name alone by default."""
        return ColumnProfile(column.lower())

    def score_profiles(self, a: ColumnProfile, b: ColumnProfile) -> float:
        """Score a column pair from the profiles this matcher built of them."""
        raise NotImplementedError

    def score(self, left: Table, left_column: str, right: Table, right_column: str) -> float:
        """Score one column pair; :meth:`score_matrix` profiles a column once for all its pairs."""
        return self.score_profiles(
            self.profile(left, left_column), self.profile(right, right_column)
        )

    def score_matrix(self, left: Table, right: Table) -> Dict[Tuple[str, str], float]:
        """Score every column pair of the two tables."""
        left_profiles = [(c, self.profile(left, c)) for c in left.schema.names]
        right_profiles = [(c, self.profile(right, c)) for c in right.schema.names]
        return {
            (left_column, right_column): self.score_profiles(a, b)
            for left_column, a in left_profiles
            for right_column, b in right_profiles
        }

    def match(self, left: Table, right: Table) -> List[ColumnMatch]:
        """Extract 1:1 matches greedily by descending score above threshold."""
        n_left, n_right = len(left.schema), len(right.schema)
        with _telemetry.span(
            "match.schema", left_columns=n_left, right_columns=n_right, pairs=n_left * n_right
        ) as span:
            scores = self.score_matrix(left, right)
            ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
            used_left: set = set()
            used_right: set = set()
            matches: List[ColumnMatch] = []
            for (left_column, right_column), score in ranked:
                if score < self.threshold:
                    break
                if left_column in used_left or right_column in used_right:
                    continue
                used_left.add(left_column)
                used_right.add(right_column)
                matches.append(
                    ColumnMatch(left.name, left_column, right.name, right_column, score)
                )
            span.set(matches=len(matches))
        return matches


class NameBasedMatcher(SchemaMatcher):
    """Match columns by name similarity.

    Combines Levenshtein, Jaro-Winkler, trigram-Jaccard and token-sort
    similarity; the maximum of the four is used so that each measure's
    strength (typos, prefixes, re-ordered words) is captured.
    """

    def score_profiles(self, a: ColumnProfile, b: ColumnProfile) -> float:
        if a.name == b.name:
            return 1.0
        return max(
            levenshtein_similarity(a.name, b.name),
            jaro_winkler_similarity(a.name, b.name),
            ngram_jaccard_similarity(a.name, b.name),
            token_sort_similarity(a.name, b.name),
        )


class InstanceBasedMatcher(SchemaMatcher):
    """Match columns by the overlap of their value sets.

    Columns of different data types never match; numeric columns are also
    compared through range overlap so e.g. two age columns with few shared
    exact values still score well. At most ``sample_size`` distinct values
    of a column are compared.
    """

    def __init__(self, threshold: float = 0.5, sample_size: int = 1000):
        super().__init__(threshold)
        if sample_size < 1:
            raise MatchingError(f"sample_size must be at least 1, got {sample_size}")
        self.sample_size = sample_size

    def profile(self, table: Table, column: str) -> ColumnProfile:
        dtype = table.schema[column].dtype
        distinct = table.distinct_values(column)
        if dtype is DataType.STRING and len(distinct) > self.sample_size:
            # Set order follows PYTHONHASHSEED for strings. Keeping the values
            # with the smallest checksum is the same in every process, and a
            # value is in or out of the samples of both tables together, so the
            # overlap of two samples estimates the overlap of the columns.
            sample = heapq.nsmallest(
                self.sample_size, distinct, key=lambda v: (zlib.crc32(v.encode("utf-8")), v)
            )
        else:
            sample = list(distinct)[: self.sample_size]
        lo, hi = (min(sample), max(sample)) if dtype.is_numeric and sample else (None, None)
        return ColumnProfile(column.lower(), dtype.is_numeric, frozenset(sample), lo, hi)

    def score_profiles(self, a: ColumnProfile, b: ColumnProfile) -> float:
        if a.is_numeric != b.is_numeric:
            return 0.0
        if not a.values or not b.values:
            return 0.0
        # similarity.value_overlap without its copy of either set
        overlap = len(a.values & b.values) / min(len(a.values), len(b.values))
        if a.is_numeric:
            overlap = max(overlap, _range_overlap(a, b))
        return overlap


def _range_overlap(a: ColumnProfile, b: ColumnProfile) -> float:
    intersection = min(a.hi, b.hi) - max(a.lo, b.lo)
    if intersection <= 0:
        return 0.0
    union = max(a.hi, b.hi) - min(a.lo, b.lo)
    if union <= 0:
        return 1.0
    return intersection / union


class HybridMatcher(SchemaMatcher):
    """Weighted combination of name-based and instance-based matching."""

    def __init__(
        self,
        threshold: float = 0.6,
        name_weight: float = 0.6,
        instance_weight: float = 0.4,
    ):
        super().__init__(threshold)
        if name_weight < 0 or instance_weight < 0:
            raise MatchingError(
                f"weights must not be negative, got {name_weight} and {instance_weight}"
            )
        total = name_weight + instance_weight
        if total <= 0:
            raise MatchingError("weights must sum to a positive value")
        self.name_weight = name_weight / total
        self.instance_weight = instance_weight / total
        self._name_matcher = NameBasedMatcher(threshold=0.0)
        self._instance_matcher = InstanceBasedMatcher(threshold=0.0)

    def profile(self, table: Table, column: str) -> ColumnProfile:
        return self._instance_matcher.profile(table, column)

    def score_profiles(self, a: ColumnProfile, b: ColumnProfile) -> float:
        name_score = self._name_matcher.score_profiles(a, b)
        instance_score = self._instance_matcher.score_profiles(a, b)
        return self.name_weight * name_score + self.instance_weight * instance_score


def match_schemas(
    left: Table,
    right: Table,
    matcher: Optional[SchemaMatcher] = None,
) -> List[ColumnMatch]:
    """Convenience wrapper: match two tables with the default hybrid matcher."""
    matcher = matcher or HybridMatcher()
    return matcher.match(left, right)
