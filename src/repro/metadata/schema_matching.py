"""Schema matching: discover column correspondences between tables.

The output — a list of :class:`ColumnMatch` — is the paper's "column
relationships from schema matching" (§II-A) and feeds directly into the
mapping matrices of §III-A.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import MatchingError
from repro.metadata.similarity import (
    intersection_sizes,
    jaro_winkler_similarity,
    levenshtein_similarity,
    ngram_jaccard_similarity,
    token_sort_similarity,
)
from repro.relational.factorize import exact_value_codes
from repro.relational.table import Table
from repro.relational.types import DataType

#: One score per (left, right) profile pair: ``grid[i][j]`` scores ``lefts[i]`` with ``rights[j]``.
Grid = List[List[float]]


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
    values: the column's data type, the sample of distinct values, and —
    for a non-empty numeric sample — its bounds.
    """

    name: str
    dtype: Optional[DataType] = None
    values: FrozenSet = frozenset()
    lo: Optional[float] = None
    hi: Optional[float] = None

    @property
    def is_numeric(self) -> bool:
        return self.dtype is not None and self.dtype.is_numeric


class SchemaMatcher:
    """Base class for schema matchers.

    Subclasses implement :meth:`score_grid` over two lists of column
    profiles (and :meth:`profile` when they read more of a column than its
    name); the base class profiles each column once per call, scores one
    pair as the 1 × 1 grid, and provides stable-greedy 1:1 match
    extraction over the full score matrix.
    """

    def __init__(self, threshold: float = 0.6):
        if not 0.0 <= threshold <= 1.0:
            raise MatchingError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold

    def profile(self, table: Table, column: str) -> ColumnProfile:
        """What this matcher reads of ``column``; the name alone by default."""
        return ColumnProfile(column.lower())

    def score_grid(
        self, lefts: Sequence[ColumnProfile], rights: Sequence[ColumnProfile]
    ) -> Grid:
        """Score every pair of a left and a right profile."""
        raise NotImplementedError

    def score_profiles(self, a: ColumnProfile, b: ColumnProfile) -> float:
        """Score a column pair from the profiles this matcher built of them."""
        return self.score_grid([a], [b])[0][0]

    def score(self, left: Table, left_column: str, right: Table, right_column: str) -> float:
        """Score one column pair; :meth:`score_matrix` profiles a column once for all its pairs."""
        return self.score_profiles(
            self.profile(left, left_column), self.profile(right, right_column)
        )

    def score_matrix(self, left: Table, right: Table) -> Dict[Tuple[str, str], float]:
        """Score every column pair of the two tables."""
        left_columns, right_columns = left.schema.names, right.schema.names
        grid = self.score_grid(
            [self.profile(left, c) for c in left_columns],
            [self.profile(right, c) for c in right_columns],
        )
        return {
            (left_column, right_column): score
            for left_column, row in zip(left_columns, grid)
            for right_column, score in zip(right_columns, row)
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

    def score_grid(
        self, lefts: Sequence[ColumnProfile], rights: Sequence[ColumnProfile]
    ) -> Grid:
        return [[_name_score(a.name, b.name) for b in rights] for a in lefts]


def _name_score(a: str, b: str) -> float:
    if a == b:
        return 1.0
    return max(
        levenshtein_similarity(a, b),
        jaro_winkler_similarity(a, b),
        ngram_jaccard_similarity(a, b),
        token_sort_similarity(a, b),
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
        if dtype is DataType.FLOAT:
            # A valid NaN (only trusted storage holds one: the constructors
            # read NaN as NULL) hashes by identity, so where each fresh NaN
            # lands would move the sample and the bounds call to call. Drop it.
            values = table.column_values(column)
            distinct = set(values[table.column_valid(column) & ~np.isnan(values)].tolist())
        else:
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
        return ColumnProfile(column.lower(), dtype, frozenset(sample), lo, hi)

    def score_grid(
        self, lefts: Sequence[ColumnProfile], rights: Sequence[ColumnProfile]
    ) -> Grid:
        shared = _shared_values(lefts, rights)
        return [
            [_instance_score(a, b, count) for b, count in zip(rights, row)]
            for a, row in zip(lefts, shared)
        ]


def _instance_score(a: ColumnProfile, b: ColumnProfile, shared: int) -> float:
    """The score of a pair whose samples share ``shared`` values."""
    if a.is_numeric != b.is_numeric:
        return 0.0
    if not a.values or not b.values:
        return 0.0
    overlap = shared / min(len(a.values), len(b.values))
    if a.is_numeric:
        overlap = max(overlap, _range_overlap(a, b))
    return overlap


def _range_overlap(a: ColumnProfile, b: ColumnProfile) -> float:
    # Per pair in Python: int bounds subtract and divide exactly before the
    # one rounding, which a float64 or int64 array would not reproduce.
    intersection = min(a.hi, b.hi) - max(a.lo, b.lo)
    if intersection <= 0:
        return 0.0
    union = max(a.hi, b.hi) - min(a.lo, b.lo)
    if union <= 0:
        return 1.0
    return intersection / union


_NUMERIC_SAMPLES = {DataType.INT: np.int64, DataType.FLOAT: np.float64}


def _shared_values(
    lefts: Sequence[ColumnProfile], rights: Sequence[ColumnProfile]
) -> List[List[int]]:
    """``len(a.values & b.values)`` for every pair, from one sparse product.

    Every sample value gets a code in one code space, and two values share
    a code exactly when Python ``==`` holds between them: INT and FLOAT
    samples through :func:`~repro.relational.factorize.exact_value_codes`
    (NaN equals nothing, so each NaN gets a code of its own), STRING and
    BOOL samples through a dict, which compares keys as a set does, in a
    range of their own. A sample holds each code once, so
    :func:`~repro.metadata.similarity.intersection_sizes` counts every
    pair's shared values at once.
    """
    profiles = [*lefts, *rights]
    sizes = [len(p.values) for p in profiles]
    indptr = np.zeros(len(profiles) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    groups: Dict[object, List[int]] = {np.int64: [], np.float64: [], None: []}
    for i, p in enumerate(profiles):
        if p.values:
            groups[_NUMERIC_SAMPLES.get(p.dtype)].append(i)
    codes = np.empty(int(indptr[-1]), dtype=np.int64)

    def place(members: List[int], member_codes: np.ndarray) -> None:
        """Write ``member_codes``, the members' samples end to end, into ``codes``."""
        offset = 0
        for i in members:
            codes[indptr[i] : indptr[i + 1]] = member_codes[offset : offset + sizes[i]]
            offset += sizes[i]

    def samples(dtype) -> np.ndarray:
        members = groups[dtype]
        return np.fromiter(
            chain.from_iterable(profiles[i].values for i in members),
            dtype=dtype, count=sum(sizes[i] for i in members),
        )

    int_codes, float_codes = exact_value_codes(samples(np.int64), samples(np.float64))
    place(groups[np.int64], int_codes)
    place(groups[np.float64], float_codes)
    base = int(max(int_codes.max(initial=-1), float_codes.max(initial=-1))) + 1
    del int_codes, float_codes
    index: Dict[object, int] = {}
    others = [
        base + index.setdefault(v, len(index))
        for v in chain.from_iterable(profiles[i].values for i in groups[None])
    ]
    place(groups[None], np.asarray(others, dtype=np.int64))
    return intersection_sizes(codes, indptr, len(lefts)).astype(np.int64).tolist()


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

    def score_grid(
        self, lefts: Sequence[ColumnProfile], rights: Sequence[ColumnProfile]
    ) -> Grid:
        names = self._name_matcher.score_grid(lefts, rights)
        instances = self._instance_matcher.score_grid(lefts, rights)
        return [
            [
                self.name_weight * name_score + self.instance_weight * instance_score
                for name_score, instance_score in zip(name_row, instance_row)
            ]
            for name_row, instance_row in zip(names, instances)
        ]


def match_schemas(
    left: Table,
    right: Table,
    matcher: Optional[SchemaMatcher] = None,
) -> List[ColumnMatch]:
    """Convenience wrapper: match two tables with the default hybrid matcher."""
    matcher = matcher or HybridMatcher()
    return matcher.match(left, right)
