"""Entity resolution: discover row correspondences between tables.

The output — a list of :class:`RowMatch` — is the "row matching from
entity resolution" of §II-A, which the indicator matrices of §III-B
encode. Two resolvers are provided: exact key-based matching (the common
FL assumption of a shared row id) and similarity-based matching with
blocking for the realistic case the paper argues for in §V-B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import MatchingError
from repro.metadata.schema_matching import ColumnMatch
from repro.metadata.similarity import (
    jaro_winkler_similarity,
    levenshtein_similarity,
    ngram_jaccard_matrix,
)
from repro.relational.factorize import cumcount, key_codes
from repro.relational.table import Table
from repro.relational.types import DataType, is_null


@dataclass(frozen=True)
class RowMatch:
    """A correspondence between one row of each of two tables."""

    left_row: int
    right_row: int
    score: float


def declared_key_pairs(left: Table, right: Table) -> List[Tuple[str, str]]:
    """The key columns ``left`` declares that ``right`` also has, as
    same-named (left_column, right_column) pairs; empty when none is shared."""
    return [
        (column.name, column.name)
        for column in left.schema.key_columns
        if column.name in right.schema
    ]


class EntityResolver:
    """Base class for entity resolvers producing 1:1 row matches."""

    def resolve(self, left: Table, right: Table) -> List[RowMatch]:
        raise NotImplementedError


class KeyBasedResolver(EntityResolver):
    """Match rows whose values agree exactly on the given key columns.

    ``key_pairs`` lists (left_column, right_column) pairs; when omitted the
    resolver uses the key columns declared on the left schema, matched to
    same-named columns on the right.
    """

    def __init__(self, key_pairs: Optional[Sequence[Tuple[str, str]]] = None):
        self.key_pairs = list(key_pairs) if key_pairs else None

    def _resolve_key_pairs(self, left: Table, right: Table) -> List[Tuple[str, str]]:
        if self.key_pairs:
            return self.key_pairs
        pairs = declared_key_pairs(left, right)
        if not pairs:
            raise MatchingError(
                "KeyBasedResolver needs key_pairs or declared key columns shared by both tables"
            )
        return pairs

    def resolve_index(self, left: Table, right: Table) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized resolution: matched (left_rows, right_rows) index arrays.

        Matching is the greedy 1:1 assignment of the row-at-a-time resolver —
        left rows in order each claim the first not-yet-used right row with an
        equal key — executed as a factorized hash join: the ``k``-th left row
        of a key (by left-row order) pairs with the ``k``-th right row of that
        key (by right-row order). NULL keys never match.
        """
        with _telemetry.span(
            "resolve.key", left_rows=left.n_rows, right_rows=right.n_rows
        ) as span:
            pairs = self._resolve_key_pairs(left, right)
            left_codes, right_codes = key_codes(left, right, pairs)
            r_sort = np.argsort(right_codes, kind="stable")
            sorted_codes = right_codes[r_sort]
            start = np.searchsorted(sorted_codes, left_codes, side="left")
            end = np.searchsorted(sorted_codes, left_codes, side="right")
            counts = end - start
            occurrence = cumcount(left_codes)
            matched = (left_codes >= 0) & (occurrence < counts)
            left_rows = np.nonzero(matched)[0].astype(np.int64)
            right_rows = r_sort[start[matched] + occurrence[matched]]
            span.set(matches=int(left_rows.size))
        return left_rows, right_rows

    def resolve(self, left: Table, right: Table) -> List[RowMatch]:
        left_rows, right_rows = self.resolve_index(left, right)
        return [
            RowMatch(i, j, 1.0)
            for i, j in zip(left_rows.tolist(), right_rows.tolist())
        ]


class SimilarityResolver(EntityResolver):
    """Similarity-based entity resolution with blocking.

    For each pair of matched columns, string values are compared with
    Jaro-Winkler / Levenshtein (``string_scorer="edit"``, the default) or
    batched character n-gram Jaccard (``string_scorer="ngram"``) and
    numeric values with relative closeness; the mean over compared columns
    is the row score. Candidate pairs are generated by blocking on the
    first matched column's normalized prefix to avoid the quadratic
    all-pairs comparison, and scored *bucket-at-a-time*: numeric columns
    vectorize over the whole candidate batch, and the n-gram scorer runs
    as one factorized set-intersection per bucket
    (:func:`repro.metadata.similarity.ngram_jaccard_matrix`) — no Python
    loop per candidate pair. The edit scorer keeps the per-pair kernels
    (its dynamic programs do not vectorize) inside the batched pipeline.
    """

    def __init__(
        self,
        column_matches: Sequence[ColumnMatch],
        threshold: float = 0.85,
        block_prefix: int = 2,
        string_scorer: str = "edit",
        ngram_size: int = 3,
    ):
        if not column_matches:
            raise MatchingError("SimilarityResolver needs at least one column match")
        if string_scorer not in ("edit", "ngram"):
            raise MatchingError(
                f"unknown string scorer {string_scorer!r}; use 'edit' or 'ngram'"
            )
        self.column_matches = list(column_matches)
        self.threshold = threshold
        self.block_prefix = block_prefix
        self.string_scorer = string_scorer
        self.ngram_size = ngram_size

    def _block_key(self, value) -> str:
        if is_null(value):
            return "__null__"
        return str(value).strip().lower()[: self.block_prefix]

    def _value_similarity(self, a, b) -> Optional[float]:
        if is_null(a) or is_null(b):
            return None
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            a_f, b_f = float(a), float(b)
            if a_f == b_f:
                return 1.0
            scale = max(abs(a_f), abs(b_f))
            if scale == 0:
                return 1.0
            return max(0.0, 1.0 - abs(a_f - b_f) / scale)
        a_s, b_s = str(a).strip().lower(), str(b).strip().lower()
        return max(levenshtein_similarity(a_s, b_s), jaro_winkler_similarity(a_s, b_s))

    def _row_score(self, left: Table, i: int, right: Table, j: int) -> float:
        scores = []
        for match in self.column_matches:
            left_value = left.cell(i, match.left_column)
            right_value = right.cell(j, match.right_column)
            similarity = self._value_similarity(left_value, right_value)
            if similarity is not None:
                scores.append(similarity)
        if not scores:
            return 0.0
        return sum(scores) / len(scores)

    # -- batched scoring ---------------------------------------------------------------
    _NUMERIC_DTYPES = (DataType.INT, DataType.FLOAT, DataType.BOOL)
    #: Candidate pairs scored per batch; bounds the index/score temporaries
    #: of one skewed blocking bucket to a few tens of MB.
    _PAIR_BATCH = 1 << 21

    @staticmethod
    def _normalized_strings(table: Table, column: str) -> List[Optional[str]]:
        """Per row, ``str(value).strip().lower()`` (None at NULLs)."""
        return [
            None if is_null(value) else str(value).strip().lower()
            for value in table.column(column)
        ]

    def _numeric_pair_scores(
        self,
        left_column: Tuple[np.ndarray, np.ndarray],
        right_column: Tuple[np.ndarray, np.ndarray],
        left_rows: np.ndarray,
        right_rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized relative-closeness scores for one numeric column pair.

        ``left_column`` / ``right_column`` are cached ``(float64 values,
        validity)`` pairs — converted once per column per resolve, not once
        per blocking bucket.
        """
        left_values, left_valid = left_column
        right_values, right_valid = right_column
        a = left_values[left_rows]
        b = right_values[right_rows]
        compared = left_valid[left_rows] & right_valid[right_rows]
        equal = a == b
        scale = np.maximum(np.abs(a), np.abs(b))
        with np.errstate(invalid="ignore", divide="ignore"):
            closeness = np.maximum(
                0.0, 1.0 - np.abs(a - b) / np.where(scale > 0, scale, 1.0)
            )
        scores = np.where(equal | (scale == 0), 1.0, closeness)
        return scores, compared

    def _string_pair_scores(
        self, left_values: List[Optional[str]], right_values: List[Optional[str]],
        left_rows: np.ndarray, right_rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """String scores for one column pair over a candidate batch."""
        n_pairs = left_rows.size
        scores = np.zeros(n_pairs, dtype=np.float64)
        compared = np.ones(n_pairs, dtype=bool)
        if self.string_scorer == "ngram":
            # Factorized batch: score unique value pairs once via the
            # n-gram code intersection, then gather per candidate.
            a_vals = [left_values[i] for i in left_rows.tolist()]
            b_vals = [right_values[j] for j in right_rows.tolist()]
            compared = np.asarray(
                [a is not None for a in a_vals], dtype=bool
            ) & np.asarray([b is not None for b in b_vals], dtype=bool)
            unique_a, inverse_a = np.unique(
                np.asarray([a if a is not None else "" for a in a_vals], dtype=np.str_),
                return_inverse=True,
            )
            unique_b, inverse_b = np.unique(
                np.asarray([b if b is not None else "" for b in b_vals], dtype=np.str_),
                return_inverse=True,
            )
            matrix = ngram_jaccard_matrix(
                unique_a.tolist(), unique_b.tolist(), self.ngram_size
            )
            scores = matrix[inverse_a, inverse_b]
        else:
            for k in range(n_pairs):
                a = left_values[left_rows[k]]
                b = right_values[right_rows[k]]
                if a is None or b is None:
                    compared[k] = False
                    continue
                scores[k] = max(
                    levenshtein_similarity(a, b), jaro_winkler_similarity(a, b)
                )
        return scores, compared

    @staticmethod
    def _cached_numeric(
        cache: Dict, key: Tuple[str, str], table: Table, column: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        if key not in cache:
            cache[key] = (
                np.asarray(table.column_values(column), dtype=np.float64),
                table.column_valid(column),
            )
        return cache[key]

    def _score_pairs(
        self, left: Table, right: Table,
        left_rows: np.ndarray, right_rows: np.ndarray,
        column_cache: Dict,
    ) -> np.ndarray:
        """Mean per-column similarity for a batch of candidate pairs.

        ``column_cache`` carries per-column prepared values across buckets
        (float64 numeric views, normalized strings) so each column is
        converted once per resolve, not once per bucket.
        """
        total = np.zeros(left_rows.size, dtype=np.float64)
        count = np.zeros(left_rows.size, dtype=np.int64)
        for match in self.column_matches:
            left_dtype = left.schema[match.left_column].dtype
            right_dtype = right.schema[match.right_column].dtype
            if left_dtype in self._NUMERIC_DTYPES and right_dtype in self._NUMERIC_DTYPES:
                scores, compared = self._numeric_pair_scores(
                    self._cached_numeric(
                        column_cache, ("Ln", match.left_column), left, match.left_column
                    ),
                    self._cached_numeric(
                        column_cache, ("Rn", match.right_column), right, match.right_column
                    ),
                    left_rows, right_rows,
                )
            else:
                left_key = ("Ls", match.left_column)
                right_key = ("Rs", match.right_column)
                if left_key not in column_cache:
                    column_cache[left_key] = self._normalized_strings(left, match.left_column)
                if right_key not in column_cache:
                    column_cache[right_key] = self._normalized_strings(right, match.right_column)
                scores, compared = self._string_pair_scores(
                    column_cache[left_key], column_cache[right_key],
                    left_rows, right_rows,
                )
            total[compared] += scores[compared]
            count[compared] += 1
        with np.errstate(invalid="ignore"):
            return np.where(count > 0, total / np.maximum(count, 1), 0.0)

    def resolve(self, left: Table, right: Table) -> List[RowMatch]:
        with _telemetry.span(
            "resolve.similarity", left_rows=left.n_rows, right_rows=right.n_rows
        ) as span:
            matches = self._resolve(left, right)
            span.set(matches=len(matches))
        return matches

    def _resolve(self, left: Table, right: Table) -> List[RowMatch]:
        blocking_match = self.column_matches[0]
        blocks: Dict[str, List[int]] = {}
        for j, value in enumerate(right.column(blocking_match.right_column)):
            blocks.setdefault(self._block_key(value), []).append(j)
        left_groups: Dict[str, List[int]] = {}
        for i, value in enumerate(left.column(blocking_match.left_column)):
            left_groups.setdefault(self._block_key(value), []).append(i)

        column_cache: Dict = {}
        candidates: List[RowMatch] = []
        for key, left_rows_list in left_groups.items():
            right_rows_list = blocks.get(key)
            if not right_rows_list:
                continue
            # Score in bounded pair batches: a skewed bucket (every key
            # sharing one prefix) would otherwise materialize the full
            # |L|×|R| cartesian index arrays at once.
            right_arr = np.asarray(right_rows_list, dtype=np.int64)
            step = max(1, self._PAIR_BATCH // max(right_arr.size, 1))
            for offset in range(0, len(left_rows_list), step):
                segment = left_rows_list[offset:offset + step]
                left_rows = np.repeat(
                    np.asarray(segment, dtype=np.int64), right_arr.size
                )
                right_rows = np.tile(right_arr, len(segment))
                scores = self._score_pairs(
                    left, right, left_rows, right_rows, column_cache
                )
                passing = np.nonzero(scores >= self.threshold)[0]
                candidates.extend(
                    RowMatch(int(left_rows[k]), int(right_rows[k]), float(scores[k]))
                    for k in passing.tolist()
                )

        # Greedy 1:1 extraction by descending score.
        candidates.sort(key=lambda m: (-m.score, m.left_row, m.right_row))
        used_left: set = set()
        used_right: set = set()
        matches: List[RowMatch] = []
        for candidate in candidates:
            if candidate.left_row in used_left or candidate.right_row in used_right:
                continue
            used_left.add(candidate.left_row)
            used_right.add(candidate.right_row)
            matches.append(candidate)
        matches.sort(key=lambda m: m.left_row)
        return matches


def resolve_entities(
    left: Table,
    right: Table,
    column_matches: Optional[Sequence[ColumnMatch]] = None,
    resolver: Optional[EntityResolver] = None,
) -> List[RowMatch]:
    """Convenience wrapper choosing a sensible default resolver.

    Uses key-based resolution when both tables declare shared key columns,
    otherwise falls back to similarity-based resolution over the provided
    column matches.
    """
    if resolver is not None:
        return resolver.resolve(left, right)
    key_pairs = declared_key_pairs(left, right)
    if key_pairs:
        return KeyBasedResolver(key_pairs).resolve(left, right)
    if not column_matches:
        raise MatchingError(
            "resolve_entities needs declared keys or column matches to compare rows"
        )
    return SimilarityResolver(column_matches).resolve(left, right)
