"""Data discovery for feature augmentation (paper §I, §II, use case 1).

Given a base table (with a label column) and a set of candidate tables
registered in the metadata catalog, rank the candidates by how useful they
are for augmenting the base table's features:

* *joinability* — can the candidate be linked to the base via high-overlap
  key-like columns (this is what makes an augmentation possible at all);
* *new-feature gain* — how many numeric columns the candidate would add;
* *relevance* — absolute correlation between the candidate's new numeric
  features and the base label, computed over the rows that join (the
  COCOA-style correlation signal the paper cites [33]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.metadata.catalog import MetadataCatalog
from repro.metadata.entity_resolution import KeyBasedResolver, RowMatch, declared_key_pairs
from repro.metadata.schema_matching import ColumnMatch, HybridMatcher, SchemaMatcher
from repro.relational.table import Table
from repro.relational.types import is_null


@dataclass
class AugmentationCandidate:
    """A candidate table for feature augmentation, with its scores."""

    table_name: str
    column_matches: List[ColumnMatch]
    row_matches: List[RowMatch]
    new_features: List[str]
    joinability: float
    relevance: float
    score: float = 0.0
    feature_correlations: Dict[str, float] = field(default_factory=dict)


class DataDiscovery:
    """Rank catalog tables as feature-augmentation candidates for a base table."""

    def __init__(
        self,
        catalog: MetadataCatalog,
        matcher: Optional[SchemaMatcher] = None,
        joinability_weight: float = 0.5,
        relevance_weight: float = 0.5,
    ):
        self.catalog = catalog
        self.matcher = matcher or HybridMatcher(threshold=0.5)
        self.joinability_weight = joinability_weight
        self.relevance_weight = relevance_weight

    def discover(
        self,
        base: Table,
        label_column: str,
        exclude: Sequence[str] = (),
        top_k: Optional[int] = None,
    ) -> List[AugmentationCandidate]:
        """Return augmentation candidates sorted by descending score."""
        excluded = set(exclude) | {base.name}
        candidates: List[AugmentationCandidate] = []
        for name in self.catalog.source_names:
            if name in excluded:
                continue
            candidate = self._evaluate_candidate(base, label_column, self.catalog.table(name))
            if candidate is not None:
                candidates.append(candidate)
        candidates.sort(key=lambda c: -c.score)
        if top_k is not None:
            candidates = candidates[:top_k]
        return candidates

    def _evaluate_candidate(
        self, base: Table, label_column: str, candidate: Table
    ) -> Optional[AugmentationCandidate]:
        column_matches = self.matcher.match(base, candidate)
        if not column_matches:
            return None
        row_matches = self._align_rows(base, candidate, column_matches)
        joinability = len(row_matches) / base.n_rows if base.n_rows else 0.0

        matched_candidate_columns = {m.right_column for m in column_matches}
        new_features = [
            column.name
            for column in candidate.schema
            if column.dtype.is_numeric and column.name not in matched_candidate_columns
        ]
        correlations = self._label_correlations(
            base, label_column, candidate, new_features, row_matches
        )
        relevance = max(correlations.values()) if correlations else 0.0
        score = self.joinability_weight * joinability + self.relevance_weight * relevance
        return AugmentationCandidate(
            table_name=candidate.name,
            column_matches=column_matches,
            row_matches=row_matches,
            new_features=new_features,
            joinability=joinability,
            relevance=relevance,
            score=score,
            feature_correlations=correlations,
        )

    def _align_rows(
        self, base: Table, candidate: Table, column_matches: Sequence[ColumnMatch]
    ) -> List[RowMatch]:
        shared_keys = declared_key_pairs(base, candidate)
        if shared_keys:
            return KeyBasedResolver(shared_keys).resolve(base, candidate)
        # Fall back to exact equality on the best-scoring matched column pair.
        best = max(column_matches, key=lambda m: m.score)
        return KeyBasedResolver([(best.left_column, best.right_column)]).resolve(base, candidate)

    def _label_correlations(
        self,
        base: Table,
        label_column: str,
        candidate: Table,
        new_features: Sequence[str],
        row_matches: Sequence[RowMatch],
    ) -> Dict[str, float]:
        if not row_matches or not new_features:
            return {}
        labels = []
        feature_rows = []
        for match in row_matches:
            label = base.cell(match.left_row, label_column)
            if is_null(label):
                continue
            row = [candidate.cell(match.right_row, feature) for feature in new_features]
            labels.append(float(label))
            feature_rows.append([0.0 if is_null(v) else float(v) for v in row])
        if len(labels) < 2:
            return {}
        label_array = np.asarray(labels)
        features_array = np.asarray(feature_rows)
        correlations: Dict[str, float] = {}
        for j, feature in enumerate(new_features):
            column = features_array[:, j]
            if np.std(column) == 0 or np.std(label_array) == 0:
                correlations[feature] = 0.0
                continue
            correlations[feature] = float(abs(np.corrcoef(column, label_array)[0, 1]))
        return correlations
