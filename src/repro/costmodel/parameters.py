"""Cost-model parameters extracted from data-integration metadata.

Paper §IV-B: "among silos there are parameters relevant for the
redundancy, source description (e.g., number of sources, number of columns
and rows in each source, null value ratio per table), source
correspondences (column matching and row matching between sources), etc."
:class:`CostParameters` is exactly that bundle, derived either from an
:class:`repro.matrices.IntegratedDataset` or specified directly for
synthetic sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import CostModelError
from repro.factorized.ops_counter import FactorStats

#: Density at or below which a CSR kernel is expected to beat the dense BLAS
#: kernel for a factor's per-source multiply. Shared by the analytical cost
#: model, the optimizer and :class:`repro.backends.AutoBackend`, so the
#: Table III decision logic and the storage engine reason from the same
#: constant. The crossover of ``nnz·m`` CSR traversal vs. ``r·c·m`` BLAS
#: sits around 5–15% density on commodity CPUs; 0.1 is the conservative
#: middle of that band.
SPARSE_DENSITY_THRESHOLD = 0.1


@dataclass
class CostParameters:
    """Shape and overlap statistics driving the factorize/materialize decision.

    ``source_densities`` holds the observed non-zero density of each
    source's data matrix (``nnz / (rows·cols)``); when omitted it defaults
    to ``1 - null_ratio``, the best estimate DI metadata alone provides.
    ``sparse_density_threshold`` is the dense/sparse dispatch point used by
    :meth:`backend_choice`.

    ``factors`` holds what the price list (:mod:`repro.factorized.ops_counter`)
    reads of each factor of the whole target, in factor order, and
    ``feature_factors`` the same for the feature view the learners train
    on: the target without its label column (the same list when there is
    no label). :meth:`from_dataset` reads both from the metadata. Given
    neither, both derive from the shapes and densities, with every source
    covering all ``n_target_rows`` and every redundant cell charged to the
    last source (only their sum is priced).
    """

    source_shapes: List[Tuple[int, int]]
    n_target_rows: int
    n_target_columns: int
    overlap_rows: int = 0
    overlap_columns: int = 0
    redundant_cells: int = 0
    null_ratios: List[float] = field(default_factory=list)
    has_full_tgds_only: bool = False
    source_densities: List[float] = field(default_factory=list)
    sparse_density_threshold: float = SPARSE_DENSITY_THRESHOLD
    factors: List[FactorStats] = field(default_factory=list)
    feature_factors: List[FactorStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.source_shapes:
            raise CostModelError("cost parameters need at least one source shape")
        for rows, cols in self.source_shapes:
            if rows < 0 or cols < 0:
                raise CostModelError(f"invalid source shape ({rows}, {cols})")
        if self.n_target_rows < 0 or self.n_target_columns <= 0:
            raise CostModelError("invalid target shape")
        if not self.null_ratios:
            self.null_ratios = [0.0] * self.n_sources
        if not self.source_densities:
            self.source_densities = [1.0 - ratio for ratio in self.null_ratios]
        if len(self.source_densities) != self.n_sources:
            raise CostModelError(
                f"{len(self.source_densities)} densities for {self.n_sources} sources"
            )
        for density in self.source_densities:
            if not 0.0 <= density <= 1.0:
                raise CostModelError(f"invalid source density {density}")
        if not 0.0 <= self.sparse_density_threshold <= 1.0:
            raise CostModelError(
                f"invalid sparse density threshold {self.sparse_density_threshold}"
            )
        if not self.factors:
            csr = [d <= self.sparse_density_threshold for d in self.source_densities]
            self.factors = [
                FactorStats(
                    stored=self.nnz_of(i) if csr[i] else rows * cols,
                    rows=self.n_target_rows,
                    cols=cols,
                    correction=self.redundant_cells if i == self.n_sources - 1 else 0,
                    csr=csr[i],
                )
                for i, (rows, cols) in enumerate(self.source_shapes)
            ]
        if not self.feature_factors:
            self.feature_factors = list(self.factors)
        if len(self.factors) != self.n_sources:
            raise CostModelError(
                f"{len(self.factors)} factor stats for {self.n_sources} sources"
            )
        for factor in self.factors + self.feature_factors:
            if not 0 <= factor.rows <= self.n_target_rows:
                raise CostModelError(
                    f"invalid mapped-row count {factor.rows} for {self.n_target_rows} target rows"
                )

    # -- derived ratios (the Morpheus heuristic's inputs) --------------------------------
    @property
    def n_sources(self) -> int:
        return len(self.source_shapes)

    @property
    def total_source_cells(self) -> int:
        return sum(rows * cols for rows, cols in self.source_shapes)

    @property
    def target_cells(self) -> int:
        return self.n_target_rows * self.n_target_columns

    @property
    def tuple_ratio(self) -> float:
        """r_T over the rows of the largest (base) source."""
        base_rows = max(rows for rows, _ in self.source_shapes)
        return self.n_target_rows / base_rows if base_rows else 0.0

    @property
    def smallest_source_tuple_ratio(self) -> float:
        """r_T over the rows of the smallest source (Morpheus' per-join ratio)."""
        smallest = min(rows for rows, _ in self.source_shapes if rows > 0)
        return self.n_target_rows / smallest if smallest else 0.0

    @property
    def feature_ratio(self) -> float:
        """c_T over the widest source's columns."""
        widest = max(cols for _, cols in self.source_shapes)
        return self.n_target_columns / widest if widest else 0.0

    # -- source-only ratios (what the Morpheus heuristic can see) --------------------------
    @property
    def source_tuple_ratio(self) -> float:
        """Largest source's rows over the smallest source's rows.

        This is the tuple ratio the Morpheus heuristic works with: it is
        computed from the source tables alone, assuming a key–foreign-key
        inner join, and is blind to how many rows actually reach the target.
        """
        rows = [r for r, _ in self.source_shapes if r > 0]
        if not rows:
            return 0.0
        return max(rows) / min(rows)

    @property
    def source_feature_ratio(self) -> float:
        """Total source columns over the entity (largest-rows) source's columns."""
        entity_rows, entity_columns = max(self.source_shapes, key=lambda shape: shape[0])
        total_columns = sum(cols for _, cols in self.source_shapes)
        if entity_columns == 0:
            return float(total_columns)
        return total_columns / entity_columns

    # -- backend dispatch (shared with repro.backends.AutoBackend) -------------------------
    def nnz_of(self, index: int) -> int:
        """Estimated stored-cell count of source ``index``."""
        rows, cols = self.source_shapes[index]
        return int(round(rows * cols * self.source_densities[index]))

    @property
    def backend_choices(self) -> List[str]:
        """Per-source kernel ("dense" or "sparse") the density-threshold rule
        picks, in factor order."""
        return ["sparse" if factor.csr else "dense" for factor in self.factors]

    @property
    def any_sparse_source(self) -> bool:
        return "sparse" in self.backend_choices

    @property
    def target_redundancy(self) -> float:
        """Fraction of target cells exceeding the sources' cells (≥ 0)."""
        if self.total_source_cells == 0:
            return 0.0
        extra = self.target_cells - self.total_source_cells
        return max(extra, 0) / self.target_cells if self.target_cells else 0.0

    @property
    def source_redundancy(self) -> float:
        """Fraction of source cells that are redundant w.r.t. the target."""
        if self.total_source_cells == 0:
            return 0.0
        return self.redundant_cells / self.total_source_cells

    @classmethod
    def from_dataset(
        cls, dataset, has_full_tgds_only: Optional[bool] = None
    ) -> "CostParameters":
        """Derive parameters from an :class:`repro.matrices.IntegratedDataset`.

        The price-list stats come from metadata the dataset holds: the
        indicators' mapped rows, the mappings' mapped columns, the
        redundancy masks' counts and the factors' cached nnz. No operator
        plan is compiled.
        """
        source_shapes = [(f.n_rows, f.n_columns) for f in dataset.factors]
        source_densities = [f.density for f in dataset.factors]
        redundant = sum(f.redundancy.n_redundant for f in dataset.factors)
        overlap_rows = overlap_columns = 0
        if dataset.n_sources >= 2:
            # CI_k / CM_k hold, per target row / column, the source index or
            # -1, so an overlap is one vectorized count.
            base, other = dataset.factors[0], dataset.factors[1]
            overlap_rows = int(np.count_nonzero(
                (np.asarray(base.indicator.compressed) >= 0)
                & (np.asarray(other.indicator.compressed) >= 0)
            ))
            overlap_columns = int(np.count_nonzero(
                (np.asarray(base.mapping.compressed) >= 0)
                & (np.asarray(other.mapping.compressed) >= 0)
            ))
        if has_full_tgds_only is None:
            from repro.metadata.mappings import ScenarioType

            has_full_tgds_only = dataset.scenario is ScenarioType.INNER_JOIN
        label = dataset.label_column
        drop = -1 if label is None else dataset.target_columns.index(label)
        factors, feature_factors = [], []
        for f, density in zip(dataset.factors, source_densities):
            csr = density <= SPARSE_DENSITY_THRESHOLD
            targets = f.mapping.mapped_target_indices()
            stats = FactorStats(f.nnz if csr else f.n_rows * f.n_columns, f.indicator.n_mapped,
                                int(targets.size), f.redundancy.n_redundant, csr)
            factors.append(stats)
            # The feature view projects the label column away, as
            # AmalurMatrix.select_columns does, and drops a factor left
            # without columns.
            hit = np.flatnonzero(targets == drop)
            if hit.size and stats.cols == 1:
                continue
            if hit.size:
                source = int(f.mapping.mapped_source_indices()[hit[0]])
                stats = stats._replace(
                    stored=stats.stored - (f.column_nnz(source) if csr else f.n_rows),
                    cols=stats.cols - 1,
                    correction=stats.correction - f.redundancy.select_columns([drop]).n_redundant,
                )
            feature_factors.append(stats)
        return cls(
            source_shapes=source_shapes,
            n_target_rows=dataset.n_target_rows,
            n_target_columns=len(dataset.target_columns),
            overlap_rows=overlap_rows,
            overlap_columns=overlap_columns,
            redundant_cells=redundant,
            has_full_tgds_only=has_full_tgds_only,
            source_densities=source_densities,
            factors=factors,
            feature_factors=feature_factors,
        )
