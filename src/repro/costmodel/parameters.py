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
    """

    source_shapes: List[Tuple[int, int]]
    n_target_rows: int
    n_target_columns: int
    overlap_rows: int = 0
    overlap_columns: int = 0
    redundant_cells: int = 0
    null_ratios: List[float] = field(default_factory=list)
    has_full_tgds_only: bool = False
    operand_columns: int = 1
    source_densities: List[float] = field(default_factory=list)
    sparse_density_threshold: float = SPARSE_DENSITY_THRESHOLD
    #: Per-source count of target rows the source actually covers (the
    #: indicator's mapped rows). Defaults to ``n_target_rows`` per source —
    #: the full-coverage assumption — when not provided; populated from the
    #: dataset so gather/scatter costs are priced by what the compiled
    #: operator plans execute rather than by ``r_T``.
    source_mapped_rows: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.source_shapes:
            raise CostModelError("cost parameters need at least one source shape")
        for rows, cols in self.source_shapes:
            if rows < 0 or cols < 0:
                raise CostModelError(f"invalid source shape ({rows}, {cols})")
        if self.n_target_rows < 0 or self.n_target_columns <= 0:
            raise CostModelError("invalid target shape")
        if not self.null_ratios:
            self.null_ratios = [0.0] * len(self.source_shapes)
        if not self.source_densities:
            self.source_densities = [
                1.0 - (self.null_ratios[i] if i < len(self.null_ratios) else 0.0)
                for i in range(len(self.source_shapes))
            ]
        for density in self.source_densities:
            if not 0.0 <= density <= 1.0:
                raise CostModelError(f"invalid source density {density}")
        if not 0.0 <= self.sparse_density_threshold <= 1.0:
            raise CostModelError(
                f"invalid sparse density threshold {self.sparse_density_threshold}"
            )
        if not self.source_mapped_rows:
            self.source_mapped_rows = [self.n_target_rows] * len(self.source_shapes)
        if len(self.source_mapped_rows) > len(self.source_shapes):
            raise CostModelError(
                f"source_mapped_rows has {len(self.source_mapped_rows)} entries for "
                f"{len(self.source_shapes)} sources"
            )
        for mapped in self.source_mapped_rows:
            if mapped < 0 or mapped > self.n_target_rows:
                raise CostModelError(
                    f"invalid mapped-row count {mapped} for {self.n_target_rows} target rows"
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
    def density_of(self, index: int) -> float:
        """Observed (or null-ratio-estimated) density of source ``index``."""
        if not 0 <= index < len(self.source_shapes):
            raise CostModelError(f"no source with index {index}")
        if index < len(self.source_densities):
            return self.source_densities[index]
        return 1.0 - (self.null_ratios[index] if index < len(self.null_ratios) else 0.0)

    def nnz_of(self, index: int) -> int:
        """Estimated stored-cell count of source ``index``."""
        rows, cols = self.source_shapes[index]
        return int(round(rows * cols * self.density_of(index)))

    def mapped_rows_of(self, index: int) -> int:
        """Target rows source ``index`` covers (``n_target_rows`` if unknown)."""
        if not 0 <= index < len(self.source_shapes):
            raise CostModelError(f"no source with index {index}")
        if index < len(self.source_mapped_rows):
            return self.source_mapped_rows[index]
        return self.n_target_rows

    def backend_choice(self, index: int) -> str:
        """Which kernel the density-threshold rule picks for source ``index``."""
        return (
            "sparse"
            if self.density_of(index) <= self.sparse_density_threshold
            else "dense"
        )

    @property
    def backend_choices(self) -> List[str]:
        """Per-source dense/sparse decisions, in factor order."""
        return [self.backend_choice(i) for i in range(len(self.source_shapes))]

    @property
    def any_sparse_source(self) -> bool:
        return any(choice == "sparse" for choice in self.backend_choices)

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
        cls, dataset, operand_columns: int = 1, has_full_tgds_only: Optional[bool] = None
    ) -> "CostParameters":
        """Derive parameters from an :class:`repro.matrices.IntegratedDataset`."""
        source_shapes = [(f.n_rows, f.n_columns) for f in dataset.factors]
        source_densities = [f.density for f in dataset.factors]
        redundant = sum(f.redundancy.n_redundant for f in dataset.factors)
        overlap_rows = 0
        overlap_columns = 0
        if dataset.n_sources >= 2:
            base = dataset.factors[0]
            other = dataset.factors[1]
            # The cached index arrays are duplicate-free (CI_k / CM_k map a
            # target row / column at most once), so the overlaps are sorted
            # intersections — no boxing of every mapped row into a set.
            overlap_rows = int(np.intersect1d(
                base.indicator.mapped_target_rows(),
                other.indicator.mapped_target_rows(),
                assume_unique=True,
            ).size)
            overlap_columns = int(np.intersect1d(
                base.mapping.mapped_target_indices(),
                other.mapping.mapped_target_indices(),
                assume_unique=True,
            ).size)
        if has_full_tgds_only is None:
            from repro.metadata.mappings import ScenarioType

            has_full_tgds_only = dataset.scenario is ScenarioType.INNER_JOIN
        return cls(
            source_shapes=source_shapes,
            n_target_rows=dataset.n_target_rows,
            n_target_columns=len(dataset.target_columns),
            overlap_rows=overlap_rows,
            overlap_columns=overlap_columns,
            redundant_cells=redundant,
            has_full_tgds_only=has_full_tgds_only,
            operand_columns=operand_columns,
            source_densities=source_densities,
            source_mapped_rows=[f.indicator.n_mapped for f in dataset.factors],
        )
