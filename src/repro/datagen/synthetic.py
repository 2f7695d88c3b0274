"""Synthetic silo-pair generator used by the Table III and Figure 5 sweeps.

The generator builds an :class:`repro.matrices.IntegratedDataset` directly
from numpy arrays (bypassing the relational layer) so that the shape sweep
of the paper's footnote 3 — ``c_S1 = 1``, ``c_S2 = 100``, ``r_S1`` swept
over several orders of magnitude with ``r_S2 = 0.2 · r_S1`` — runs at
laptop scale. The two Table III axes are controlled explicitly:

* ``redundancy_in_target`` — when True, the join is many-to-one (each base
  row references one of the other source's rows, Morpheus' key–foreign-key
  case), so the other source's rows are repeated in the target (tuple
  ratio ≈ r_S1 / r_S2). When False, the integration is a one-to-one inner
  join on the overlapping entities: only ``r_S2`` rows survive into the
  target, so the target is no larger than the sources (the Example IV.1
  situation).
* ``redundancy_in_sources`` — when True, a fraction of the other source's
  columns duplicates base columns, producing redundant cells that the
  redundancy matrices must mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy import sparse

from repro.backends import BackendSpec, resolve_backend
from repro.exceptions import MappingError
from repro.matrices.builder import IntegratedDataset, SourceFactor, star_schema
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.mappings import ScenarioType


@dataclass
class SyntheticSiloSpec:
    """Parameters of a synthetic two-silo integration."""

    base_rows: int
    base_columns: int
    other_rows: int
    other_columns: int
    redundancy_in_target: bool = True
    redundancy_in_sources: bool = False
    overlap_column_fraction: float = 0.5
    overlap_row_fraction: float = 1.0
    null_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_rows <= 0 or self.other_rows <= 0:
            raise MappingError("source row counts must be positive")
        if self.base_columns <= 0 or self.other_columns <= 0:
            raise MappingError("source column counts must be positive")
        if not self.redundancy_in_target and self.other_rows > self.base_rows:
            # One-to-one matching needs at least as many base rows as other rows.
            self.other_rows = self.base_rows


def generate_integrated_pair(
    spec: SyntheticSiloSpec, backend: BackendSpec = None
) -> IntegratedDataset:
    """Generate the factorized two-silo dataset described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    base_data = rng.standard_normal((spec.base_rows, spec.base_columns))
    other_data = rng.standard_normal((spec.other_rows, spec.other_columns))
    if spec.null_ratio > 0:
        base_data[rng.random(base_data.shape) < spec.null_ratio] = 0.0
        other_data[rng.random(other_data.shape) < spec.null_ratio] = 0.0

    base_columns = [f"b{i}" for i in range(spec.base_columns)]
    other_columns = [f"o{i}" for i in range(spec.other_columns)]

    n_overlap_columns = 0
    if spec.redundancy_in_sources:
        n_overlap_columns = max(
            1, int(round(spec.overlap_column_fraction * min(spec.base_columns, spec.other_columns)))
        )

    # Target schema: all base columns, then the non-overlapping other columns.
    target_columns = list(base_columns) + other_columns[n_overlap_columns:]
    n_target_columns = len(target_columns)

    # Row alignment.
    if spec.redundancy_in_target:
        # Key–foreign-key join: every base row references one other-source row,
        # so the other source's rows are repeated in the target.
        n_target_rows = spec.base_rows
        base_row_map = np.arange(spec.base_rows, dtype=np.int64)
        other_row_map = rng.integers(0, spec.other_rows, size=n_target_rows, dtype=np.int64)
    else:
        # One-to-one inner join on the overlapping entities: only the matched
        # rows survive, so no source row appears more than once in the target.
        # ``overlap_row_fraction`` controls how many of the smaller source's
        # entities actually overlap (1.0 = all of them).
        n_target_rows = max(1, int(round(spec.overlap_row_fraction * spec.other_rows)))
        base_row_map = np.arange(n_target_rows, dtype=np.int64)
        other_row_map = np.arange(n_target_rows, dtype=np.int64)

    base_mapping = MappingMatrix(
        "S1", target_columns, base_columns, {c: c for c in base_columns}
    )
    other_correspondences = {}
    for j, column in enumerate(other_columns):
        if j < n_overlap_columns:
            other_correspondences[column] = base_columns[j]
        else:
            other_correspondences[column] = column
    other_mapping = MappingMatrix("S2", target_columns, other_columns, other_correspondences)

    base_indicator = IndicatorMatrix("S1", n_target_rows, spec.base_rows, base_row_map)
    other_indicator = IndicatorMatrix("S2", n_target_rows, spec.other_rows, other_row_map)

    base_redundancy = RedundancyMatrix.all_ones("S1", n_target_rows, n_target_columns)
    if n_overlap_columns:
        # The redundant cells form an overlap rectangle (rows matched to the
        # other source × columns the base already provides); build the sparse
        # complement straight from the index sets — no dense r_T × c_T mask.
        overlapping_rows = np.nonzero(other_row_map >= 0)[0]
        overlap_target_indices = [
            target_columns.index(base_columns[j]) for j in range(n_overlap_columns)
        ]
        other_redundancy = RedundancyMatrix.from_rectangle(
            "S2", (n_target_rows, n_target_columns),
            overlapping_rows, overlap_target_indices,
        )
    else:
        other_redundancy = RedundancyMatrix.all_ones("S2", n_target_rows, n_target_columns)

    resolved_backend = resolve_backend(backend) if backend is not None else None
    factors = [
        SourceFactor(
            "S1", base_data, base_columns, base_mapping, base_indicator, base_redundancy,
            backend=resolved_backend,
        ),
        SourceFactor(
            "S2", other_data, other_columns, other_mapping, other_indicator, other_redundancy,
            backend=resolved_backend,
        ),
    ]
    scenario = (
        ScenarioType.INNER_JOIN if spec.redundancy_in_target else ScenarioType.LEFT_JOIN
    )
    return IntegratedDataset(
        target_columns=target_columns,
        n_target_rows=n_target_rows,
        factors=factors,
        scenario=scenario,
        name="T_synthetic",
        backend=resolved_backend,
    )


@dataclass
class OneHotSpec:
    """Parameters of a high-sparsity one-hot silo pair.

    The base silo is a dense entity table (``n_rows × base_columns``); the
    other silo is a dimension table whose features are the one-hot encoding
    of a categorical attribute with ``n_categories`` levels — density
    exactly ``1 / n_categories``, the regime where the sparse backend wins.
    The join is key–foreign-key (every base row references one dimension
    row), matching the Morpheus star-schema case with redundancy in the
    target but none in the sources.
    """

    n_rows: int
    n_categories: int
    base_columns: int = 5
    n_entities: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rows <= 0 or self.base_columns <= 0:
            raise MappingError("one-hot spec needs positive base dimensions")
        if self.n_categories < 2:
            raise MappingError("one-hot encoding needs at least two categories")
        if self.n_entities is None:
            self.n_entities = self.n_categories
        if self.n_entities <= 0:
            raise MappingError("one-hot spec needs at least one entity")

    @property
    def one_hot_density(self) -> float:
        """Density of the one-hot source (``1 / n_categories``)."""
        return 1.0 / self.n_categories

    @property
    def sparsity(self) -> float:
        """Fraction of zero cells in the one-hot source."""
        return 1.0 - self.one_hot_density


def generate_one_hot_pair(spec: OneHotSpec, backend: BackendSpec = None) -> IntegratedDataset:
    """Generate a dense-base × one-hot-dimension integrated dataset.

    ``backend`` (name, instance or ``None``) is attached to the dataset and
    its factors so the factorized operators execute on it; ``"auto"`` will
    keep the base dense and store the one-hot factor as CSR whenever
    ``1 / n_categories`` falls below the shared density threshold.
    """
    rng = np.random.default_rng(spec.seed)
    base_data = rng.standard_normal((spec.n_rows, spec.base_columns))
    categories = rng.integers(0, spec.n_categories, size=spec.n_entities)
    # Built directly as CSR (nnz = n_entities): a 10k-category dimension
    # table never materializes its dense n_entities × n_categories form
    # unless a dense code path explicitly asks for it.
    one_hot = sparse.csr_matrix(
        (
            np.ones(spec.n_entities),
            (np.arange(spec.n_entities), categories),
        ),
        shape=(spec.n_entities, spec.n_categories),
    )

    foreign_keys = rng.integers(0, spec.n_entities, size=spec.n_rows, dtype=np.int64)
    return star_schema(
        ("S1", [f"x{i}" for i in range(spec.base_columns)], base_data),
        [("S2", [f"cat_{j}" for j in range(spec.n_categories)], one_hot, foreign_keys)],
        name="T_one_hot",
        backend=backend,
    )


def generate_table3_grid(
    base_row_sweep: List[int],
    base_columns: int = 1,
    other_columns: int = 100,
    other_row_fraction: float = 0.2,
    seeds_per_point: int = 1,
) -> List[SyntheticSiloSpec]:
    """The scenario grid of the paper's footnote 3 for one Table III cell.

    ``c_S1 = base_columns (1)``, ``c_S2 = other_columns (100)``,
    ``r_S1`` swept over ``base_row_sweep`` and ``r_S2 = 0.2 · r_S1``.
    The redundancy flags are filled in by the caller per Table III cell.
    """
    specs: List[SyntheticSiloSpec] = []
    for base_rows in base_row_sweep:
        other_rows = max(1, int(round(other_row_fraction * base_rows)))
        for seed in range(seeds_per_point):
            specs.append(
                SyntheticSiloSpec(
                    base_rows=base_rows,
                    base_columns=base_columns,
                    other_rows=other_rows,
                    other_columns=other_columns,
                    seed=seed,
                )
            )
    return specs
