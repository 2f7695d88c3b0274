"""Synthetic stand-ins for the public factorized-learning benchmark datasets.

The factorized-learning literature the paper builds on (Kumar et al.'s
Hamlet and Chen et al.'s Morpheus, references [34] and [27]) evaluates on
a standard set of key–foreign-key join datasets: Expedia, Movies, Yelp,
Walmart, LastFM, Books and Flights. The raw data is not redistributable
and is not needed for the reproduction: the factorized-vs-materialized
trade-off depends only on the *shape* statistics (rows and columns of the
entity and attribute tables, hence tuple and feature ratios). This module
records those published statistics and generates synthetic numeric tables
with the same shapes, scaled down by default so the benchmarks run on a
laptop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.matrices.builder import IntegratedDataset, star_schema


@dataclass(frozen=True)
class HamletDatasetSpec:
    """Shape statistics of one benchmark dataset (entity + dimension tables)."""

    name: str
    entity_rows: int
    entity_features: int
    dimensions: Tuple[Tuple[int, int], ...]  # (rows, features) per dimension table

    @property
    def tuple_ratios(self) -> List[float]:
        return [self.entity_rows / rows for rows, _ in self.dimensions]

    @property
    def feature_ratio(self) -> float:
        total = self.entity_features + sum(cols for _, cols in self.dimensions)
        widest = max([self.entity_features] + [cols for _, cols in self.dimensions])
        return total / widest if widest else 0.0


# Approximate published shape statistics (features are the dense-equivalent
# feature counts, scaled from the one-hot encodings used in the original
# papers so that dense numpy kernels remain tractable).
HAMLET_DATASETS: Dict[str, HamletDatasetSpec] = {
    "expedia": HamletDatasetSpec("expedia", 942_142, 27, ((11_939, 60), (37_021, 40))),
    "movies": HamletDatasetSpec("movies", 1_000_209, 0, ((6_040, 50), (3_706, 40))),
    "yelp": HamletDatasetSpec("yelp", 215_879, 0, ((11_535, 60), (43_873, 55))),
    "walmart": HamletDatasetSpec("walmart", 421_570, 1, ((2_340, 30), (45, 12))),
    "lastfm": HamletDatasetSpec("lastfm", 343_747, 0, ((4_999, 50), (50_000, 45))),
    "books": HamletDatasetSpec("books", 253_120, 0, ((27_876, 40), (49_972, 35))),
    "flights": HamletDatasetSpec("flights", 66_548, 20, ((540, 25), (3_167, 30), (3_170, 30))),
}


def _scaled(spec: HamletDatasetSpec, row_scale: float, column_scale: float) -> HamletDatasetSpec:
    def scale_rows(rows: int) -> int:
        return max(2, int(round(rows * row_scale)))

    def scale_cols(cols: int) -> int:
        return max(1, int(round(cols * column_scale))) if cols else 0

    return HamletDatasetSpec(
        spec.name,
        scale_rows(spec.entity_rows),
        scale_cols(spec.entity_features),
        tuple((scale_rows(rows), max(1, scale_cols(cols))) for rows, cols in spec.dimensions),
    )


def generate_hamlet_dataset(
    name: str,
    row_scale: float = 0.01,
    column_scale: float = 0.5,
    seed: int = 0,
    with_label: bool = True,
) -> IntegratedDataset:
    """Generate an Amalur :class:`IntegratedDataset` with a dataset's shape.

    A :func:`~repro.matrices.builder.star_schema`: the entity table is the
    base source (holding the label when ``with_label``), each dimension
    table is an additional source joined through its foreign keys, columns
    are disjoint across sources (no source redundancy — the classic
    Morpheus setting).
    """
    spec = _scaled(HAMLET_DATASETS[name], row_scale, column_scale)
    rng = np.random.default_rng(seed)
    n_rows = spec.entity_rows

    entity_columns = [f"e{i}" for i in range(max(spec.entity_features, 1))]
    if with_label:
        entity_columns = ["label"] + entity_columns
    entity_data = rng.standard_normal((n_rows, len(entity_columns)))
    if with_label:
        entity_data[:, 0] = rng.integers(0, 2, size=n_rows)

    dimensions = []
    for index, (rows, cols) in enumerate(spec.dimensions):
        columns = [f"d{index}_{i}" for i in range(cols)]
        data = rng.standard_normal((rows, cols))
        dimensions.append((f"dim{index}", columns, data, rng.integers(0, rows, size=n_rows)))

    return star_schema(
        ("entity", entity_columns, entity_data),
        dimensions,
        label_column="label" if with_label else None,
        name=name,
    )
