"""Tensor view of data plus DI metadata (paper §III-D).

Section III-D sketches stacking the data matrix ``D_k`` with its mapping
and indicator metadata along a third dimension so that a single tensor
object carries both instances and integration metadata, ready for tensor
runtimes. :class:`MetadataTensor` realizes that view: slice 0 holds the
source's contribution in target shape, slice 1 the structural coverage
(which cells the source maps at all), and slice 2 the redundancy mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.matrices.builder import IntegratedDataset


@dataclass
class MetadataTensor:
    """A (n_sources, 3, r_T, c_T) tensor stacking data and DI metadata."""

    tensor: np.ndarray
    source_names: List[str]
    target_columns: List[str]

    DATA_SLICE = 0
    COVERAGE_SLICE = 1
    REDUNDANCY_SLICE = 2

    @property
    def shape(self) -> tuple:
        return self.tensor.shape

    def data(self, source: int) -> np.ndarray:
        return self.tensor[source, self.DATA_SLICE]

    def coverage(self, source: int) -> np.ndarray:
        return self.tensor[source, self.COVERAGE_SLICE]

    def redundancy(self, source: int) -> np.ndarray:
        return self.tensor[source, self.REDUNDANCY_SLICE]

    def materialize(self) -> np.ndarray:
        """Reconstruct the target purely with tensor algebra (einsum)."""
        return np.einsum(
            "krc,krc->rc",
            self.tensor[:, self.DATA_SLICE],
            self.tensor[:, self.REDUNDANCY_SLICE],
        )


def stack_metadata_tensor(dataset: IntegratedDataset) -> MetadataTensor:
    """Stack an integrated dataset into a :class:`MetadataTensor`."""
    slices = []
    names = []
    for factor in dataset.factors:
        contribution = factor.contribution()
        coverage = factor.coverage().astype(float)
        redundancy = factor.redundancy.to_dense()
        slices.append(np.stack([contribution, coverage, redundancy]))
        names.append(factor.name)
    tensor = np.stack(slices)
    return MetadataTensor(tensor, names, list(dataset.target_columns))
