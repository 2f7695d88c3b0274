"""Matrix representations of data-integration metadata (paper §III).

Three matrices capture the DI metadata of each source table ``S_k``
relative to the target table ``T``:

* :class:`MappingMatrix` ``M_k`` — column correspondences (schema mapping),
  with a compressed row-vector form ``CM_k``;
* :class:`IndicatorMatrix` ``I_k`` — row correspondences (entity
  resolution), with a compressed row-vector form ``CI_k``;
* :class:`RedundancyMatrix` ``R_k`` — marks the cells of a source's
  contribution ``T_k = I_k D_k M_kᵀ`` that repeat values already provided
  by an earlier (base) source.

The :class:`IntegratedDataset` built by :mod:`repro.matrices.builder`
bundles one :class:`SourceFactor` per source and is the input to the
factorized linear-algebra layer.
"""

from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.matrices.builder import (
    SourceFactor,
    IntegratedDataset,
    build_integrated_dataset,
    integrate_tables,
    star_schema,
)
from repro.matrices.tensor import stack_metadata_tensor, MetadataTensor

__all__ = [
    "MappingMatrix",
    "IndicatorMatrix",
    "RedundancyMatrix",
    "SourceFactor",
    "IntegratedDataset",
    "build_integrated_dataset",
    "integrate_tables",
    "star_schema",
    "stack_metadata_tensor",
    "MetadataTensor",
]
