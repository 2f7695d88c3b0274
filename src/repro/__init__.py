"""Reproduction of "Amalur: Data Integration Meets Machine Learning" (ICDE 2023).

The library implements the paper's matrix representations of
data-integration metadata, factorized learning over the four silo
integration scenarios of Table I, the factorize-vs-materialize cost model,
and federated learning driven by DI metadata — plus the relational,
metadata, silo and workload-generation substrates they need.

Quick start::

    from repro import Amalur, ModelSpec, ScenarioType
    from repro.datagen import hospital_tables
    from repro.system import IntegrationConfig, TrainRequest

    s1, s2 = hospital_tables()
    amalur = Amalur()
    amalur.add_silo("er")
    amalur.add_table("er", s1)
    amalur.add_silo("pulmonary")
    amalur.add_table("pulmonary", s2)
    dataset = amalur.integrate(IntegrationConfig(
        base="S1", other="S2", target_columns=["m", "a", "hr", "o"],
        scenario=ScenarioType.FULL_OUTER_JOIN, label_column="m"))
    result = amalur.train(TrainRequest(model=ModelSpec(task="classification"),
                                       dataset=dataset))
"""

from repro.exceptions import AmalurError
from repro.backends import (
    AutoBackend,
    Backend,
    DenseBackend,
    SparseBackend,
    resolve_backend,
)
from repro.metadata.mappings import ScenarioType
from repro.matrices import (
    MappingMatrix,
    IndicatorMatrix,
    RedundancyMatrix,
    IntegratedDataset,
    SourceFactor,
    integrate_tables,
    star_schema,
)
from repro.factorized import AmalurMatrix
from repro.costmodel import AmalurCostModel, MorpheusRule, CostParameters, Decision
from repro.system import Amalur, ModelSpec, ExecutionPlan, TrainingResult

__version__ = "1.0.0"

__all__ = [
    "AmalurError",
    "Backend",
    "DenseBackend",
    "SparseBackend",
    "AutoBackend",
    "resolve_backend",
    "ScenarioType",
    "MappingMatrix",
    "IndicatorMatrix",
    "RedundancyMatrix",
    "IntegratedDataset",
    "SourceFactor",
    "integrate_tables",
    "star_schema",
    "AmalurMatrix",
    "AmalurCostModel",
    "MorpheusRule",
    "CostParameters",
    "Decision",
    "Amalur",
    "ModelSpec",
    "ExecutionPlan",
    "TrainingResult",
    "__version__",
]
