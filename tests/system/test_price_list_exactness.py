"""The cost model's predicted FLOPs are the operators' counters, exactly.

The optimizer prices the operator sequence the executor runs through the
same per-operator charge functions the operators add to their counters
(:mod:`repro.factorized.ops_counter`). So after a factorized fit the
telemetry ``flops.<label>`` counters equal the plan's predicted
``cost_breakdown.flops`` for every label, on dense (BLAS) and sparse (CSR)
factors, with and without source redundancy.
"""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from repro import telemetry
from repro.costmodel.decision import Decision
from repro.costmodel.parameters import CostParameters
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.metadata.mappings import ScenarioType
from repro.system.executor import Executor
from repro.system.optimizer import Optimizer
from repro.system.plan import ModelSpec


def _sparsified(dataset, keep: float, seed: int):
    """``dataset`` with every factor's cells kept with probability ``keep``
    and stored as CSR, labels included (they stay 0/1)."""
    rng = np.random.default_rng(seed)
    factors = []
    for factor in dataset.factors:
        mask = rng.random(factor.data.shape) < keep
        factors.append(dataclasses.replace(factor, data=sparse.csr_matrix(factor.data * mask)))
    return dataclasses.replace(dataset, factors=factors)


def _dataset(scenario: ScenarioType, density: str):
    dataset = generate_scenario_dataset(
        ScenarioSpec(
            scenario=scenario,
            base_rows=60,
            other_rows=40,
            base_features=5,
            other_features=6,
            overlap_rows=25,
            overlap_columns=2,
            seed=11,
        )
    )
    return dataset if density == "dense" else _sparsified(dataset, keep=0.05, seed=3)


@pytest.mark.parametrize("task", ["regression", "classification", "nmf"])
@pytest.mark.parametrize("density", ["dense", "sparse"])
@pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
def test_predicted_flops_equal_the_counters(scenario, density, task):
    dataset = _dataset(scenario, density)
    plan = Optimizer().plan(dataset, ModelSpec(task, n_iterations=7, n_components=3))
    parameters = CostParameters.from_dataset(dataset)
    kernel = "dense" if density == "dense" else "sparse"
    assert parameters.backend_choices == [kernel] * dataset.n_sources
    if plan.strategy is not Decision.FACTORIZE:
        plan = dataclasses.replace(
            plan, strategy=Decision.FACTORIZE, backend=Optimizer._select_backend(parameters)
        )

    with telemetry.collect(sample_memory=False) as session:
        Executor().execute(plan)
    counters = {
        name[len("flops."):]: value
        for name, value in session.report().counters.items()
        if name.startswith("flops.")
    }

    predicted = plan.cost_breakdown.flops
    assert counters and predicted
    for label in sorted(set(counters) | set(predicted)):
        assert counters.get(label, 0.0) == predicted.get(label, 0.0), label
    assert plan.cost_breakdown.factorize_compute == sum(counters.values())
