"""The Amalur optimizer: choose factorize, materialize or federate (Figure 3).

Given the integrated dataset (hence its DI metadata), the model to train
and the privacy constraints of the silos holding the sources, the
optimizer produces an :class:`repro.system.plan.ExecutionPlan`:

1. if any participating silo forbids exporting even derived aggregates,
   the learning process is split across silos — federated learning;
2. otherwise the DI-metadata cost model of §IV-B, pricing the operator
   sequence the model's learner runs (:func:`operator_sequence`), decides
   between factorized pushdown and central materialization.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.backends import AutoBackend, Backend, DenseBackend, SparseBackend
from repro.costmodel.amalur_cost import AmalurCostModel
from repro.costmodel.decision import Decision, DecisionAdvisor
from repro.costmodel.parameters import CostParameters
from repro.exceptions import CatalogError
from repro.matrices.builder import IntegratedDataset
from repro.metadata.mappings import ScenarioType
from repro.silos.orchestrator import Orchestrator
from repro.system.plan import ExecutionPlan, ModelSpec, PlanStep


def operator_sequence(model: ModelSpec, has_labels: bool) -> List[Tuple[str, int, int]]:
    """The ``(operator, m, count)`` calls the executor makes on a factorized
    target to train ``model``: the label read, when there is a label, then
    per GD iteration one ``lmm`` and one ``transpose_lmm`` and a predict
    ``lmm``; GNMF's ``||T||²`` (a square summed by a ``transpose_lmm``) and
    per iteration H update, W update and error; KMeans' row norms (a square
    summed by an ``lmm``), one row read per seed, and per iteration
    distances and centre sums, then the final distances. KMeans' early stop
    and empty-cluster re-seeds are not priced."""
    n = max(model.n_iterations, 0)
    sequence = [("labels", 1, 1)] if has_labels else []
    if model.task == "nmf":
        k = model.n_components
        return sequence + [
            ("square", 1, 1), ("transpose_lmm", 1, 1),
            ("transpose_lmm", k, 2 * n), ("lmm", k, n),
        ]
    if model.task == "clustering":
        k = model.n_clusters
        return sequence + [
            ("square", 1, 1), ("lmm", 1, 1), ("transpose_lmm", 1, k),
            ("lmm", k, n + 1), ("transpose_lmm", k, n),
        ]
    return sequence + [("lmm", 1, n), ("transpose_lmm", 1, n), ("lmm", 1, 1)]


class Optimizer:
    """Cost- and constraint-based strategy selection."""

    def __init__(
        self,
        orchestrator: Optional[Orchestrator] = None,
        cost_model: Optional[AmalurCostModel] = None,
    ):
        self.orchestrator = orchestrator
        self.cost_model = cost_model or AmalurCostModel()

    def plan(self, dataset: IntegratedDataset, model: ModelSpec) -> ExecutionPlan:
        """Produce an execution plan for training ``model`` over ``dataset``."""
        federated_reason = self._federation_required(dataset)
        if federated_reason:
            return self._federated_plan(dataset, model, federated_reason)

        advisor = DecisionAdvisor(method="amalur", cost_model=self.cost_model)
        parameters = CostParameters.from_dataset(dataset)
        sequence = operator_sequence(model, dataset.label_column is not None)
        outcome = advisor.decide(parameters, sequence)

        steps = []
        backend: Optional[Backend] = None
        if outcome.decision is Decision.FACTORIZE:
            backend = self._select_backend(parameters)
            for factor, kernel in zip(dataset.factors, parameters.backend_choices):
                steps.append(
                    PlanStep(
                        f"push model operators down to the silo ({kernel} kernel)",
                        target=factor.name,
                    )
                )
            steps.append(PlanStep("assemble local results with redundancy masks"))
            steps.append(PlanStep("iterate gradient updates centrally"))
        else:
            for factor in dataset.factors:
                steps.append(PlanStep("export source table to the orchestrator", target=factor.name))
            steps.append(PlanStep("materialize the target table (join + dedup)"))
            steps.append(PlanStep("train the model on the materialized target"))
        return ExecutionPlan(
            strategy=outcome.decision,
            dataset=dataset,
            model=model,
            steps=steps,
            cost_breakdown=outcome.breakdown,
            explanation=outcome.explanation,
            backend=backend,
        )

    @staticmethod
    def _select_backend(parameters: CostParameters) -> Backend:
        """Pick the execution backend from the per-source density decisions.

        All-dense sources run the plain dense engine, all-sparse sources the
        CSR engine; a mix gets the per-factor dispatcher, all three sharing
        the threshold the cost model priced the plan with.
        """
        choices = set(parameters.backend_choices)
        if choices == {"sparse"}:
            return SparseBackend()
        if choices == {"dense"}:
            return DenseBackend()
        return AutoBackend(parameters.sparse_density_threshold)

    # -- helpers ------------------------------------------------------------------
    def _federation_required(self, dataset: IntegratedDataset) -> str:
        """Return a reason string when privacy constraints force FL, else ''."""
        if self.orchestrator is None:
            return ""
        for factor in dataset.factors:
            try:
                silo = self.orchestrator.silo_of_table(factor.name)
            except CatalogError:
                # No registered silo holds this factor (a synthetic or
                # derived dataset): nothing to constrain. Any other
                # failure must surface — swallowing it would silently
                # skip a privacy constraint.
                continue
            if not silo.allows_factorized_pushdown:
                return (
                    f"silo {silo.name!r} holding {factor.name!r} is private; "
                    "training must be split across silos"
                )
            if not silo.allows_export and dataset.scenario is ScenarioType.UNION:
                return (
                    f"silo {silo.name!r} cannot export rows and the union scenario has no "
                    "shared sample space for pushdown; use horizontal federated learning"
                )
        return ""

    def _federated_plan(
        self, dataset: IntegratedDataset, model: ModelSpec, reason: str
    ) -> ExecutionPlan:
        steps = [PlanStep("run private entity alignment (PSI) across silos")]
        if dataset.scenario is ScenarioType.UNION:
            steps.append(PlanStep("run federated averaging over the shared feature space"))
        else:
            steps.append(PlanStep("split the model vertically over the parties"))
            steps.append(PlanStep("exchange encrypted partial predictions and gradients"))
        return ExecutionPlan(
            strategy=Decision.FEDERATE,
            dataset=dataset,
            model=model,
            steps=steps,
            explanation=reason,
        )
