"""Execute an :class:`repro.system.plan.ExecutionPlan` and train the model."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.costmodel.decision import Decision
from repro.exceptions import PlanError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.federated.horizontal import FederatedAveraging
from repro.federated.party import Party
from repro.federated.vertical_lr import VerticalFederatedLinearRegression
from repro.learning.base import DenseMatrix
from repro.learning.gaussian_nmf import GaussianNMF
from repro.learning.kmeans import KMeans
from repro.learning.linear_regression import LinearRegression
from repro.learning.logistic_regression import LogisticRegression
from repro.learning.metrics import accuracy_score, mean_squared_error, r2_score
from repro.matrices.builder import IntegratedDataset
from repro.metadata.mappings import ScenarioType
from repro.silos.orchestrator import Orchestrator
from repro.system.plan import ExecutionPlan, ModelSpec, TrainingResult


def supervised_learner(spec: ModelSpec, warm_from: Optional[object] = None):
    """The unfitted gradient-descent learner a supervised :class:`ModelSpec` names.

    ``"classification"`` is :class:`LogisticRegression`, ``"regression"``
    :class:`LinearRegression` on its default ``solver="gd"``, both with the
    spec's learning rate, iteration count and L2 penalty. ``warm_from`` is
    any trained model exposing ``coef_`` / ``intercept_``: the learner has
    ``warm_start`` on and starts from those weights (from zeros, by its own
    check, when their size does not fit the features). The executor and the
    serving session both fit through this factory.
    """
    learner = LogisticRegression if spec.task == "classification" else LinearRegression
    model = learner(
        learning_rate=spec.learning_rate,
        n_iterations=spec.n_iterations,
        l2_penalty=spec.l2_penalty,
        warm_start=warm_from is not None,
    )
    previous_coef = getattr(warm_from, "coef_", None)
    if previous_coef is not None:
        model.coef_ = np.array(previous_coef)
        # read by the logistic learner; the linear one recomputes its own
        model.intercept_ = float(getattr(warm_from, "intercept_", 0.0))
    return model


def _party(factor, source_columns: List[str], labels: Optional[np.ndarray]) -> Party:
    """The party holding ``source_columns`` of one factor, named by their target columns."""
    column_indices = [factor.source_columns.index(c) for c in source_columns]
    return Party(
        name=factor.name,
        data=factor.data[:, column_indices],
        feature_names=[factor.mapping.correspondences[c] for c in source_columns],
        labels=labels,
    )


class Executor:
    """Runs plans produced by :class:`repro.system.optimizer.Optimizer`."""

    def __init__(self, orchestrator: Optional[Orchestrator] = None):
        self.orchestrator = orchestrator or Orchestrator()

    def execute(
        self, plan: ExecutionPlan, warm_start_from: Optional[object] = None
    ) -> TrainingResult:
        """Run a plan; ``warm_start_from`` seeds GD weights from a prior model."""
        with _telemetry.span(
            "executor.execute", strategy=plan.strategy.value, task=plan.model.task
        ):
            baseline_bytes = self.orchestrator.network.total_bytes
            baseline_messages = self.orchestrator.network.n_messages

            if plan.strategy is Decision.FEDERATE:
                result = self._execute_federated(plan)
            else:
                result = self._execute_central(plan, warm_start_from)

            result.bytes_transferred = self.orchestrator.network.total_bytes - baseline_bytes
            result.n_messages = self.orchestrator.network.n_messages - baseline_messages
            return result

    # -- centralized strategies (materialize / factorize) ---------------------------------
    def _execute_central(
        self, plan: ExecutionPlan, warm_start_from: Optional[object] = None
    ) -> TrainingResult:
        dataset = plan.dataset
        model_spec = plan.model
        if plan.strategy is Decision.MATERIALIZE:
            target = self.orchestrator.materialize_target(dataset)
            features, labels = self._split_features_labels(dataset, target)
            operand = DenseMatrix(features)
        elif plan.strategy is Decision.FACTORIZE:
            matrix = AmalurMatrix(dataset, backend=plan.backend)
            labels = matrix.labels() if dataset.label_column else None
            operand = matrix.feature_matrix_view()
            # Account the per-iteration silo traffic of pushdown: the operand
            # (weights) goes out, the partial results come back, once per
            # training iteration and per source.
            self._account_factorized_traffic(dataset, model_spec)
        else:  # pragma: no cover - defensive
            raise PlanError(f"unsupported central strategy {plan.strategy!r}")

        model, metrics, predictions = self._train_central(
            operand, labels, model_spec, warm_start_from
        )
        return TrainingResult(plan=plan, model=model, metrics=metrics, predictions=predictions)

    def _account_factorized_traffic(
        self, dataset: IntegratedDataset, model_spec: ModelSpec
    ) -> None:
        operand_bytes = np.zeros(len(dataset.feature_columns))
        partial_bytes = np.zeros(dataset.n_target_rows)
        for _ in range(max(model_spec.n_iterations, 1)):
            for factor in dataset.factors:
                silo_name = factor.name
                self.orchestrator.network.send(
                    Orchestrator.ORCHESTRATOR, silo_name, "weights", operand_bytes
                )
                self.orchestrator.network.send(
                    silo_name, Orchestrator.ORCHESTRATOR, "partial_result", partial_bytes
                )

    def _split_features_labels(
        self, dataset: IntegratedDataset, target: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if dataset.label_column is None:
            return target, None
        label_index = dataset.target_columns.index(dataset.label_column)
        feature_indices = [i for i in range(target.shape[1]) if i != label_index]
        return target[:, feature_indices], target[:, label_index]

    def _train_central(
        self, operand, labels, model_spec: ModelSpec, warm_start_from=None
    ):
        task = model_spec.task
        if task in ("classification", "regression"):
            if labels is None:
                raise PlanError(f"{task} requires a label column")
            model = supervised_learner(model_spec, warm_start_from)
            try:
                model.fit(operand, labels)
            except ValueError as error:
                # Learner complaints (bad labels, shape mismatches) leave the
                # facade as PlanError, inside the repro exception hierarchy.
                raise PlanError(str(error)) from error
            predictions = model.predict(operand)
            if task == "classification":
                metrics = {
                    "accuracy": accuracy_score(labels, predictions),
                    "log_loss": model.loss_history_[-1] if model.loss_history_ else float("nan"),
                }
            else:
                metrics = {
                    "mse": mean_squared_error(labels, predictions),
                    "r2": r2_score(labels, predictions),
                }
            return model, metrics, predictions
        if task == "clustering":
            model = KMeans(
                n_clusters=model_spec.n_clusters, n_iterations=model_spec.n_iterations
            ).fit(operand)
            return model, {"inertia": model.inertia_}, model.labels_
        if task == "nmf":
            model = GaussianNMF(
                n_components=model_spec.n_components, n_iterations=model_spec.n_iterations
            ).fit(operand)
            return model, {"reconstruction_error": model.reconstruction_error_}, None
        raise PlanError(f"unknown task {task!r}")

    # -- federated strategy --------------------------------------------------------------
    def _execute_federated(self, plan: ExecutionPlan) -> TrainingResult:
        dataset = plan.dataset
        if dataset.scenario is ScenarioType.UNION:
            return self._execute_horizontal(plan)
        return self._execute_vertical(plan)

    def _execute_vertical(self, plan: ExecutionPlan) -> TrainingResult:
        dataset = plan.dataset
        model_spec = plan.model
        if dataset.label_column is None:
            raise PlanError("vertical federated learning requires a label column")
        if model_spec.task != "regression":
            raise PlanError(
                f"vertical federated learning trains regression only, not {model_spec.task!r} "
                "(its rounds run gd.descend, so logistic VFL is one gd.LINKS lookup away)"
            )
        parties, alignment = self._parties_from_dataset(dataset)
        model = VerticalFederatedLinearRegression(
            learning_rate=model_spec.learning_rate,
            n_iterations=model_spec.n_iterations,
            l2_penalty=model_spec.l2_penalty,
            use_encryption=True,
            network=self.orchestrator.network,
        ).fit(parties, alignment=alignment)
        report = model.report_
        metrics = {
            "final_loss": report.final_loss,
            "aligned_rows": float(report.n_aligned_rows),
            "encryption_operations": float(report.encryption_operations),
        }
        predictions = model.predict(parties, alignment=alignment)
        return TrainingResult(plan=plan, model=model, metrics=metrics, predictions=predictions)

    def _execute_horizontal(self, plan: ExecutionPlan) -> TrainingResult:
        dataset = plan.dataset
        model_spec = plan.model
        if dataset.label_column is None:
            raise PlanError("horizontal federated learning requires a label column")
        parties = []
        label = dataset.label_column
        feature_columns = dataset.feature_columns
        for factor in dataset.factors:
            mapped_targets = [
                factor.mapping.correspondences[c] for c in factor.source_columns
            ]
            if label not in mapped_targets:
                raise PlanError(
                    f"HFL requires every source to hold the label column; {factor.name!r} does not"
                )
            feature_locals = [
                source_col
                for source_col, target_col in zip(factor.source_columns, mapped_targets)
                if target_col in feature_columns
            ]
            parties.append(
                _party(factor, feature_locals, factor.data[:, mapped_targets.index(label)])
            )
        task_model = "logistic" if plan.model.task == "classification" else "linear"
        model = FederatedAveraging(
            model=task_model,
            n_rounds=model_spec.n_iterations,
            learning_rate=model_spec.learning_rate,
            network=self.orchestrator.network,
        ).fit(parties)
        metrics = {"final_loss": model.report_.final_loss}
        return TrainingResult(plan=plan, model=model, metrics=metrics)

    def _parties_from_dataset(
        self, dataset: IntegratedDataset
    ) -> Tuple[List[Party], Dict[str, np.ndarray]]:
        """Build one VFL party per source factor, aligned on shared target rows.

        The shared sample space is the set of target rows covered by every
        source (the inner-join rows); each party's aligned row order is its
        compressed indicator restricted to those rows — the §V-A
        construction ``X_k = I_k D_k M_kᵀ``.
        """
        label = dataset.label_column
        shared_rows = None
        for factor in dataset.factors:
            covered = factor.indicator.mapped_target_rows()
            shared_rows = covered if shared_rows is None else np.intersect1d(
                shared_rows, covered, assume_unique=True
            )
        if shared_rows is None or not shared_rows.size:
            raise PlanError("the sources share no rows; vertical federated learning is impossible")

        parties: List[Party] = []
        alignment: Dict[str, np.ndarray] = {}
        label_assigned = False
        for factor in dataset.factors:
            mapped_targets = [factor.mapping.correspondences[c] for c in factor.source_columns]
            labels = None
            if label is not None and label in mapped_targets and not label_assigned:
                label_index = mapped_targets.index(label)
                labels = factor.data[:, label_index]
                label_assigned = True
            feature_locals = [
                source_col
                for source_col, target_col in zip(factor.source_columns, mapped_targets)
                if target_col != label
            ]
            # Drop feature columns whose every shared-row cell is redundant —
            # another party already contributes them. The restriction of R_k
            # to the shared rows never densifies the mask; column_mask() gives
            # the redundant fraction per target column.
            shared_redundancy = factor.redundancy.submatrix(
                shared_rows, np.arange(len(dataset.target_columns))
            )
            redundant_fraction = shared_redundancy.column_mask()
            keep = []
            for source_col in feature_locals:
                target_col = factor.mapping.correspondences[source_col]
                target_index = dataset.target_columns.index(target_col)
                if redundant_fraction[target_index] < 1.0:
                    keep.append(source_col)
            if not keep and labels is None:
                continue
            parties.append(_party(factor, keep, labels))
            alignment[factor.name] = factor.indicator.compressed[shared_rows]
        if not any(p.has_labels for p in parties):
            raise PlanError("no party ended up holding the label column")
        return parties, alignment
