"""The Amalur facade: end-to-end ML over data silos (paper Figure 3).

The public API is request-based: :class:`IntegrationConfig` describes what
to integrate, :class:`TrainRequest` / :class:`PredictRequest` describe what
to run, and trained models are addressed through :class:`ModelHandle`\\ s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro import telemetry as _telemetry
from repro.costmodel.amalur_cost import AmalurCostModel
from repro.exceptions import ServiceError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.matrices.builder import IntegratedDataset, integrate_tables
from repro.metadata.catalog import MetadataCatalog, ModelMetadata
from repro.metadata.discovery import AugmentationCandidate, DataDiscovery
from repro.metadata.entity_resolution import resolve_entities
from repro.metadata.mappings import build_scenario_mapping
from repro.metadata.schema_matching import HybridMatcher, SchemaMatcher, match_schemas
from repro.relational.table import Table
from repro.silos.network import SimulatedNetwork
from repro.silos.orchestrator import Orchestrator
from repro.silos.silo import DataSilo, PrivacyLevel
from repro.system.executor import Executor
from repro.system.optimizer import Optimizer
from repro.system.plan import ExecutionPlan, ModelHandle, ModelSpec, TrainingResult
from repro.system.requests import (
    IntegrationConfig,
    PredictRequest,
    TrainRequest,
)


class Amalur:
    """An ML-oriented data integration system over data silos.

    Typical workflow (mirroring Figure 3)::

        amalur = Amalur()
        amalur.add_silo("er", privacy=PrivacyLevel.OPEN)
        amalur.add_table("er", s1)
        amalur.add_silo("pulmonary")
        amalur.add_table("pulmonary", s2)

        candidates = amalur.discover(base="S1", label_column="m")
        config = IntegrationConfig(base="S1", other="S2",
                                   target_columns=["m", "a", "hr", "o"],
                                   scenario=ScenarioType.FULL_OUTER_JOIN,
                                   label_column="m")
        dataset = amalur.integrate(config)
        result = amalur.train(TrainRequest(model=ModelSpec(task="classification"),
                                           dataset=dataset))
        scores = amalur.predict(dataset, PredictRequest(model=result.handle))

    For online workloads, :meth:`open_session` keeps the integrated dataset
    resident under incremental delta maintenance and :meth:`serve` fronts
    sessions with a bounded worker pool (see :mod:`repro.serving`).
    """

    def __init__(
        self,
        matcher: Optional[SchemaMatcher] = None,
        cost_model: Optional[AmalurCostModel] = None,
        network: Optional[SimulatedNetwork] = None,
    ):
        self.catalog = MetadataCatalog()
        self.orchestrator = Orchestrator(network=network)
        self.matcher = matcher or HybridMatcher()
        self.optimizer = Optimizer(orchestrator=self.orchestrator, cost_model=cost_model)
        self.executor = Executor(orchestrator=self.orchestrator)
        self._model_counter = 0
        self._models: Dict[str, TrainingResult] = {}
        self._last_model_name: Optional[str] = None

    # -- silo & catalog management ------------------------------------------------------
    def add_silo(self, name: str, privacy: PrivacyLevel = PrivacyLevel.OPEN) -> DataSilo:
        silo = DataSilo(name, privacy=privacy)
        self.orchestrator.register_silo(silo)
        return silo

    def add_table(self, silo_name: str, table: Table) -> None:
        silo = self.orchestrator.silo(silo_name)
        silo.add_table(table)
        self.orchestrator.register_table(silo_name, table.name)
        self.catalog.register_source(table, silo=silo_name)

    @property
    def tables(self) -> List[str]:
        return self.catalog.source_names

    # -- discovery and integration --------------------------------------------------------
    def discover(
        self, base: str, label_column: str, top_k: Optional[int] = None
    ) -> List[AugmentationCandidate]:
        """Rank catalog tables as feature-augmentation candidates for ``base``."""
        discovery = DataDiscovery(self.catalog, matcher=self.matcher)
        return discovery.discover(self.catalog.table(base), label_column, top_k=top_k)

    def integrate(self, config: IntegrationConfig) -> IntegratedDataset:
        """Match, resolve and build the factorized representation of two sources.

        Schema matching and entity resolution run automatically and their
        outputs (the DI metadata) are recorded in the catalog together with
        the generated schema mapping.
        """
        with _telemetry.span(
            "amalur.integrate", base=config.base, other=config.other,
            scenario=config.scenario.value,
        ):
            base, other, column_matches, row_matches = self._resolve_sources(config)
            return integrate_tables(
                base=base,
                other=other,
                column_matches=column_matches,
                row_matches=row_matches,
                target_columns=config.target_columns,
                scenario=config.scenario,
                label_column=config.label_column,
                name=config.name,
                backend=config.backend,
            )

    def open_session(self, config: IntegrationConfig, **session_options):
        """A long-lived :class:`~repro.serving.DatasetSession` over catalog tables.

        The session keeps the integrated dataset resident (compiled operator
        plans, seeded Gram cache) and folds :class:`DeltaBatch` mutations in
        incrementally; see :mod:`repro.serving`. ``session_options`` pass
        through (``staleness_threshold``, ``auto_rebuild``).
        """
        from repro.serving.session import DatasetSession

        base, other, column_matches = self._match_sources(config)
        return DatasetSession(
            base, other, config, column_matches=column_matches, **session_options
        )

    def serve(
        self,
        n_workers: int = 4,
        max_queue: int = 64,
        default_timeout: Optional[float] = None,
        max_rows_per_request: Optional[int] = None,
    ):
        """A fresh :class:`~repro.serving.AmalurService` worker pool."""
        from repro.serving.service import AmalurService

        return AmalurService(
            n_workers=n_workers,
            max_queue=max_queue,
            default_timeout=default_timeout,
            max_rows_per_request=max_rows_per_request,
        )

    # -- planning and training --------------------------------------------------------------
    def plan(self, dataset: IntegratedDataset, model: ModelSpec) -> ExecutionPlan:
        return self.optimizer.plan(dataset, model)

    def train(self, request: TrainRequest) -> TrainingResult:
        """Plan (unless given) and execute training, registering the model.

        The :class:`TrainRequest` carries the dataset, the model spec, an
        optional pre-built plan and an explicit ``model_name``; without a
        name the model registers as ``model_{counter}``.
        """
        dataset = request.dataset
        if dataset is None:
            raise ServiceError(
                "TrainRequest.dataset is required for facade training "
                "(session-resident training goes through DatasetSession.train)"
            )
        spec = request.model
        with _telemetry.span("amalur.train", task=spec.task, dataset=dataset.name):
            execution_plan = request.plan or self.optimizer.plan(dataset, spec)
            warm_from = None
            if request.warm_start and request.model_name in self._models:
                warm_from = self._models[request.model_name].model
            result = self.executor.execute(execution_plan, warm_start_from=warm_from)
        auto_named = request.model_name is None
        if auto_named:
            self._model_counter += 1
            name = f"model_{self._model_counter}"
        else:
            name = request.model_name
        handle = ModelHandle(
            name=name, task=spec.task, dataset=dataset.name, auto_named=auto_named
        )
        result.handle = handle
        metadata = ModelMetadata(
            name=name,
            model_type=spec.task,
            hyperparameters={
                "learning_rate": spec.learning_rate,
                "n_iterations": spec.n_iterations,
                "l2_penalty": spec.l2_penalty,
            },
            metrics=dict(result.metrics),
            training_datasets=[factor.name for factor in dataset.factors],
        )
        self.catalog.register_model(metadata)
        self._models[name] = result
        self._last_model_name = name
        return result

    def predict(
        self,
        dataset: IntegratedDataset,
        request: Optional[PredictRequest] = None,
    ) -> np.ndarray:
        """Predict with a previously trained model over a dataset's target rows.

        ``request.model`` names the model (a :class:`ModelHandle` or string);
        ``None`` uses the most recently trained one. ``row_range`` restricts
        the output to target rows ``[start, stop)``.
        """
        request = request or PredictRequest()
        name = request.model_name or self._last_model_name
        if name is None or name not in self._models:
            raise ServiceError(
                f"no trained model named {name!r}; trained: {sorted(self._models)}"
            )
        trained = self._models[name].model
        if trained is None or not hasattr(trained, "predict"):
            raise ServiceError(
                f"model {name!r} does not support prediction"
            )
        n_rows = dataset.n_target_rows
        start, stop = request.row_range if request.row_range is not None else (0, n_rows)
        if not (0 <= start <= stop <= n_rows):
            raise ServiceError(
                f"row range [{start}, {stop}) outside target rows [0, {n_rows})"
            )
        matrix = AmalurMatrix(dataset)
        with _telemetry.span("amalur.predict", model=name, dataset=dataset.name):
            scores = np.asarray(trained.predict(matrix.feature_matrix_view()))
        return scores[int(start):int(stop)]

    def model_result(self, handle: Union[ModelHandle, str]) -> TrainingResult:
        """The :class:`TrainingResult` registered under a handle or name."""
        name = handle.name if isinstance(handle, ModelHandle) else str(handle)
        if name not in self._models:
            raise ServiceError(
                f"no trained model named {name!r}; trained: {sorted(self._models)}"
            )
        return self._models[name]

    # -- observability ----------------------------------------------------------------------
    @staticmethod
    def run_report():
        """The active telemetry session's run report (``None`` when disabled).

        Enable collection with :func:`repro.telemetry.enable` (or the
        :func:`repro.telemetry.collect` context manager) before running the
        pipeline, then call this to obtain the structured
        :class:`~repro.telemetry.report.RunReport` — spans, counters,
        histograms and memory probes.
        """
        return _telemetry.run_report()

    # -- traffic accounting ---------------------------------------------------------------
    @property
    def network(self) -> SimulatedNetwork:
        return self.orchestrator.network

    def _match_sources(self, config: IntegrationConfig):
        """Catalog lookup, schema matching and mapping, recorded in the catalog."""
        base = self.catalog.table(config.base)
        other = self.catalog.table(config.other)
        column_matches = match_schemas(base, other, matcher=self.matcher)
        self.catalog.record_column_matches(config.base, config.other, column_matches)
        mapping = build_scenario_mapping(
            base, other, column_matches, config.target_columns, config.scenario,
            target_name=config.name,
        )
        self.catalog.record_schema_mapping(config.base, config.other, mapping)
        return base, other, column_matches

    def _resolve_sources(self, config: IntegrationConfig):
        """:meth:`_match_sources` plus entity resolution (recorded likewise)."""
        base, other, column_matches = self._match_sources(config)
        row_matches = resolve_entities(base, other, column_matches=column_matches)
        self.catalog.record_row_matches(config.base, config.other, row_matches)
        return base, other, column_matches, row_matches
