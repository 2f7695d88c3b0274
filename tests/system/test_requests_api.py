"""The request-based facade API: config objects and handles."""

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import CatalogError, PlanError, ServiceError
from repro.metadata.mappings import ScenarioType
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.system import (
    Amalur,
    IntegrationConfig,
    ModelHandle,
    ModelSpec,
    PredictRequest,
    TrainRequest,
)

HOSPITAL_CONFIG = IntegrationConfig(
    base="S1", other="S2", target_columns=["m", "a", "hr", "o"],
    scenario=ScenarioType.FULL_OUTER_JOIN, label_column="m",
)


@pytest.fixture
def amalur(hospital):
    s1, s2 = hospital
    system = Amalur()
    system.add_silo("er")
    system.add_table("er", s1)
    system.add_silo("pulmonary")
    system.add_table("pulmonary", s2)
    return system


class TestIntegrationConfig:
    def test_config_records_di_metadata(self, amalur):
        amalur.integrate(HOSPITAL_CONFIG)
        record = amalur.catalog.di_metadata("S1", "S2")
        assert record.column_matches
        assert record.row_matches
        assert record.schema_mapping.classify() is ScenarioType.FULL_OUTER_JOIN

    def test_empty_target_columns_rejected(self):
        with pytest.raises(ServiceError):
            IntegrationConfig(
                base="S1", other="S2", target_columns=[],
                scenario=ScenarioType.INNER_JOIN,
            )

    def test_unknown_table_still_catalog_error(self, amalur):
        config = IntegrationConfig(
            base="S1", other="missing", target_columns=["m"],
            scenario=ScenarioType.INNER_JOIN,
        )
        with pytest.raises(CatalogError):
            amalur.integrate(config)


class TestTrainRequestAndHandles:
    def test_train_request_returns_handle(self, amalur):
        dataset = amalur.integrate(HOSPITAL_CONFIG)
        result = amalur.train(
            TrainRequest(
                model=ModelSpec(task="classification", n_iterations=10),
                dataset=dataset,
                model_name="mortality",
            )
        )
        assert result.handle == ModelHandle(
            name="mortality", task="classification", dataset="T", auto_named=False
        )
        assert amalur.catalog.model("mortality").model_type == "classification"
        assert amalur.model_result(result.handle) is result

    def test_counter_naming_remains_the_default(self, amalur):
        dataset = amalur.integrate(HOSPITAL_CONFIG)
        result = amalur.train(
            TrainRequest(model=ModelSpec(task="classification", n_iterations=5),
                         dataset=dataset)
        )
        assert result.handle.name == "model_1"
        assert result.handle.auto_named is True
        # the handle and the bare counter string address the same metadata
        assert amalur.catalog.model(result.handle) is amalur.catalog.model("model_1")

    def test_train_without_dataset_rejected(self, amalur):
        with pytest.raises(ServiceError):
            amalur.train(TrainRequest(model=ModelSpec(task="classification")))

    def test_predict_with_handle_and_row_range(self, amalur):
        dataset = amalur.integrate(HOSPITAL_CONFIG)
        result = amalur.train(
            TrainRequest(model=ModelSpec(task="classification", n_iterations=10),
                         dataset=dataset, model_name="m1")
        )
        full = amalur.predict(dataset, PredictRequest(model=result.handle))
        assert full.shape == (dataset.n_target_rows,)
        window = amalur.predict(
            dataset, PredictRequest(model="m1", row_range=(1, 4))
        )
        assert np.array_equal(window, full[1:4])
        # default: the most recently trained model
        assert np.array_equal(amalur.predict(dataset), full)

    def test_predict_unknown_model_rejected(self, amalur):
        dataset = amalur.integrate(HOSPITAL_CONFIG)
        with pytest.raises(ServiceError):
            amalur.predict(dataset, PredictRequest(model="ghost"))

    def test_predict_rejects_row_range_before_doing_the_work(self, amalur):
        """An invalid range fails fast: no operator plan compiled, no
        ``amalur.predict`` span opened."""
        dataset = amalur.integrate(HOSPITAL_CONFIG)
        amalur.train(TrainRequest(
            model=ModelSpec(task="classification", n_iterations=5), dataset=dataset,
        ))
        for row_range in ((5, 2), (0, dataset.n_target_rows + 1), (-1, 3)):
            with telemetry.collect() as session:
                with pytest.raises(ServiceError, match="row range"):
                    amalur.predict(dataset, PredictRequest(row_range=row_range))
            report = session.report()
            assert "amalur.predict" not in {span.name for span in report.spans}
            assert not [name for name in report.counters if name.startswith("plan_cache.")]

    def test_non_binary_labels_raise_from_the_repro_hierarchy(self, amalur):
        """Learner ValueErrors surface as PlanError from the facade and as
        ServiceError from a session (and through the service), never bare."""
        table = Table(
            "S3",
            Schema([
                Column("id", DataType.INT, is_key=True),
                Column("y", DataType.INT, is_label=True),
                Column("x", DataType.FLOAT),
            ]),
            {"id": [0, 1, 2], "y": [0, 1, 2], "x": [0.1, 0.2, 0.3]},
        )
        amalur.add_silo("extra")
        amalur.add_table("extra", table)
        amalur.add_table("er", Table(
            "S4",
            Schema([
                Column("id", DataType.INT, is_key=True),
                Column("z", DataType.FLOAT),
            ]),
            {"id": [0, 1, 2], "z": [1.0, 2.0, 3.0]},
        ))
        config = IntegrationConfig(
            base="S3", other="S4", target_columns=["y", "x", "z"],
            scenario=ScenarioType.INNER_JOIN, label_column="y",
        )
        spec = ModelSpec(task="classification", n_iterations=3)
        message = r"labels must be binary 0/1, found \[2\.0\]"
        with pytest.raises(PlanError, match=message):
            amalur.train(TrainRequest(model=spec, dataset=amalur.integrate(config)))
        session = amalur.open_session(config)
        with pytest.raises(ServiceError, match=message):
            session.train(TrainRequest(model=spec))
        with amalur.serve(n_workers=1, max_queue=2) as service:
            service.register_session("labels", session)
            with pytest.raises(ServiceError, match=message):
                service.train("labels", TrainRequest(model=spec))


class TestOrchestratorRegistration:
    def test_add_table_registers_idempotently(self, amalur, hospital):
        s1, _ = hospital
        orchestrator = amalur.orchestrator
        assert orchestrator.silo_of_table("S1").name == "er"
        # re-adding the same table only refreshes that one mapping
        amalur.add_table("er", s1)
        assert orchestrator.silo_of_table("S1").name == "er"

    def test_register_table_unknown_table_rejected(self, amalur):
        with pytest.raises(CatalogError):
            amalur.orchestrator.register_table("er", "nope")


class TestOpenSessionFacade:
    def test_open_session_serves_catalog_tables(self, amalur):
        session = amalur.open_session(HOSPITAL_CONFIG)
        assert session.n_target_rows == 6
        batch_dataset = amalur.integrate(HOSPITAL_CONFIG)
        assert np.allclose(
            session.dataset.materialize(), batch_dataset.materialize()
        )
        # the session run also recorded the DI metadata
        assert amalur.catalog.di_metadata("S1", "S2").column_matches

    def test_serve_builds_a_service(self, amalur):
        session = amalur.open_session(HOSPITAL_CONFIG)
        with amalur.serve(n_workers=2, max_queue=4) as service:
            service.register_session("hospital", session)
            result = service.train(
                "hospital",
                TrainRequest(model=ModelSpec(task="classification",
                                             n_iterations=10)),
            )
            assert result.handle.name == "default"
            scores = service.predict("hospital").predictions
            assert scores.shape == (6,)
