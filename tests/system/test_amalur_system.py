"""End-to-end tests of the Amalur facade (paper Figure 3 workflow)."""

import numpy as np
import pytest

from repro.costmodel.decision import Decision
from repro.exceptions import CatalogError
from repro.metadata.mappings import ScenarioType
from repro.silos.silo import PrivacyLevel
from repro.system.amalur import Amalur
from repro.system.plan import ModelSpec
from repro.system.requests import IntegrationConfig, TrainRequest


@pytest.fixture
def amalur_hospital(hospital):
    s1, s2 = hospital
    amalur = Amalur()
    amalur.add_silo("er")
    amalur.add_table("er", s1)
    amalur.add_silo("pulmonary")
    amalur.add_table("pulmonary", s2)
    return amalur


def _hospital_config(other="S2", columns=("m", "a", "hr", "o"),
                     scenario=ScenarioType.FULL_OUTER_JOIN):
    return IntegrationConfig(
        base="S1", other=other, target_columns=list(columns),
        scenario=scenario, label_column="m",
    )


class TestWorkflow:
    def test_discovery_finds_the_pulmonary_table(self, amalur_hospital):
        candidates = amalur_hospital.discover("S1", label_column="m")
        assert candidates[0].table_name == "S2"
        assert "o" in candidates[0].new_features

    def test_integrate_records_di_metadata(self, amalur_hospital):
        dataset = amalur_hospital.integrate(_hospital_config())
        assert dataset.shape == (6, 4)
        record = amalur_hospital.catalog.di_metadata("S1", "S2")
        assert record.column_matches
        assert record.row_matches
        assert record.schema_mapping.classify() is ScenarioType.FULL_OUTER_JOIN

    def test_automatic_matching_reproduces_manual_metadata(self, amalur_hospital):
        """Automatic schema matching + ER must rebuild the Figure 2 target."""
        dataset = amalur_hospital.integrate(_hospital_config())
        from repro.datagen.hospital import hospital_integrated_dataset

        manual = hospital_integrated_dataset(ScenarioType.FULL_OUTER_JOIN)
        assert np.allclose(dataset.materialize(), manual.materialize())

    def test_train_registers_model_metadata(self, amalur_hospital):
        dataset = amalur_hospital.integrate(_hospital_config())
        result = amalur_hospital.train(
            TrainRequest(model=ModelSpec(task="classification", n_iterations=20), dataset=dataset)
        )
        assert result.strategy in (Decision.MATERIALIZE, Decision.FACTORIZE)
        assert amalur_hospital.catalog.model_names == ["model_1"]
        metadata = amalur_hospital.catalog.model("model_1")
        assert metadata.training_datasets == ["S1", "S2"]
        assert "accuracy" in metadata.metrics

    def test_private_silos_train_federated(self, hospital):
        s1, s2 = hospital
        amalur = Amalur()
        amalur.add_silo("er", privacy=PrivacyLevel.PRIVATE)
        amalur.add_table("er", s1)
        amalur.add_silo("pulmonary", privacy=PrivacyLevel.PRIVATE)
        amalur.add_table("pulmonary", s2)
        dataset = amalur.integrate(_hospital_config(scenario=ScenarioType.INNER_JOIN))
        plan = amalur.plan(dataset, ModelSpec(task="regression", n_iterations=5, learning_rate=1e-4))
        assert plan.strategy is Decision.FEDERATE
        result = amalur.train(TrainRequest(model=plan.model, dataset=dataset, plan=plan))
        assert result.metrics["aligned_rows"] == 1.0

    def test_network_traffic_visible_on_facade(self, amalur_hospital):
        dataset = amalur_hospital.integrate(_hospital_config())
        amalur_hospital.train(
            TrainRequest(model=ModelSpec(task="classification", n_iterations=10), dataset=dataset)
        )
        assert amalur_hospital.network.total_bytes > 0

    def test_unknown_table_raises(self, amalur_hospital):
        with pytest.raises(CatalogError):
            amalur_hospital.integrate(
                _hospital_config("missing", ["m"], ScenarioType.INNER_JOIN)
            )

    def test_tables_listing(self, amalur_hospital):
        assert amalur_hospital.tables == ["S1", "S2"]
