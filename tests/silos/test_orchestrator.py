"""Tests for repro.silos.orchestrator."""

import numpy as np
import pytest

from repro.datagen.synthetic import OneHotSpec, generate_one_hot_pair
from repro.exceptions import CatalogError, PrivacyError
from repro.factorized import AmalurMatrix
from repro.silos.orchestrator import Orchestrator
from repro.silos.silo import DataSilo, PrivacyLevel


@pytest.fixture
def hospital_orchestrator(hospital):
    s1, s2 = hospital
    orchestrator = Orchestrator()
    er = DataSilo("er")
    er.add_table(s1)
    pulmonary = DataSilo("pulmonary")
    pulmonary.add_table(s2)
    orchestrator.register_silo(er)
    orchestrator.register_silo(pulmonary)
    return orchestrator


class TestRegistry:
    def test_silo_and_table_lookup(self, hospital_orchestrator):
        assert hospital_orchestrator.silo_names == ["er", "pulmonary"]
        assert hospital_orchestrator.silo("er").name == "er"
        assert hospital_orchestrator.silo_of_table("S2").name == "pulmonary"
        assert hospital_orchestrator.table_names == ["S1", "S2"]
        assert len(list(hospital_orchestrator.all_tables())) == 2

    def test_missing_lookups(self, hospital_orchestrator):
        with pytest.raises(CatalogError):
            hospital_orchestrator.silo("nope")
        with pytest.raises(CatalogError):
            hospital_orchestrator.silo_of_table("nope")


class TestMaterializedExecution:
    def test_export_accounts_bytes(self, hospital_orchestrator):
        tables = hospital_orchestrator.export_sources(["S1", "S2"])
        assert [t.name for t in tables] == ["S1", "S2"]
        assert hospital_orchestrator.network.total_bytes > 0
        assert hospital_orchestrator.network.n_messages == 2

    def test_export_blocked_by_privacy(self, hospital):
        s1, _ = hospital
        orchestrator = Orchestrator()
        silo = DataSilo("locked", privacy=PrivacyLevel.AGGREGATES_ONLY)
        silo.add_table(s1)
        orchestrator.register_silo(silo)
        with pytest.raises(PrivacyError):
            orchestrator.export_sources(["S1"])

    def test_materialize_target(self, hospital_orchestrator, hospital_dataset):
        target = hospital_orchestrator.materialize_target(hospital_dataset)
        assert target.shape == (6, 4)
        # Both source data matrices crossed the network.
        assert hospital_orchestrator.network.n_messages == 2

    def test_materialize_charges_a_csr_factor_without_densifying_it(self):
        dataset = generate_one_hot_pair(
            OneHotSpec(n_rows=2_000, n_categories=200, n_entities=500), backend="auto"
        )
        dataset.label_column = "x0"
        onehot = dataset.factors[1]
        assert onehot._dense_data is None  # stored as CSR
        orchestrator = Orchestrator()
        target = orchestrator.materialize_target(dataset)
        assert onehot._dense_data is None
        assert np.array_equal(target, dataset.materialize())
        # Bytes shipped are the dense blocks: rows x columns x 8 per factor.
        assert orchestrator.network.total_bytes == sum(
            factor.n_rows * factor.n_columns * 8 for factor in dataset.factors
        )
        view = AmalurMatrix(dataset, backend="auto").feature_matrix_view()
        assert view.storage_formats()[1] == "csr"

    def test_materialize_blocked_for_private_silo(self, hospital, hospital_dataset):
        s1, s2 = hospital
        orchestrator = Orchestrator()
        private = DataSilo("er", privacy=PrivacyLevel.AGGREGATES_ONLY)
        private.add_table(s1)
        open_silo = DataSilo("pulmonary")
        open_silo.add_table(s2)
        orchestrator.register_silo(private)
        orchestrator.register_silo(open_silo)
        with pytest.raises(PrivacyError):
            orchestrator.materialize_target(hospital_dataset)


class TestFactorizedExecution:
    def test_factorized_lmm_matches_central(self, hospital_orchestrator, hospital_dataset, rng):
        operand = rng.standard_normal((4, 2))
        result = hospital_orchestrator.factorized_lmm(hospital_dataset, operand)
        assert np.allclose(result, hospital_dataset.materialize() @ operand)
        # operand out + partial result back, per source
        assert hospital_orchestrator.network.n_messages == 4

    def test_factorized_transpose_lmm(self, hospital_orchestrator, hospital_dataset, rng):
        operand = rng.standard_normal((6, 3))
        result = hospital_orchestrator.factorized_transpose_lmm(hospital_dataset, operand)
        assert np.allclose(result, hospital_dataset.materialize().T @ operand)

    def test_pushdown_allowed_for_aggregates_only_silo(self, hospital, hospital_dataset, rng):
        s1, s2 = hospital
        orchestrator = Orchestrator()
        restricted = DataSilo("er", privacy=PrivacyLevel.AGGREGATES_ONLY)
        restricted.add_table(s1)
        open_silo = DataSilo("pulmonary")
        open_silo.add_table(s2)
        orchestrator.register_silo(restricted)
        orchestrator.register_silo(open_silo)
        operand = rng.standard_normal((4, 1))
        result = orchestrator.factorized_lmm(hospital_dataset, operand)
        assert np.allclose(result, hospital_dataset.materialize() @ operand)

    def test_pushdown_blocked_for_private_silo(self, hospital, hospital_dataset, rng):
        s1, s2 = hospital
        orchestrator = Orchestrator()
        private = DataSilo("er", privacy=PrivacyLevel.PRIVATE)
        private.add_table(s1)
        open_silo = DataSilo("pulmonary")
        open_silo.add_table(s2)
        orchestrator.register_silo(private)
        orchestrator.register_silo(open_silo)
        with pytest.raises(PrivacyError):
            orchestrator.factorized_lmm(hospital_dataset, rng.standard_normal((4, 1)))
