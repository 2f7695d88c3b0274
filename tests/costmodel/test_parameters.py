"""Tests for repro.costmodel.parameters."""

import dataclasses

import pytest

from repro.costmodel.parameters import CostParameters
from repro.exceptions import CostModelError
from repro.factorized import AmalurMatrix
from repro.factorized.ops_counter import FactorStats
from repro.metadata.mappings import ScenarioType


class TestRatios:
    def test_tuple_and_feature_ratio(self):
        parameters = CostParameters(
            source_shapes=[(1000, 1), (200, 100)],
            n_target_rows=1000,
            n_target_columns=101,
        )
        assert parameters.tuple_ratio == pytest.approx(1.0)
        assert parameters.smallest_source_tuple_ratio == pytest.approx(5.0)
        assert parameters.feature_ratio == pytest.approx(1.01)
        assert parameters.n_sources == 2
        assert parameters.total_source_cells == 1000 + 20000
        assert parameters.target_cells == 101000

    def test_target_redundancy(self):
        redundant = CostParameters(
            source_shapes=[(100, 1), (20, 100)], n_target_rows=100, n_target_columns=101
        )
        assert redundant.target_redundancy > 0.0
        lean = CostParameters(
            source_shapes=[(100, 50), (100, 50)], n_target_rows=100, n_target_columns=100
        )
        assert lean.target_redundancy == 0.0

    def test_source_redundancy(self):
        parameters = CostParameters(
            source_shapes=[(10, 2), (10, 2)],
            n_target_rows=10,
            n_target_columns=3,
            redundant_cells=10,
        )
        assert parameters.source_redundancy == pytest.approx(10 / 40)

    def test_default_null_ratios(self):
        parameters = CostParameters(
            source_shapes=[(10, 2), (5, 3)], n_target_rows=10, n_target_columns=5
        )
        assert parameters.null_ratios == [0.0, 0.0]


class TestValidation:
    def test_needs_sources(self):
        with pytest.raises(CostModelError):
            CostParameters(source_shapes=[], n_target_rows=1, n_target_columns=1)

    def test_rejects_negative_shapes(self):
        with pytest.raises(CostModelError):
            CostParameters(source_shapes=[(-1, 2)], n_target_rows=1, n_target_columns=1)
        with pytest.raises(CostModelError):
            CostParameters(source_shapes=[(1, 2)], n_target_rows=-1, n_target_columns=1)


class TestFromDataset:
    def test_hospital_dataset_parameters(self, hospital_dataset):
        parameters = CostParameters.from_dataset(hospital_dataset)
        assert parameters.source_shapes == [(4, 3), (3, 3)]
        assert parameters.n_target_rows == 6
        assert parameters.n_target_columns == 4
        assert parameters.overlap_rows == 1  # Jane
        assert parameters.overlap_columns == 2  # m and a
        assert parameters.redundant_cells == 2
        assert not parameters.has_full_tgds_only

    def test_mapped_rows_from_indicators(self, hospital_dataset):
        parameters = CostParameters.from_dataset(hospital_dataset)
        mapped = [factor.rows for factor in parameters.factors]
        assert mapped == [f.indicator.n_mapped for f in hospital_dataset.factors]
        # Full outer join: each source covers only part of the target rows.
        assert all(m < parameters.n_target_rows for m in mapped)

    def test_mapped_rows_default_to_full_coverage(self):
        parameters = CostParameters(
            source_shapes=[(10, 2), (4, 3)], n_target_rows=10, n_target_columns=5
        )
        assert [factor.rows for factor in parameters.factors] == [10, 10]
        assert len(parameters.factors) == parameters.n_sources

    def test_invalid_mapped_rows_rejected(self):
        with pytest.raises(CostModelError):
            CostParameters(
                source_shapes=[(10, 2)],
                n_target_rows=10,
                n_target_columns=5,
                factors=[FactorStats(stored=20, rows=11, cols=2)],
            )

    def test_mapped_rows_longer_than_sources_rejected(self):
        with pytest.raises(CostModelError):
            CostParameters(
                source_shapes=[(10, 2)],
                n_target_rows=10,
                n_target_columns=5,
                factors=[FactorStats(20, 10, 2), FactorStats(12, 4, 3)],
            )

    @pytest.mark.parametrize("label", ["m", "hr"])
    def test_factor_stats_are_the_compiled_plans_stats(self, hospital_dataset, label):
        """What the cost model reads from the metadata is what the operator
        plans of the target and of its feature view report."""
        labelled = dataclasses.replace(hospital_dataset, label_column=label)
        parameters = CostParameters.from_dataset(labelled)
        matrix = AmalurMatrix(labelled)
        features = matrix.feature_matrix_view()
        assert parameters.factors == [plan.stats() for plan in matrix._plans]
        assert parameters.feature_factors == [plan.stats() for plan in features._plans]
        assert sum(f.correction for f in parameters.feature_factors) > 0

    def test_inner_join_marks_full_tgds(self):
        from repro.datagen.hospital import hospital_integrated_dataset

        dataset = hospital_integrated_dataset(ScenarioType.INNER_JOIN)
        parameters = CostParameters.from_dataset(dataset)
        assert parameters.has_full_tgds_only

    def test_explicit_override(self, hospital_dataset):
        parameters = CostParameters.from_dataset(hospital_dataset, has_full_tgds_only=True)
        assert parameters.has_full_tgds_only
