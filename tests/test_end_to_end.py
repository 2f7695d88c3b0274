"""Cross-module integration tests: the full pipelines the paper motivates."""

import numpy as np
import pytest

from repro.costmodel.decision import Decision
from repro.costmodel.parameters import CostParameters
from repro.datagen.hamlet import generate_hamlet_dataset
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset, generate_scenario_tables
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.federated.party import Party
from repro.federated.vertical_lr import VerticalFederatedLinearRegression
from repro.learning.base import DenseMatrix
from repro.learning.linear_regression import LinearRegression
from repro.learning.logistic_regression import LogisticRegression
from repro.metadata.entity_resolution import resolve_entities
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import match_schemas
from repro.matrices.builder import integrate_tables
from repro.system.amalur import Amalur
from repro.system.plan import ModelSpec


class TestFeatureAugmentationPipeline:
    """Use case 1 (§II-B): discover, match, integrate, train — no manual metadata."""

    def test_pipeline_on_generated_silo_tables(self):
        spec = ScenarioSpec(
            scenario=ScenarioType.LEFT_JOIN,
            base_rows=80,
            other_rows=60,
            base_features=3,
            other_features=4,
            overlap_rows=50,
            overlap_columns=1,
            seed=13,
        )
        base, other, expected_matches, expected_rows, target_columns = generate_scenario_tables(spec)

        # Run the DI steps from scratch rather than using the generator's metadata.
        column_matches = match_schemas(base, other)
        matched_pairs = {(m.left_column, m.right_column) for m in column_matches}
        assert ("id", "id") in matched_pairs

        row_matches = resolve_entities(
            base.set_roles(keys=["id"]), other.set_roles(keys=["id"])
        )
        assert len(row_matches) == len(expected_rows)

        dataset = integrate_tables(
            base, other, column_matches, row_matches, target_columns,
            ScenarioType.LEFT_JOIN, label_column="label",
        )
        matrix = AmalurMatrix(dataset)
        labels = matrix.labels()
        model = LogisticRegression(learning_rate=0.2, n_iterations=80).fit(
            matrix.feature_matrix_view(), labels
        )
        assert model.score(matrix.feature_matrix_view(), labels) >= 0.5


class TestFactorizedTrainingSpeedupPath:
    """§IV: on a key–foreign-key workload the factorized path runs and matches."""

    def test_hamlet_style_dataset_training_equivalence(self):
        dataset = generate_hamlet_dataset("walmart", row_scale=0.003, seed=4)
        matrix = AmalurMatrix(dataset)
        target = dataset.materialize()
        label_index = dataset.target_columns.index("label")
        feature_indices = [i for i in range(target.shape[1]) if i != label_index]
        labels = target[:, label_index]

        factorized = LinearRegression(solver="gd", n_iterations=25, learning_rate=0.05,
                                      fit_intercept=False).fit(
            matrix.feature_matrix_view(), labels
        )
        materialized = LinearRegression(solver="gd", n_iterations=25, learning_rate=0.05,
                                        fit_intercept=False).fit(
            DenseMatrix(target[:, feature_indices]), labels
        )
        assert np.allclose(factorized.coef_, materialized.coef_)

    def test_cost_model_prefers_factorization_here(self):
        dataset = generate_hamlet_dataset("walmart", row_scale=0.02, seed=4)
        parameters = CostParameters.from_dataset(dataset)
        from repro.costmodel.amalur_cost import AmalurCostModel

        assert AmalurCostModel().predict_factorize(parameters, [("lmm", 1, 300)])


class TestVFLMatchesCentralized:
    """Invariant 6: VFL with exact alignment reproduces centralized training."""

    def test_vfl_from_integrated_dataset(self):
        dataset = generate_scenario_dataset(
            ScenarioSpec(
                scenario=ScenarioType.INNER_JOIN,
                base_rows=100,
                other_rows=80,
                base_features=2,
                other_features=3,
                overlap_rows=70,
                seed=21,
            )
        )
        target = dataset.materialize()
        label_index = dataset.target_columns.index("label")
        labels = target[:, label_index]
        features = np.delete(target, label_index, axis=1)

        base, other = dataset.factors
        base_feature_cols = [c for c in base.source_columns if base.mapping.correspondences[c] != "label"]
        base_indices = [base.source_columns.index(c) for c in base_feature_cols]
        label_local = base.source_columns[
            [base.mapping.correspondences[c] for c in base.source_columns].index("label")
        ]
        party_a = Party(
            "A",
            base.data[:, base_indices],
            base_feature_cols,
            labels=base.data[:, base.source_columns.index(label_local)],
        )
        other_feature_cols = [
            c for c in other.source_columns
            if other.mapping.correspondences[c] not in ("label",)
            and other.mapping.correspondences[c] not in [base.mapping.correspondences[b] for b in base_feature_cols]
        ]
        other_indices = [other.source_columns.index(c) for c in other_feature_cols]
        party_b = Party("B", other.data[:, other_indices], other_feature_cols)

        alignment = {
            "A": [int(base.indicator.compressed[i]) for i in range(dataset.n_target_rows)],
            "B": [int(other.indicator.compressed[i]) for i in range(dataset.n_target_rows)],
        }
        vfl = VerticalFederatedLinearRegression(
            learning_rate=0.05, n_iterations=60, use_encryption=True
        ).fit([party_a, party_b], alignment=alignment)

        ordered_features = np.hstack(
            [
                party_a.aligned_features(alignment["A"]),
                party_b.aligned_features(alignment["B"]),
            ]
        )
        central = LinearRegression(solver="gd", learning_rate=0.05, n_iterations=60).fit(
            ordered_features, party_a.aligned_labels(alignment["A"])
        )
        assert np.allclose(vfl.centralized_equivalent_weights(), central.coef_, atol=1e-8)
        assert vfl.intercept_ == pytest.approx(central.intercept_)


class TestOptimizerDecisionsAcrossScales:
    def test_decision_flips_with_scale(self):
        amalur = Amalur()
        small = generate_scenario_dataset(
            ScenarioSpec(scenario=ScenarioType.INNER_JOIN, base_rows=30, other_rows=25,
                         overlap_rows=20, seed=1)
        )
        small_plan = amalur.plan(small, ModelSpec(n_iterations=10))
        assert small_plan.strategy is Decision.MATERIALIZE

        from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair

        big = generate_integrated_pair(
            SyntheticSiloSpec(base_rows=60_000, base_columns=1, other_rows=600,
                              other_columns=120, redundancy_in_target=True, seed=2)
        )
        big_plan = amalur.plan(big, ModelSpec(n_iterations=500))
        assert big_plan.strategy is Decision.FACTORIZE
