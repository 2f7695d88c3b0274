"""Tests for the Morpheus heuristic, the Amalur cost model and the advisor."""

import pytest

from repro.costmodel.amalur_cost import AmalurCostModel
from repro.costmodel.decision import Decision, DecisionAdvisor, measure_ground_truth
from repro.costmodel.morpheus_rule import MorpheusRule
from repro.costmodel.parameters import CostParameters
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.factorized.normalized_matrix import AmalurMatrix


def star_parameters(base_rows, dim_rows, dim_cols):
    """Key–foreign-key join parameters (redundancy in the target)."""
    return CostParameters(
        source_shapes=[(base_rows, 1), (dim_rows, dim_cols)],
        n_target_rows=base_rows,
        n_target_columns=1 + dim_cols,
    )


def lmms(count, m=1):
    """``count`` LMMs with an ``m``-column operand, as a cost sequence."""
    return [("lmm", m, count)]


class TestMorpheusRule:
    def test_factorizes_high_tuple_ratio(self):
        parameters = star_parameters(base_rows=100_000, dim_rows=1_000, dim_cols=100)
        assert MorpheusRule().predict_factorize(parameters)

    def test_materializes_low_tuple_ratio(self):
        parameters = star_parameters(base_rows=1_000, dim_rows=900, dim_cols=100)
        assert not MorpheusRule().predict_factorize(parameters)

    def test_feature_ratio_threshold(self):
        # The entity table has 1 column and the dimension table 100, so the
        # source feature ratio is 101; an (artificially) stricter threshold
        # must veto factorization even when the tuple ratio is high.
        parameters = star_parameters(base_rows=100_000, dim_rows=1_000, dim_cols=100)
        strict = MorpheusRule(feature_ratio_threshold=500.0)
        assert not strict.predict_factorize(parameters)

    def test_explain_mentions_both_ratios(self):
        parameters = star_parameters(1000, 100, 10)
        text = MorpheusRule().explain(parameters)
        assert "tuple_ratio" in text and "feature_ratio" in text

    def test_ignores_redundancy_information(self):
        """The baseline's blind spot: source redundancy does not change it."""
        plain = star_parameters(10_000, 2_000, 100)
        redundant = CostParameters(
            source_shapes=plain.source_shapes,
            n_target_rows=plain.n_target_rows,
            n_target_columns=plain.n_target_columns,
            redundant_cells=50_000,
        )
        rule = MorpheusRule()
        assert rule.predict_factorize(plain) == rule.predict_factorize(redundant)


class TestAmalurCostModel:
    def test_factorize_wins_with_target_redundancy_and_reuse(self):
        parameters = star_parameters(base_rows=50_000, dim_rows=1_000, dim_cols=100)
        model = AmalurCostModel()
        assert model.predict_factorize(parameters, lmms(100))

    def test_materialize_wins_when_target_not_larger(self):
        parameters = CostParameters(
            source_shapes=[(1_000, 50), (1_000, 50)],
            n_target_rows=1_000,
            n_target_columns=100,
        )
        model = AmalurCostModel()
        assert not model.predict_factorize(parameters, lmms(100))

    def test_example_iv1_pruning_rule(self):
        """Full tgds + target no larger than sources ⇒ materialize outright."""
        parameters = CostParameters(
            source_shapes=[(100_000, 1), (20_000, 100)],
            n_target_rows=20_000,
            n_target_columns=101,
            has_full_tgds_only=True,
        )
        breakdown = AmalurCostModel().breakdown(parameters, lmms(1000))
        assert breakdown.pruned_by_tgd_rule
        assert not AmalurCostModel().predict_factorize(parameters, lmms(1000))

    def test_more_calls_lower_the_builds_share(self):
        parameters = star_parameters(base_rows=20_000, dim_rows=500, dim_cols=100)
        single_pass = AmalurCostModel().breakdown(parameters, lmms(1))
        many_passes = AmalurCostModel().breakdown(parameters, lmms(200))
        assert many_passes.materialize_integration == single_pass.materialize_integration
        assert (
            many_passes.materialize_integration / many_passes.materialized_total
            < single_pass.materialize_integration / single_pass.materialized_total
        )

    def test_redundant_cells_penalize_factorization(self):
        base = star_parameters(10_000, 500, 50)
        redundant = CostParameters(
            source_shapes=base.source_shapes,
            n_target_rows=base.n_target_rows,
            n_target_columns=base.n_target_columns,
            redundant_cells=200_000,
        )
        model = AmalurCostModel()
        assert (
            model.breakdown(redundant, lmms(1)).factorized_total
            > model.breakdown(base, lmms(1)).factorized_total
        )

    def test_breakdown_speedup_and_explain(self):
        parameters = star_parameters(50_000, 1_000, 100)
        model = AmalurCostModel()
        breakdown = model.breakdown(parameters, lmms(50))
        assert breakdown.predicted_speedup > 0
        explanation = model.explain(parameters, lmms(50))
        assert "factorize" in explanation or "materialize" in explanation

    def test_null_ratio_reduces_factorized_cost(self):
        dense = star_parameters(10_000, 500, 100)
        sparse = CostParameters(
            source_shapes=dense.source_shapes,
            n_target_rows=dense.n_target_rows,
            n_target_columns=dense.n_target_columns,
            null_ratios=[0.0, 0.9],
        )
        model = AmalurCostModel()
        assert (
            model.breakdown(sparse, lmms(1)).factorized_total
            < model.breakdown(dense, lmms(1)).factorized_total
        )


class TestDecisionAdvisor:
    def test_amalur_method_returns_breakdown(self):
        advisor = DecisionAdvisor(method="amalur")
        outcome = advisor.decide(star_parameters(50_000, 1_000, 100), lmms(1))
        assert outcome.decision in (Decision.FACTORIZE, Decision.MATERIALIZE)
        assert outcome.breakdown is not None

    def test_morpheus_method(self):
        advisor = DecisionAdvisor(method="morpheus")
        outcome = advisor.decide(star_parameters(100_000, 1_000, 100), lmms(1))
        assert outcome.decision is Decision.FACTORIZE
        assert outcome.breakdown is None

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            DecisionAdvisor(method="???").decide(star_parameters(10, 5, 2), lmms(1))


class TestGroundTruthMeasurement:
    def test_measure_ground_truth_times_both_strategies(self):
        dataset = generate_integrated_pair(
            SyntheticSiloSpec(
                base_rows=2_000, base_columns=1, other_rows=50, other_columns=60, seed=0
            )
        )
        factorized_s, materialized_s = measure_ground_truth(
            AmalurMatrix(dataset), lmms(1), repeats=1
        )
        assert factorized_s > 0 and materialized_s > 0

    def test_extreme_redundancy_favours_factorization(self):
        """With a huge tuple ratio the factorized LMM must win the stopwatch."""
        dataset = generate_integrated_pair(
            SyntheticSiloSpec(
                base_rows=20_000,
                base_columns=1,
                other_rows=20,
                other_columns=200,
                redundancy_in_target=True,
                seed=1,
            )
        )
        factorized_s, materialized_s = measure_ground_truth(
            AmalurMatrix(dataset), lmms(1), repeats=3
        )
        assert factorized_s < materialized_s
