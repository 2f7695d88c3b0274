"""Tests for repro.system.executor under all three strategies."""

import numpy as np
import pytest

from repro.costmodel.decision import Decision
from repro.datagen.hospital import hospital_integrated_dataset
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.exceptions import PlanError
from repro.learning.linear_regression import LinearRegression
from repro.metadata.mappings import ScenarioType
from repro.silos.orchestrator import Orchestrator
from repro.silos.silo import DataSilo
from repro.system.executor import Executor
from repro.system.plan import ExecutionPlan, ModelSpec


def make_plan(dataset, strategy, model=None):
    return ExecutionPlan(strategy=strategy, dataset=dataset, model=model or ModelSpec())


def federated_weights(result, dataset):
    """A FEDERATE result's weights in ``dataset.feature_columns`` order."""
    parties, _ = Executor()._parties_from_dataset(dataset)
    names = [name for party in parties for name in party.feature_names]
    assert sorted(names) == sorted(dataset.feature_columns)
    weights = dict(zip(names, result.model.centralized_equivalent_weights()))
    return np.array([weights[name] for name in dataset.feature_columns])


@pytest.fixture
def scenario_inner():
    return generate_scenario_dataset(
        ScenarioSpec(
            scenario=ScenarioType.INNER_JOIN,
            base_rows=60,
            other_rows=50,
            base_features=3,
            other_features=3,
            overlap_rows=40,
            seed=5,
        )
    )


@pytest.fixture
def hospital_executor(hospital):
    s1, s2 = hospital
    orchestrator = Orchestrator()
    er, pulmonary = DataSilo("er"), DataSilo("pulmonary")
    er.add_table(s1)
    pulmonary.add_table(s2)
    orchestrator.register_silo(er)
    orchestrator.register_silo(pulmonary)
    return Executor(orchestrator)


class TestCentralStrategies:
    def test_materialized_classification(self, hospital_executor, hospital_dataset):
        plan = make_plan(
            hospital_dataset, Decision.MATERIALIZE, ModelSpec(task="classification", n_iterations=30)
        )
        result = hospital_executor.execute(plan)
        assert "accuracy" in result.metrics
        assert result.bytes_transferred > 0

    def test_factorized_equals_materialized_model(self, scenario_inner):
        executor = Executor()
        spec = ModelSpec(task="regression", learning_rate=0.05, n_iterations=40)
        factorized = executor.execute(make_plan(scenario_inner, Decision.FACTORIZE, spec))
        materialized = Executor().execute(make_plan(scenario_inner, Decision.MATERIALIZE, spec))
        assert np.allclose(factorized.model.coef_, materialized.model.coef_)
        assert factorized.metrics["mse"] == pytest.approx(materialized.metrics["mse"])

    def test_factorized_traffic_accounted_per_iteration(self, scenario_inner):
        executor = Executor()
        spec = ModelSpec(task="regression", n_iterations=10)
        result = executor.execute(make_plan(scenario_inner, Decision.FACTORIZE, spec))
        # weights out + partials back per source per iteration
        assert result.n_messages == 10 * scenario_inner.n_sources * 2

    def test_clustering_and_nmf_tasks(self, scenario_inner):
        executor = Executor()
        clustering = executor.execute(
            make_plan(scenario_inner, Decision.FACTORIZE, ModelSpec(task="clustering", n_iterations=10))
        )
        assert "inertia" in clustering.metrics
        nmf_plan = make_plan(
            scenario_inner, Decision.MATERIALIZE, ModelSpec(task="nmf", n_iterations=10)
        )
        nmf = Executor().execute(nmf_plan)
        assert "reconstruction_error" in nmf.metrics

    def test_unknown_task_rejected(self, scenario_inner):
        with pytest.raises(PlanError):
            Executor().execute(
                make_plan(scenario_inner, Decision.MATERIALIZE, ModelSpec(task="gan"))
            )

    def test_classification_without_labels_rejected(self, scenario_inner):
        unlabeled = generate_scenario_dataset(
            ScenarioSpec(scenario=ScenarioType.INNER_JOIN, base_rows=20, other_rows=20, overlap_rows=10)
        )
        unlabeled.label_column = None
        with pytest.raises(PlanError):
            Executor().execute(make_plan(unlabeled, Decision.MATERIALIZE, ModelSpec()))


    @pytest.mark.parametrize("strategy", [Decision.FACTORIZE, Decision.MATERIALIZE])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_join_without_matched_rows_is_a_plan_error(self, strategy, task):
        """A 0-row target has no gradient: a PlanError, not a model of NaNs."""
        empty = generate_scenario_dataset(
            ScenarioSpec(
                scenario=ScenarioType.INNER_JOIN, base_rows=20, other_rows=20,
                overlap_rows=0, seed=1,
            )
        )
        assert empty.n_target_rows == 0
        with pytest.raises(PlanError, match="no rows"):
            Executor().execute(make_plan(empty, strategy, ModelSpec(task, n_iterations=3)))


class TestFederatedStrategy:
    def test_vertical_federated_training(self, scenario_inner):
        result = Executor().execute(
            make_plan(
                scenario_inner,
                Decision.FEDERATE,
                ModelSpec(task="regression", learning_rate=0.05, n_iterations=30),
            )
        )
        assert result.metrics["aligned_rows"] == scenario_inner.n_target_rows
        assert result.metrics["encryption_operations"] > 0
        assert result.bytes_transferred > 0

    def test_horizontal_federated_training(self):
        dataset = generate_scenario_dataset(
            ScenarioSpec(scenario=ScenarioType.UNION, base_rows=60, other_rows=50, seed=2)
        )
        result = Executor().execute(
            make_plan(dataset, Decision.FEDERATE, ModelSpec(task="classification", n_iterations=20))
        )
        assert "final_loss" in result.metrics

    def test_vertical_without_labels_rejected(self, scenario_inner):
        scenario_inner.label_column = None
        with pytest.raises(PlanError):
            Executor().execute(make_plan(scenario_inner, Decision.FEDERATE, ModelSpec()))

    @pytest.mark.parametrize("task", ["classification", "clustering", "nmf"])
    def test_vertical_trains_regression_only(self, scenario_inner, task):
        with pytest.raises(PlanError, match=task):
            Executor().execute(
                make_plan(scenario_inner, Decision.FEDERATE, ModelSpec(task=task, n_iterations=3))
            )

    @pytest.mark.parametrize("overlap_columns", [0, 2])
    def test_federate_returns_the_factorized_model(self, overlap_columns):
        """On an inner join every target row is an aligned row, so the two
        strategies train one model — also when both sources store a column
        and FEDERATE drops the redundant copy."""
        dataset = generate_scenario_dataset(
            ScenarioSpec(
                scenario=ScenarioType.INNER_JOIN, base_rows=60, other_rows=50, base_features=3,
                other_features=3, overlap_rows=40, overlap_columns=overlap_columns, seed=5,
            )
        )
        spec = ModelSpec(task="regression", learning_rate=0.05, n_iterations=30)
        federated = Executor().execute(make_plan(dataset, Decision.FEDERATE, spec))
        factorized = Executor().execute(make_plan(dataset, Decision.FACTORIZE, spec))
        assert federated_weights(federated, dataset) == pytest.approx(
            factorized.model.coef_, abs=1e-10
        )
        assert federated.model.intercept_ == pytest.approx(factorized.model.intercept_, abs=1e-10)
        assert np.max(np.abs(federated.predictions - factorized.predictions)) <= 1e-10
        assert federated.metrics["final_loss"] == pytest.approx(
            factorized.model.loss_history_[-1], abs=1e-10
        )

    def test_federate_on_a_left_join_trains_on_the_rows_every_source_covers(self):
        dataset = generate_scenario_dataset(
            ScenarioSpec(
                scenario=ScenarioType.LEFT_JOIN, base_rows=60, other_rows=50, base_features=3,
                other_features=3, overlap_rows=40, seed=5,
            )
        )
        spec = ModelSpec(task="regression", learning_rate=0.05, n_iterations=30)
        federated = Executor().execute(make_plan(dataset, Decision.FEDERATE, spec))
        covered = np.flatnonzero(
            np.all([factor.indicator.compressed >= 0 for factor in dataset.factors], axis=0)
        )
        assert federated.metrics["aligned_rows"] == covered.size == 40 < dataset.n_target_rows
        target = dataset.materialize()[covered]
        columns = [dataset.target_columns.index(c) for c in dataset.feature_columns]
        central = LinearRegression(solver="gd", learning_rate=0.05, n_iterations=30).fit(
            target[:, columns], target[:, dataset.target_columns.index(dataset.label_column)]
        )
        assert federated_weights(federated, dataset) == pytest.approx(central.coef_, abs=1e-10)
        assert federated.model.intercept_ == pytest.approx(central.intercept_, abs=1e-10)
        assert np.max(
            np.abs(federated.predictions - central.predict(target[:, columns]))
        ) <= 1e-10

    def test_vfl_on_hospital_inner_join(self):
        dataset = hospital_integrated_dataset(ScenarioType.INNER_JOIN)
        # Only one shared row (Jane): training runs but stays tiny.
        result = Executor().execute(
            make_plan(dataset, Decision.FEDERATE, ModelSpec(task="regression", n_iterations=5,
                                                            learning_rate=0.0001))
        )
        assert result.metrics["aligned_rows"] == 1
