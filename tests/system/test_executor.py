"""Tests for repro.system.executor under all three strategies."""

import numpy as np
import pytest

from repro.costmodel.decision import Decision
from repro.datagen.hospital import hospital_integrated_dataset
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.exceptions import PlanError
from repro.metadata.mappings import ScenarioType
from repro.silos.orchestrator import Orchestrator
from repro.silos.silo import DataSilo
from repro.system.executor import Executor
from repro.system.plan import ExecutionPlan, ModelSpec


def make_plan(dataset, strategy, model=None):
    return ExecutionPlan(strategy=strategy, dataset=dataset, model=model or ModelSpec())


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

    def test_vfl_on_hospital_inner_join(self):
        dataset = hospital_integrated_dataset(ScenarioType.INNER_JOIN)
        # Only one shared row (Jane): training runs but stays tiny.
        result = Executor().execute(
            make_plan(dataset, Decision.FEDERATE, ModelSpec(task="regression", n_iterations=5,
                                                            learning_rate=0.0001))
        )
        assert result.metrics["aligned_rows"] == 1
