"""Tests for repro.system.optimizer and repro.system.plan."""

import pytest

from repro.costmodel.decision import Decision
from repro.datagen.hospital import hospital_integrated_dataset, hospital_tables
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.metadata.mappings import ScenarioType
from repro.silos.orchestrator import Orchestrator
from repro.silos.silo import DataSilo, PrivacyLevel
from repro.system.optimizer import Optimizer
from repro.system.plan import ModelSpec, PlanStep


def orchestrator_with(privacy_s1=PrivacyLevel.OPEN, privacy_s2=PrivacyLevel.OPEN):
    s1, s2 = hospital_tables()
    orchestrator = Orchestrator()
    silo1 = DataSilo("er", privacy=privacy_s1)
    silo1.add_table(s1)
    silo2 = DataSilo("pulmonary", privacy=privacy_s2)
    silo2.add_table(s2)
    orchestrator.register_silo(silo1)
    orchestrator.register_silo(silo2)
    return orchestrator


class TestStrategySelection:
    def test_small_open_dataset_materializes(self, hospital_dataset):
        plan = Optimizer(orchestrator_with()).plan(hospital_dataset, ModelSpec())
        assert plan.strategy is Decision.MATERIALIZE
        assert plan.cost_breakdown is not None
        assert any("materialize" in step.description for step in plan.steps)

    def test_private_silo_forces_federated(self, hospital_dataset):
        orchestrator = orchestrator_with(privacy_s1=PrivacyLevel.PRIVATE)
        plan = Optimizer(orchestrator).plan(hospital_dataset, ModelSpec())
        assert plan.strategy is Decision.FEDERATE
        assert "private" in plan.explanation

    def test_high_redundancy_dataset_factorizes(self):
        dataset = generate_integrated_pair(
            SyntheticSiloSpec(
                base_rows=50_000,
                base_columns=1,
                other_rows=500,
                other_columns=100,
                redundancy_in_target=True,
                seed=0,
            )
        )
        plan = Optimizer().plan(dataset, ModelSpec(n_iterations=300))
        assert plan.strategy is Decision.FACTORIZE
        assert any("push model operators" in step.description for step in plan.steps)

    def test_optimizer_without_orchestrator_never_federates(self, hospital_dataset):
        plan = Optimizer().plan(hospital_dataset, ModelSpec())
        assert plan.strategy in (Decision.FACTORIZE, Decision.MATERIALIZE)

    def test_unregistered_table_constrains_nothing(self, hospital_dataset):
        # "no registered silo holds table" is the one lookup failure that
        # means "no privacy constraint here".
        plan = Optimizer(Orchestrator()).plan(hospital_dataset, ModelSpec())
        assert plan.strategy in (Decision.FACTORIZE, Decision.MATERIALIZE)

    def test_failing_silo_lookup_is_not_swallowed(self, hospital_dataset):
        # Any other failure must propagate: skipping it would silently
        # drop the privacy check of the silo behind the failing lookup.
        class BrokenOrchestrator(Orchestrator):
            def silo_of_table(self, table_name):
                raise RuntimeError("catalog backend unavailable")

        with pytest.raises(RuntimeError, match="catalog backend unavailable"):
            Optimizer(BrokenOrchestrator()).plan(hospital_dataset, ModelSpec())

    def test_union_with_no_export_silo_federates(self):
        dataset = hospital_integrated_dataset(ScenarioType.UNION)
        orchestrator = orchestrator_with(privacy_s1=PrivacyLevel.AGGREGATES_ONLY)
        plan = Optimizer(orchestrator).plan(dataset, ModelSpec())
        assert plan.strategy is Decision.FEDERATE
        assert any("federated averaging" in step.description for step in plan.steps)


class TestPlanArtifacts:
    def test_describe_renders_steps_and_reason(self, hospital_dataset):
        plan = Optimizer(orchestrator_with()).plan(hospital_dataset, ModelSpec())
        text = plan.describe()
        assert "strategy:" in text and "reason:" in text and "1." in text

    def test_model_spec_describe(self):
        spec = ModelSpec(task="regression", learning_rate=0.1, n_iterations=10)
        assert "regression" in spec.describe()

    def test_plan_step_target_rendering(self, hospital_dataset):
        plan = Optimizer(orchestrator_with()).plan(hospital_dataset, ModelSpec())
        assert any(isinstance(step, PlanStep) and step.target for step in plan.steps)
