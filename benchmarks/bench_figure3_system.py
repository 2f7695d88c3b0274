"""Figure 3 reproduction: the Amalur end-to-end workflow.

Figure 3 sketches the system: user inputs (model + constraints), the hybrid
metadata catalog fed by schema matching / entity resolution / discovery,
the optimizer choosing factorization / materialization / federated
learning, and execution over the silos. The harness runs the full facade
under the three constraint settings and reports which strategy the
optimizer picked, the training metrics, and the bytes that crossed silo
boundaries.
"""

from __future__ import annotations


from repro.costmodel.decision import Decision
from repro.datagen.hospital import hospital_tables
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.metadata.mappings import ScenarioType
from repro.silos.silo import PrivacyLevel
from repro.system.amalur import Amalur
from repro.system.plan import ModelSpec
from repro.system.requests import IntegrationConfig, TrainRequest


def build_system(privacy=PrivacyLevel.OPEN, scale="small"):
    if scale == "small":
        base, other = hospital_tables()
        target_columns = ["m", "a", "hr", "o"]
        label = "m"
    else:
        spec = ScenarioSpec(
            scenario=ScenarioType.LEFT_JOIN,
            base_rows=2_000,
            other_rows=1_500,
            base_features=4,
            other_features=6,
            overlap_rows=1_200,
            seed=3,
        )
        base, other, _, _, target_columns = generate_scenario_tables(spec)
        base = base.set_roles(keys=["id"], label="label")
        other = other.set_roles(keys=["id"])
        label = "label"
    amalur = Amalur()
    amalur.add_silo("silo_a", privacy=privacy)
    amalur.add_table("silo_a", base)
    amalur.add_silo("silo_b", privacy=privacy)
    amalur.add_table("silo_b", other)
    return amalur, base.name, other.name, target_columns, label


def run_workflow(privacy=PrivacyLevel.OPEN, scale="small", scenario=ScenarioType.FULL_OUTER_JOIN,
                 task="classification", n_iterations=30, learning_rate=0.01):
    amalur, base_name, other_name, target_columns, label = build_system(privacy, scale)
    dataset = amalur.integrate(IntegrationConfig(
        base=base_name, other=other_name, target_columns=target_columns,
        scenario=scenario, label_column=label,
    ))
    spec = ModelSpec(task=task, n_iterations=n_iterations, learning_rate=learning_rate)
    plan = amalur.plan(dataset, spec)
    result = amalur.train(TrainRequest(model=spec, dataset=dataset, plan=plan))
    return amalur, plan, result


def test_benchmark_open_silo_workflow(benchmark):
    """End-to-end workflow with open silos (materialize or factorize)."""
    result = benchmark.pedantic(
        lambda: run_workflow(scale="large", scenario=ScenarioType.LEFT_JOIN,
                             task="classification", n_iterations=20, learning_rate=0.1),
        rounds=3, iterations=1,
    )
    _, plan, outcome = result
    assert plan.strategy in (Decision.MATERIALIZE, Decision.FACTORIZE)
    assert "accuracy" in outcome.metrics


def test_benchmark_private_silo_workflow(benchmark):
    """End-to-end workflow when privacy constraints force federated learning."""
    result = benchmark.pedantic(
        lambda: run_workflow(privacy=PrivacyLevel.PRIVATE, scale="large",
                             scenario=ScenarioType.INNER_JOIN, task="regression",
                             n_iterations=20, learning_rate=0.05),
        rounds=2, iterations=1,
    )
    _, plan, outcome = result
    assert plan.strategy is Decision.FEDERATE
    assert outcome.metrics["aligned_rows"] > 0


def test_report_figure3(report, benchmark):
    """Regenerate the Figure 3 narrative: inputs → optimizer decision → execution."""
    lines = ["Figure 3: Amalur workflow under different constraints", "=" * 64]
    configurations = [
        ("open silos, hospital example", PrivacyLevel.OPEN, "small",
         ScenarioType.FULL_OUTER_JOIN, "classification", 0.01),
        ("open silos, 2k-row feature augmentation", PrivacyLevel.OPEN, "large",
         ScenarioType.LEFT_JOIN, "classification", 0.1),
        ("private silos, 2k-row vertical FL", PrivacyLevel.PRIVATE, "large",
         ScenarioType.INNER_JOIN, "regression", 0.05),
    ]
    for label, privacy, scale, scenario, task, lr in configurations:
        amalur, plan, result = run_workflow(
            privacy=privacy, scale=scale, scenario=scenario, task=task,
            n_iterations=25, learning_rate=lr,
        )
        lines.append(f"configuration: {label}")
        lines.append(f"  optimizer decision : {plan.strategy.value}")
        lines.append(f"  reason             : {plan.explanation or 'cost-based'}")
        metrics = ", ".join(f"{k}={v:.4g}" for k, v in result.metrics.items())
        lines.append(f"  training metrics   : {metrics}")
        lines.append(f"  silo-boundary bytes: {result.bytes_transferred:,}")
        lines.append(f"  messages exchanged : {result.n_messages}")
    report("figure3_system", lines)

    benchmark.pedantic(
        lambda: run_workflow(scale="small", n_iterations=10), rounds=3, iterations=1
    )
