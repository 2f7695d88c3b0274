"""Quickstart: the paper's hospital running example, end to end.

Two departments of the same hospital keep separate tables:

* ``S1(m, n, a, hr)`` — the ER department's table with the mortality label;
* ``S2(m, n, a, o, dd)`` — the pulmonary department's table with the new
  blood-oxygen feature.

The script walks the Figure 3 workflow: register the silos, discover the
augmentation candidate, integrate (schema matching + entity resolution +
DI matrices), let the optimizer pick a strategy, and train the mortality
classifier.

Run with:  python examples/quickstart.py
"""

from repro import Amalur, ModelSpec, ScenarioType
from repro.datagen import hospital_tables
from repro.system import IntegrationConfig, TrainRequest


def main() -> None:
    s1, s2 = hospital_tables()

    amalur = Amalur()
    amalur.add_silo("er_department")
    amalur.add_table("er_department", s1)
    amalur.add_silo("pulmonary_department")
    amalur.add_table("pulmonary_department", s2)

    print("== data discovery (feature augmentation candidates for S1) ==")
    for candidate in amalur.discover("S1", label_column="m"):
        print(
            f"  {candidate.table_name}: joinability={candidate.joinability:.2f}, "
            f"new features={candidate.new_features}, score={candidate.score:.2f}"
        )

    print("\n== integration (full outer join, mediated schema T(m, a, hr, o)) ==")
    dataset = amalur.integrate(IntegrationConfig(
        base="S1", other="S2", target_columns=["m", "a", "hr", "o"],
        scenario=ScenarioType.FULL_OUTER_JOIN, label_column="m",
    ))
    print(f"  target shape: {dataset.shape}")
    print(f"  recorded column matches: "
          f"{[(m.left_column, m.right_column) for m in amalur.catalog.di_metadata('S1', 'S2').column_matches]}")
    print("  materialized target table (Figure 2d):")
    for row in dataset.materialize():
        print("   ", "  ".join(f"{value:5.0f}" for value in row))

    print("\n== optimizer plan ==")
    spec = ModelSpec(task="classification", learning_rate=0.01, n_iterations=100)
    plan = amalur.plan(dataset, spec)
    print(plan.describe())

    print("\n== training ==")
    result = amalur.train(TrainRequest(model=spec, dataset=dataset, plan=plan))
    print(f"  strategy used      : {result.strategy.value}")
    print(f"  metrics            : {result.metrics}")
    print(f"  silo-boundary bytes: {result.bytes_transferred}")
    print(f"  registered models  : {amalur.catalog.model_names}")


if __name__ == "__main__":
    main()
