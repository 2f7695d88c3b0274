"""To factorize or to materialize? (paper §IV-B, Figure 5, Table III)

The script sweeps a family of two-silo integration shapes, asks both
decision procedures (the Morpheus tuple/feature-ratio heuristic and the
Amalur DI-metadata cost model) what they would do, measures which strategy
actually runs the LMM workload the model priced faster, and prints the
resulting decision map — a miniature of the Table III experiment you can read in a
few seconds.

Run with:  python examples/cost_advisor.py
"""

from repro.costmodel import AmalurCostModel, CostParameters, MorpheusRule
from repro.costmodel.decision import measure_ground_truth
from repro.datagen import SyntheticSiloSpec, generate_integrated_pair
from repro.factorized import AmalurMatrix

#: The workload both the cost model and the stopwatch see: 10 LMMs with a
#: 4-column operand.
SEQUENCE = [("lmm", 4, 10)]


def main() -> None:
    configurations = [
        ("tiny lookup table, huge fact table", dict(base_rows=100_000, base_columns=2,
                                                    other_rows=500, other_columns=80,
                                                    redundancy_in_target=True)),
        ("balanced one-to-one inner join", dict(base_rows=20_000, base_columns=40,
                                                other_rows=20_000, other_columns=40,
                                                redundancy_in_target=False)),
        ("small augmentation of a small base", dict(base_rows=2_000, base_columns=5,
                                                    other_rows=500, other_columns=10,
                                                    redundancy_in_target=True)),
        ("wide dimension, moderate reuse", dict(base_rows=30_000, base_columns=1,
                                                other_rows=3_000, other_columns=120,
                                                redundancy_in_target=True)),
        ("overlapping columns (source redundancy)", dict(base_rows=50_000, base_columns=10,
                                                         other_rows=1_000, other_columns=60,
                                                         redundancy_in_target=True,
                                                         redundancy_in_sources=True)),
    ]
    amalur_model = AmalurCostModel()
    morpheus_rule = MorpheusRule()

    header = f"{'configuration':>42} | {'measured':>9} | {'Amalur':>7} | {'Morpheus':>8}"
    print(header)
    print("-" * len(header))
    for label, kwargs in configurations:
        dataset = generate_integrated_pair(SyntheticSiloSpec(seed=1, **kwargs))
        parameters = CostParameters.from_dataset(dataset)
        factorized, materialized = measure_ground_truth(AmalurMatrix(dataset), SEQUENCE, repeats=1)
        speedup = materialized / factorized
        measured = "factorize" if speedup > 1 else "materialize"
        amalur = (
            "factorize" if amalur_model.predict_factorize(parameters, SEQUENCE) else "materialize"
        )
        morpheus = "factorize" if morpheus_rule.predict_factorize(parameters) else "materialize"
        print(f"{label:>42} | {measured:>9} | {amalur:>7} | {morpheus:>8}   "
              f"(speedup {speedup:4.2f}×, tuple ratio {parameters.source_tuple_ratio:5.1f})")

    print("\nAmalur's cost model sees the DI metadata (actual target shape, overlap,")
    print("redundancy); the Morpheus heuristic only sees the source shapes, which is")
    print("why it keeps recommending factorization even when the integrated target")
    print("is no larger than the sources (paper §IV-B, Table III).")


if __name__ == "__main__":
    main()
