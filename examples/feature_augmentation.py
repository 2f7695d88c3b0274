"""Feature augmentation over silos with factorized training (use case 1, §II-B).

A larger synthetic scenario: a base table with a label and a few features
lives in one silo, a discovered table with overlapping entities and new
features lives in another. The script compares the two execution
strategies the Amalur optimizer chooses between:

* materialize the target table centrally and train on it;
* keep the data factorized and push the model's LMM / transpose-LMM down
  to the silos (Eq. 2 of the paper),

and shows that both produce the same model while moving very different
amounts of data across silo boundaries.

Run with:  python examples/feature_augmentation.py
"""

import time

import numpy as np

from repro.costmodel.parameters import CostParameters
from repro.costmodel import AmalurCostModel, MorpheusRule
from repro.datagen import SyntheticSiloSpec, generate_integrated_pair
from repro.factorized import AmalurMatrix
from repro.learning import DenseMatrix, LinearRegression


def main() -> None:
    # A key–foreign-key style integration: 80k base rows reference 2k rows of
    # the discovered table, which brings 60 new feature columns.
    spec = SyntheticSiloSpec(
        base_rows=80_000,
        base_columns=2,
        other_rows=2_000,
        other_columns=60,
        redundancy_in_target=True,
        redundancy_in_sources=False,
        seed=7,
    )
    dataset = generate_integrated_pair(spec)
    matrix = AmalurMatrix(dataset)
    print(f"integrated dataset: {dataset.shape[0]} rows × {dataset.shape[1]} columns, "
          f"{dataset.n_sources} sources")
    print(f"tuple ratio = {dataset.tuple_ratio():.1f}, feature ratio = {dataset.feature_ratio():.2f}")

    # Synthesise a label from the (virtual) target so both strategies share it.
    target = dataset.materialize()
    rng = np.random.default_rng(0)
    weights = rng.standard_normal(target.shape[1])
    labels = target @ weights + 0.1 * rng.standard_normal(target.shape[0])

    print("\n== cost model advice ==")
    parameters = CostParameters.from_dataset(dataset)
    # The 50 GD iterations below: one LMM and one transpose-LMM each.
    sequence = [("lmm", 1, 50), ("transpose_lmm", 1, 50)]
    print("  Amalur cost model :", AmalurCostModel().explain(parameters, sequence))
    print("  Morpheus heuristic:", MorpheusRule().explain(parameters),
          "→", "factorize" if MorpheusRule().predict_factorize(parameters) else "materialize")

    print("\n== factorized training (model pushed down to the silos) ==")
    start = time.perf_counter()
    factorized_model = LinearRegression(
        solver="gd", learning_rate=0.05, n_iterations=50, fit_intercept=False
    ).fit(matrix, labels)
    factorized_time = time.perf_counter() - start
    print(f"  {factorized_time*1000:.0f} ms, final loss {factorized_model.loss_history_[-1]:.4f}")

    print("\n== materialized training (target exported and joined centrally) ==")
    start = time.perf_counter()
    materialized_model = LinearRegression(
        solver="gd", learning_rate=0.05, n_iterations=50, fit_intercept=False
    ).fit(DenseMatrix(target), labels)
    materialized_time = time.perf_counter() - start
    print(f"  {materialized_time*1000:.0f} ms, final loss {materialized_model.loss_history_[-1]:.4f}")

    print("\n== comparison ==")
    print(f"  max |w_factorized − w_materialized| = "
          f"{np.max(np.abs(factorized_model.coef_ - materialized_model.coef_)):.2e}")
    print(f"  factorized speedup: {materialized_time / factorized_time:.2f}×")
    print(f"  bytes that stay inside the silos under factorization: "
          f"{sum(f.data.nbytes for f in dataset.factors):,} "
          f"(vs {target.nbytes:,} exported when materializing)")


if __name__ == "__main__":
    main()
