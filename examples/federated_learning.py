"""Federated learning with DI metadata (use case 2, §V).

Two hospitals hold vertically-partitioned data about (partially) the same
patients and cannot export raw rows. The script:

1. aligns the patients with a PSI-style private entity alignment (the
   indicator-matrix information of §III-B);
2. trains a vertical federated linear regression with the simulated
   additively-homomorphic encryption layer, reporting the communication
   and encryption overheads (§V-B);
3. verifies the federated model equals centralized training on the
   (hypothetically) pooled data, and exits non-zero when it does not;
4. runs the horizontal (union / FedAvg) variant for completeness.

Run with:  python examples/federated_learning.py
"""

import sys

import numpy as np

from repro.federated import (
    FederatedAveraging,
    Party,
    VerticalFederatedLinearRegression,
    build_alignment,
)
from repro.learning import LinearRegression
from repro.silos.network import SimulatedNetwork


def vertical_example() -> None:
    print("== vertical federated learning (inner-join scenario) ==")
    rng = np.random.default_rng(42)
    n_shared, n_only_a, n_only_b = 800, 150, 120

    shared_ids = [f"patient_{i}" for i in range(n_shared)]
    ids_a = shared_ids + [f"a_only_{i}" for i in range(n_only_a)]
    ids_b = [f"b_only_{i}" for i in range(n_only_b)] + shared_ids

    features_a = rng.standard_normal((len(ids_a), 3))
    features_b = rng.standard_normal((len(ids_b), 5))
    true_weights = rng.standard_normal(8)

    # Labels live with hospital A and depend on both hospitals' features.
    aligned_b = features_b[[ids_b.index(i) for i in ids_a if i in set(ids_b)]]
    labels_a = np.zeros(len(ids_a))
    labels_a[:n_shared] = (
        np.hstack([features_a[:n_shared], aligned_b]) @ true_weights
        + 0.05 * rng.standard_normal(n_shared)
    )

    hospital_a = Party("hospital_a", features_a, ["age", "bmi", "heart_rate"],
                       labels=labels_a, entity_ids=ids_a)
    hospital_b = Party("hospital_b", features_b,
                       ["oxygen", "glucose", "creatinine", "sodium", "potassium"],
                       entity_ids=ids_b)

    alignment = build_alignment([hospital_a, hospital_b])
    print(f"  privately aligned patients: {len(alignment['hospital_a'])} "
          f"(of {len(ids_a)} in A and {len(ids_b)} in B)")

    network = SimulatedNetwork()
    model = VerticalFederatedLinearRegression(
        learning_rate=0.05, n_iterations=200, use_encryption=True, network=network
    ).fit([hospital_a, hospital_b], alignment=alignment)
    report = model.report_
    print(f"  final training MSE       : {report.final_loss:.4f}")
    print(f"  messages / bytes         : {report.n_messages} / {report.bytes_transferred:,}")
    print(f"  homomorphic operations   : {report.encryption_operations:,}")

    # Centralized reference on the pooled (aligned) data.
    pooled = np.hstack(
        [
            hospital_a.aligned_features(alignment["hospital_a"]),
            hospital_b.aligned_features(alignment["hospital_b"]),
        ]
    )
    central = LinearRegression(solver="gd", learning_rate=0.05, n_iterations=200).fit(
        pooled, hospital_a.aligned_labels(alignment["hospital_a"])
    )
    gap = np.max(np.abs(model.centralized_equivalent_weights() - central.coef_))
    print(f"  max |w_federated − w_centralized| = {gap:.2e}")
    print(f"  |b_federated − b_centralized|     = "
          f"{abs(model.intercept_ - central.intercept_):.2e}")
    if gap > 1e-8:
        sys.exit("the federated model is not the centralized model")


def horizontal_example() -> None:
    print("\n== horizontal federated learning (union scenario, FedAvg) ==")
    rng = np.random.default_rng(7)
    weights = np.array([1.5, -2.0, 0.8, 0.3])
    parties = []
    for index, n_rows in enumerate((300, 500, 250)):
        features = rng.standard_normal((n_rows, 4))
        labels = (features @ weights + 0.1 * rng.standard_normal(n_rows) > 0).astype(float)
        parties.append(
            Party(f"clinic_{index}", features, ["f0", "f1", "f2", "f3"], labels=labels)
        )
    model = FederatedAveraging(model="logistic", n_rounds=60, local_epochs=2,
                               learning_rate=0.5).fit(parties)
    all_features = np.vstack([p.data for p in parties])
    all_labels = np.concatenate([p.labels for p in parties])
    accuracy = float(np.mean(model.predict(all_features) == all_labels))
    print(f"  silos: {[p.name for p in parties]}")
    print(f"  global accuracy after FedAvg: {accuracy:.3f}")
    print(f"  communication: {model.report_.n_messages} messages, "
          f"{model.report_.bytes_transferred:,} bytes")


if __name__ == "__main__":
    vertical_example()
    horizontal_example()
