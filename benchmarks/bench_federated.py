"""Extension X2: federated learning with DI metadata (paper §V).

The harness exercises the two federated workflows of Table I:

* vertical federated linear regression (inner-join scenario) with the
  feature spaces expressed through the DI matrices — reporting accuracy
  vs. centralized training, the communication volume, and the overhead the
  encryption layer adds (the open question of §V-B);
* horizontal federated averaging (union scenario) across three silos.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.federated.horizontal import FederatedAveraging
from repro.federated.party import Party
from repro.federated.vertical_lr import VerticalFederatedLinearRegression
from repro.learning.linear_regression import LinearRegression
from repro.metadata.mappings import ScenarioType
from repro.silos.network import SimulatedNetwork

N_ROWS = 600
N_ITERATIONS = 40
LEARNING_RATE = 0.05


def _vfl_setup(seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"e{i}" for i in range(N_ROWS)]
    features_a = rng.standard_normal((N_ROWS, 4))
    features_b = rng.standard_normal((N_ROWS, 6))
    weights = rng.standard_normal(10)
    labels = (
        np.hstack([features_a, features_b]) @ weights + 0.05 * rng.standard_normal(N_ROWS)
    )
    party_a = Party("hospital_a", features_a, [f"a{i}" for i in range(4)], labels=labels,
                    entity_ids=ids)
    party_b = Party("hospital_b", features_b, [f"b{i}" for i in range(6)], entity_ids=ids)
    return party_a, party_b, np.hstack([features_a, features_b]), labels


def _hfl_parties(seed=0):
    dataset = generate_scenario_dataset(
        ScenarioSpec(scenario=ScenarioType.UNION, base_rows=400, other_rows=300, seed=seed)
    )
    parties = []
    for factor in dataset.factors:
        mapped = [factor.mapping.correspondences[c] for c in factor.source_columns]
        label_index = mapped.index("label")
        feature_indices = [i for i in range(len(mapped)) if i != label_index]
        parties.append(
            Party(
                factor.name,
                factor.data[:, feature_indices],
                [mapped[i] for i in feature_indices],
                labels=factor.data[:, label_index],
            )
        )
    return parties


def test_benchmark_vfl_plaintext(benchmark):
    party_a, party_b, _, _ = _vfl_setup()
    benchmark.pedantic(
        lambda: VerticalFederatedLinearRegression(
            learning_rate=LEARNING_RATE, n_iterations=N_ITERATIONS, use_encryption=False
        ).fit([party_a, party_b]),
        rounds=2, iterations=1,
    )


def test_benchmark_vfl_encrypted(benchmark):
    party_a, party_b, _, _ = _vfl_setup()
    benchmark.pedantic(
        lambda: VerticalFederatedLinearRegression(
            learning_rate=LEARNING_RATE, n_iterations=N_ITERATIONS, use_encryption=True
        ).fit([party_a, party_b]),
        rounds=2, iterations=1,
    )


def test_benchmark_hfl_fedavg(benchmark):
    parties = _hfl_parties()
    benchmark.pedantic(
        lambda: FederatedAveraging(
            model="logistic", n_rounds=N_ITERATIONS, learning_rate=0.3
        ).fit(parties),
        rounds=2, iterations=1,
    )


def test_report_federated(report, benchmark):
    lines = ["Federated learning with DI metadata (§V)", "=" * 64]

    # Vertical FL: accuracy vs centralized, communication, encryption overhead.
    party_a, party_b, features, labels = _vfl_setup()
    central = LinearRegression(
        solver="gd", learning_rate=LEARNING_RATE, n_iterations=N_ITERATIONS
    ).fit(features, labels)

    import time

    results = {}
    for encrypted in (False, True):
        network = SimulatedNetwork()
        start = time.perf_counter()
        model = VerticalFederatedLinearRegression(
            learning_rate=LEARNING_RATE,
            n_iterations=N_ITERATIONS,
            use_encryption=encrypted,
            network=network,
        ).fit([party_a, party_b])
        elapsed = time.perf_counter() - start
        results[encrypted] = (model, elapsed)
        weight_gap = float(
            np.max(np.abs(model.centralized_equivalent_weights() - central.coef_))
        )
        lines.append(
            f"VFL ({'encrypted' if encrypted else 'plaintext'}): "
            f"final MSE {model.report_.final_loss:.4f}, "
            f"max |w_fed − w_central| = {weight_gap:.2e}, "
            f"{model.report_.n_messages} messages, "
            f"{model.report_.bytes_transferred:,} bytes, "
            f"{model.report_.encryption_operations} HE ops, {elapsed*1000:.0f} ms"
        )
        assert weight_gap < 1e-6
    overhead = results[True][1] / results[False][1] if results[False][1] else float("inf")
    lines.append(f"encryption overhead (wall-clock ratio encrypted/plaintext): {overhead:.2f}x")

    # Horizontal FL: FedAvg over the union scenario.
    parties = _hfl_parties()
    model = FederatedAveraging(model="logistic", n_rounds=N_ITERATIONS, learning_rate=0.3).fit(
        parties
    )
    all_features = np.vstack([p.data for p in parties])
    all_labels = np.concatenate([p.labels for p in parties])
    accuracy = float(np.mean(model.predict(all_features) == all_labels))
    lines.append(
        f"HFL (FedAvg, union scenario, {len(parties)} silos): "
        f"global accuracy {accuracy:.2f}, final loss {model.report_.final_loss:.4f}, "
        f"{model.report_.n_messages} messages, {model.report_.bytes_transferred:,} bytes"
    )
    report("federated", lines)

    assert overhead >= 1.0
    benchmark.pedantic(
        lambda: VerticalFederatedLinearRegression(
            learning_rate=LEARNING_RATE, n_iterations=10, use_encryption=False
        ).fit([party_a, party_b]),
        rounds=2, iterations=1,
    )
