"""Tests for repro.federated.vertical_lr (the §V-A VFL objective)."""

import numpy as np
import pytest

from repro.exceptions import FederatedError
from repro.federated.encryption import CIPHERTEXT_BYTES
from repro.federated.party import Party
from repro.federated.vertical_lr import VerticalFederatedLinearRegression
from repro.learning.linear_regression import LinearRegression
from repro.silos.network import SimulatedNetwork


@pytest.fixture
def vfl_parties(rng):
    """Two parties sharing 80 entities; party A holds labels + 2 features,
    party B holds 3 features. The label depends on both feature spaces and
    sits at a non-zero mean, so a model without an intercept cannot fit it."""
    n = 80
    ids = [f"patient_{i}" for i in range(n)]
    features_a = rng.standard_normal((n, 2))
    features_b = rng.standard_normal((n, 3))
    weights_a = np.array([1.0, -2.0])
    weights_b = np.array([0.5, 1.5, -1.0])
    labels = (
        features_a @ weights_a + features_b @ weights_b + 0.01 * rng.standard_normal(n) + 3.0
    )

    # Party B stores its rows shuffled to exercise the alignment step.
    permutation = rng.permutation(n)
    party_a = Party("A", features_a, ["a0", "a1"], labels=labels, entity_ids=ids)
    party_b = Party(
        "B",
        features_b[permutation],
        ["b0", "b1", "b2"],
        entity_ids=[ids[i] for i in permutation],
    )
    centralized_features = np.hstack([features_a, features_b])
    return party_a, party_b, centralized_features, labels


class TestTraining:
    def test_matches_centralized_gradient_descent(self, vfl_parties):
        party_a, party_b, features, labels = vfl_parties
        vfl = VerticalFederatedLinearRegression(
            learning_rate=0.05, n_iterations=150, use_encryption=False
        ).fit([party_a, party_b])
        central = LinearRegression(solver="gd", learning_rate=0.05, n_iterations=150).fit(
            features, labels
        )
        assert np.allclose(vfl.centralized_equivalent_weights(), central.coef_, atol=1e-8)
        assert vfl.intercept_ == pytest.approx(central.intercept_)
        assert np.allclose(
            vfl.predict([party_a, party_b]), central.predict(features), atol=1e-8
        )
        assert np.allclose(vfl.report_.loss_history, central.loss_history_, atol=1e-10)

    def test_encryption_does_not_change_results(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        plain = VerticalFederatedLinearRegression(
            learning_rate=0.05, n_iterations=60, use_encryption=False
        ).fit([party_a, party_b])
        encrypted = VerticalFederatedLinearRegression(
            learning_rate=0.05, n_iterations=60, use_encryption=True
        ).fit([party_a, party_b])
        assert np.allclose(
            plain.centralized_equivalent_weights(), encrypted.centralized_equivalent_weights()
        )

    def test_loss_decreases(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        model = VerticalFederatedLinearRegression(n_iterations=100, use_encryption=False).fit(
            [party_a, party_b]
        )
        assert model.report_.loss_history[-1] < model.report_.loss_history[0]

    def test_ridge_penalty_supported(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        plain = VerticalFederatedLinearRegression(n_iterations=80, use_encryption=False).fit(
            [party_a, party_b]
        )
        ridge = VerticalFederatedLinearRegression(
            n_iterations=80, l2_penalty=50.0, use_encryption=False
        ).fit([party_a, party_b])
        assert np.linalg.norm(ridge.centralized_equivalent_weights()) < np.linalg.norm(
            plain.centralized_equivalent_weights()
        )

    def test_predict_joint_prediction(self, vfl_parties):
        party_a, party_b, features, labels = vfl_parties
        model = VerticalFederatedLinearRegression(
            learning_rate=0.05, n_iterations=200, use_encryption=False
        ).fit([party_a, party_b])
        predictions = model.predict([party_a, party_b])
        assert predictions.shape == labels.shape
        assert np.corrcoef(predictions, labels)[0, 1] > 0.95


class TestAccounting:
    def test_encryption_and_communication_overhead_reported(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        network = SimulatedNetwork()
        model = VerticalFederatedLinearRegression(
            n_iterations=10, use_encryption=True, network=network
        ).fit([party_a, party_b])
        report = model.report_
        assert report.encryption_operations > 0
        assert report.bytes_transferred == network.total_bytes > 0
        assert report.n_messages > 0
        assert report.n_aligned_rows == 80
        assert set(report.weights) == {"A", "B"}

    def test_encryption_increases_message_count(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        plain_network, encrypted_network = SimulatedNetwork(), SimulatedNetwork()
        VerticalFederatedLinearRegression(
            n_iterations=10, use_encryption=False, network=plain_network
        ).fit([party_a, party_b])
        VerticalFederatedLinearRegression(
            n_iterations=10, use_encryption=True, network=encrypted_network
        ).fit([party_a, party_b])
        assert encrypted_network.n_messages > plain_network.n_messages

    @pytest.mark.parametrize(
        "use_encryption, expected", [(False, (20, 12_800, 0)), (True, (40, 39_360, 1_660))]
    )
    def test_exact_counts_of_the_fixture(self, vfl_parties, use_encryption, expected):
        """80 aligned rows, one passive party of 3 features, 10 rounds. The
        counts are the protocol: they do not depend on the interpreter."""
        party_a, party_b, _, _ = vfl_parties
        report = VerticalFederatedLinearRegression(
            n_iterations=10, use_encryption=use_encryption
        ).fit([party_a, party_b]).report_
        assert (
            report.n_messages, report.bytes_transferred, report.encryption_operations
        ) == expected

    def test_message_flow_of_one_encrypted_round(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        network = SimulatedNetwork()
        VerticalFederatedLinearRegression(
            n_iterations=1, use_encryption=True, network=network
        ).fit([party_a, party_b])
        assert [
            (t.sender, t.receiver, t.payload, t.n_bytes) for t in network.transfers
        ] == [
            ("B", "A", "partial_prediction", 80 * CIPHERTEXT_BYTES),
            ("A", "B", "residual", 80 * CIPHERTEXT_BYTES),
            ("B", "coordinator", "masked_gradient", 3 * CIPHERTEXT_BYTES),
            ("coordinator", "B", "decrypted_gradient", 3 * 8),
        ]

    def test_bytes_closed_form_with_two_passive_parties(self, rng):
        """rounds × Σ_passive (2·n·W + d_k·W + 8·d_k): two sealed n-vectors
        and one sealed and one plaintext gradient per passive party."""
        n, rounds, widths = 50, 6, (2, 3, 4)
        ids = list(range(n))
        parties = [
            Party(
                f"P{k}", rng.standard_normal((n, width)), [f"f{k}_{j}" for j in range(width)],
                labels=rng.standard_normal(n) if k == 0 else None, entity_ids=ids,
            )
            for k, width in enumerate(widths)
        ]
        report = VerticalFederatedLinearRegression(
            n_iterations=rounds, use_encryption=True
        ).fit(parties).report_
        per_round = sum(
            2 * n * CIPHERTEXT_BYTES + d * CIPHERTEXT_BYTES + 8 * d for d in widths[1:]
        )
        assert report.bytes_transferred == rounds * per_round
        assert report.n_messages == rounds * 4 * len(widths[1:])
        assert report.encryption_operations == rounds * sum(2 * n + 2 * d for d in widths[1:])


class TestValidation:
    def test_needs_two_parties(self, vfl_parties):
        party_a, _, _, _ = vfl_parties
        with pytest.raises(FederatedError):
            VerticalFederatedLinearRegression().fit([party_a])

    def test_needs_a_label_holder(self, rng):
        parties = [
            Party("A", rng.standard_normal((3, 1)), ["x"], entity_ids=[1, 2, 3]),
            Party("B", rng.standard_normal((3, 1)), ["y"], entity_ids=[1, 2, 3]),
        ]
        with pytest.raises(FederatedError):
            VerticalFederatedLinearRegression().fit(parties)

    def test_no_shared_entities(self, rng):
        parties = [
            Party("A", rng.standard_normal((2, 1)), ["x"], labels=np.zeros(2), entity_ids=[1, 2]),
            Party("B", rng.standard_normal((2, 1)), ["y"], entity_ids=[3, 4]),
        ]
        with pytest.raises(FederatedError):
            VerticalFederatedLinearRegression().fit(parties)

    def test_predict_before_fit(self, vfl_parties):
        party_a, party_b, _, _ = vfl_parties
        with pytest.raises(FederatedError):
            VerticalFederatedLinearRegression().predict([party_a, party_b])
