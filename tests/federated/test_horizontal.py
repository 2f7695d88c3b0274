"""Tests for repro.federated.horizontal (FedAvg over the union scenario)."""

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import FederatedError
from repro.federated.horizontal import FederatedAveraging
from repro.federated.party import Party
from repro.learning.gd import LINKS
from repro.silos.network import SimulatedNetwork


@pytest.fixture
def hfl_parties(rng):
    """Three parties with the same feature schema and disjoint samples."""
    weights = np.array([2.0, -1.0, 0.5])
    parties = []
    all_features = []
    all_labels = []
    for index, n in enumerate((60, 80, 40)):
        features = rng.standard_normal((n, 3))
        labels = (features @ weights + 0.05 * rng.standard_normal(n) > 0).astype(float)
        parties.append(Party(f"silo_{index}", features, ["f0", "f1", "f2"], labels=labels))
        all_features.append(features)
        all_labels.append(labels)
    return parties, np.vstack(all_features), np.concatenate(all_labels)


class TestFedAvg:
    def test_logistic_fedavg_learns(self, hfl_parties):
        parties, features, labels = hfl_parties
        model = FederatedAveraging(
            model="logistic", n_rounds=60, local_epochs=3, learning_rate=0.5
        ).fit(parties)
        accuracy = float(np.mean(model.predict(features) == labels))
        assert accuracy > 0.9

    def test_linear_fedavg_loss_decreases(self, hfl_parties, rng):
        parties, _, _ = hfl_parties
        linear_parties = [
            Party(p.name, p.data, p.feature_names, labels=p.data @ np.array([1.0, 2.0, -1.0]))
            for p in parties
        ]
        model = FederatedAveraging(model="linear", n_rounds=40, learning_rate=0.2).fit(
            linear_parties
        )
        assert model.report_.loss_history[-1] < model.report_.loss_history[0]

    def test_single_party_fedavg_equals_local_training(self, hfl_parties):
        parties, _, _ = hfl_parties
        single = FederatedAveraging(model="logistic", n_rounds=30, learning_rate=0.5).fit(
            [parties[0]]
        )
        assert single.coef_ is not None

    def test_communication_accounting(self, hfl_parties):
        parties, _, _ = hfl_parties
        network = SimulatedNetwork()
        model = FederatedAveraging(model="logistic", n_rounds=5, network=network).fit(parties)
        # one weights-down and one weights-up message per party per round
        assert model.report_.n_messages == 5 * len(parties) * 2
        assert model.report_.bytes_transferred > 0
        assert model.report_.participants == [p.name for p in parties]

    def test_differential_privacy_adds_noise(self, hfl_parties):
        parties, _, _ = hfl_parties
        clean = FederatedAveraging(model="logistic", n_rounds=10, learning_rate=0.5).fit(parties)
        noisy = FederatedAveraging(
            model="logistic", n_rounds=10, learning_rate=0.5, dp_epsilon=0.5
        ).fit(parties)
        assert not np.allclose(clean.coef_, noisy.coef_)


class TestLocalEpochsRunTheSharedLoop:
    @pytest.mark.parametrize("model", ["linear", "logistic"])
    def test_bit_identical_to_a_hand_written_fedavg(self, hfl_parties, model):
        """The local epochs step through ``gd.descend``; this is the loop
        they replaced, kept here as the reference."""
        parties, _, _ = hfl_parties
        fitted = FederatedAveraging(
            model=model, n_rounds=20, local_epochs=3, learning_rate=0.3
        ).fit(parties)
        link = LINKS[model]
        weights, losses = np.zeros(3), []
        for _ in range(20):
            local = []
            for party in parties:
                updated = weights
                for _ in range(3):
                    errors = link(party.data @ updated, party.labels)[1]
                    updated = updated - 0.3 * (party.data.T @ errors / party.n_rows)
                local.append(updated)
            weights = np.average(np.stack(local), axis=0, weights=[p.n_rows for p in parties])
            total = sum(link(p.data @ weights, p.labels)[0] for p in parties)
            losses.append(total / sum(p.n_rows for p in parties))
        assert np.array_equal(fitted.coef_, weights)
        assert np.array_equal(fitted.report_.loss_history, losses)

    def test_local_epochs_are_counted_by_the_shared_loop(self, hfl_parties):
        parties, _, _ = hfl_parties
        with telemetry.collect(sample_memory=False) as session:
            FederatedAveraging(n_rounds=4, local_epochs=3).fit(parties)
        steps = 4 * len(parties) * 3
        assert session.metrics.counter_values()["gd.iterations"] == float(steps)
        histograms = session.metrics.histogram_summaries()
        assert histograms["federated.fedavg.local_loss"]["count"] == steps
        assert histograms["federated.fedavg.loss"]["count"] == 4


class TestValidation:
    def test_needs_parties(self):
        with pytest.raises(FederatedError):
            FederatedAveraging().fit([])

    def test_unknown_model(self, hfl_parties):
        parties, _, _ = hfl_parties
        with pytest.raises(FederatedError):
            FederatedAveraging(model="svm").fit(parties)

    def test_feature_schema_mismatch(self, hfl_parties, rng):
        parties, _, _ = hfl_parties
        bad = Party("bad", rng.standard_normal((5, 3)), ["x", "y", "z"], labels=np.zeros(5))
        with pytest.raises(FederatedError):
            FederatedAveraging().fit([parties[0], bad])

    def test_label_free_party_rejected(self, hfl_parties, rng):
        parties, _, _ = hfl_parties
        unlabeled = Party("nolabels", rng.standard_normal((5, 3)), ["f0", "f1", "f2"])
        with pytest.raises(FederatedError):
            FederatedAveraging().fit([parties[0], unlabeled])

    def test_predict_before_fit(self, hfl_parties):
        _, features, _ = hfl_parties
        with pytest.raises(FederatedError):
            FederatedAveraging().predict(features)
