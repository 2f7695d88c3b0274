"""Horizontal federated learning (FedAvg) for the union scenario (Table I, Ex. 4).

When silos share the feature space but not the sample space — the paper's
Example 4 / HFL case — the standard approach is federated averaging: every
round each party takes a few local gradient steps on its own rows and the
orchestrator averages the resulting weights, weighted by local sample
counts. Supports linear and logistic regression heads and optional
differentially-private updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import FederatedError
from repro.federated.encryption import gaussian_mechanism
from repro.federated.party import Party
from repro.learning.base import DenseMatrix
from repro.learning.gd import LINKS, OneBlock, descend, sigmoid
from repro.silos.network import SimulatedNetwork


@dataclass
class HFLTrainingReport:
    """Outcome of a FedAvg training run."""

    loss_history: List[float] = field(default_factory=list)
    n_rounds: int = 0
    bytes_transferred: int = 0
    n_messages: int = 0
    participants: List[str] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


@dataclass
class FederatedAveraging:
    """FedAvg over parties sharing the same feature columns."""

    model: str = "linear"  # "linear" or "logistic"
    n_rounds: int = 50
    local_epochs: int = 1
    learning_rate: float = 0.05
    dp_epsilon: Optional[float] = None
    dp_sensitivity: float = 1.0
    network: Optional[SimulatedNetwork] = None
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    report_: Optional[HFLTrainingReport] = field(default=None, init=False)

    def fit(self, parties: Sequence[Party]) -> "FederatedAveraging":
        if not parties:
            raise FederatedError("FedAvg needs at least one party")
        if self.model not in LINKS:
            raise FederatedError(f"unknown model {self.model!r}")
        n_features = parties[0].n_features
        feature_names = parties[0].feature_names
        for party in parties:
            if party.feature_names != feature_names:
                raise FederatedError(
                    f"party {party.name!r} has a different feature schema; HFL requires the "
                    "union scenario's shared columns"
                )
            if not party.has_labels:
                raise FederatedError(f"party {party.name!r} holds no labels")

        network = self.network or SimulatedNetwork()
        weights = np.zeros(n_features)
        total_rows = sum(p.n_rows for p in parties)
        report = HFLTrainingReport(participants=[p.name for p in parties])

        with _telemetry.span(
            "train.federated.fedavg", parties=len(parties), rounds=self.n_rounds,
            model=self.model, total_rows=total_rows,
        ) as fit_span:
            for round_index in range(self.n_rounds):
                with _telemetry.span(
                    "train.federated.fedavg.round", round=round_index
                ):
                    local_weights = []
                    local_sizes = []
                    for party in parties:
                        network.send("server", party.name, "global_weights", weights)
                        updated = self._local_update(party, weights.copy())
                        if self.dp_epsilon:
                            updated = gaussian_mechanism(
                                updated,
                                sensitivity=self.dp_sensitivity,
                                epsilon=self.dp_epsilon,
                                seed=round_index * 1000 + party.n_rows,
                            )
                        network.send(party.name, "server", "local_weights", updated)
                        local_weights.append(updated)
                        local_sizes.append(party.n_rows)
                    weights = np.average(np.stack(local_weights), axis=0, weights=local_sizes)
                    report.loss_history.append(self._global_loss(parties, weights, total_rows))
                if _telemetry.ENABLED:
                    _telemetry.counter_add("federated.rounds")
                    _telemetry.counter_add("federated.fedavg.rounds")
                    _telemetry.observe("federated.fedavg.loss", report.loss_history[-1])
            fit_span.set(
                final_loss=report.final_loss,
                messages=network.n_messages,
                bytes_transferred=network.total_bytes,
            )

        report.n_rounds = self.n_rounds
        report.bytes_transferred = network.total_bytes
        report.n_messages = network.n_messages
        self.coef_ = weights
        self.report_ = report
        return self

    def _local_update(self, party: Party, weights: np.ndarray) -> np.ndarray:
        view = OneBlock(DenseMatrix(party.data))
        weights, _ = descend(
            view, view.blocks, LINKS[self.model], party.labels, weights[:, None], 0.0,
            learning_rate=self.learning_rate, n_iterations=self.local_epochs,
            l2_penalty=0.0, learn_intercept=False, tolerance=0.0, loss_history=[],
            loss_metric="federated.fedavg.local_loss",
        )
        return weights[:, 0]

    def _global_loss(self, parties: Sequence[Party], weights: np.ndarray, total_rows: int) -> float:
        link = LINKS[self.model]
        loss = 0.0
        for party in parties:
            loss += link(party.data @ weights, party.labels)[0]
        return loss / total_rows

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise FederatedError("model is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        scores = features @ self.coef_
        if self.model == "logistic":
            return (sigmoid(scores) >= 0.5).astype(int)
        return scores
