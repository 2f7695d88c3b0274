"""Vertical federated linear regression with DI-matrix alignment (paper §V-A).

The training objective is the one quoted in the paper from Yang et al.:

    ``min_{Θ_A, Θ_B} Σ_i ‖ Θ_A X_A^(i) + Θ_B X_B^(i) − Y^(i) ‖²``

where the per-party feature spaces are expressed through the DI matrices,
``X_k = I_k D_k M_kᵀ`` — i.e. the aligned rows of each silo's local data.
Vertical FL is therefore the factorized block pass with a network between
the factors: training is :func:`repro.learning.gd.descend`, the loop of
every GD learner, under the standard honest-but-curious protocol:

1. the parties run private entity alignment (PSI) to agree on the shared
   sample space (this is where the indicator matrices come from); the
   active (label-holding) party centres its labels — the intercept is
   their mean and never leaves it;
2. each round is one epoch, whose LMM is every party's partial prediction
   ``u_k = X_k Θ_k``; passive parties send it encrypted to the active party;
3. the epoch's transpose-LMM starts with the active party sending the
   (encrypted) residual to each passive party, which computes its
   (encrypted, masked) gradient ``X_kᵀ r``;
4. the coordinator decrypts masked gradients, parties unmask and
   ``descend`` takes the step.

With encryption disabled the message flow is identical but in plaintext.
Either way the model, intercept included, is ``LinearRegression(solver="gd")``
on the materialized inner-join target, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import FederatedError
from repro.federated.alignment import build_alignment
from repro.federated.encryption import SimulatedPaillier
from repro.federated.party import Party
from repro.learning import gd
from repro.silos.network import SimulatedNetwork

_COORDINATOR = "coordinator"


class _PartyBlocks:
    """The aligned features ``[X_1 … X_q]`` as the one-block view
    :func:`repro.learning.gd.descend` walks; what crosses a party boundary
    goes over ``network``, sealed when a ``paillier`` is given."""

    def __init__(self, names, features, active, network, paillier):
        self.active, self.network, self.paillier = active, network, paillier
        self.masks = np.random.default_rng(0)
        bounds = np.cumsum([0] + [block.shape[1] for block in features])
        self.parts = list(zip(names, features, bounds[:-1], bounds[1:]))
        self.shape = (features[0].shape[0], int(bounds[-1]))
        self.blocks = [(0, self.shape[0])]

    def _seal(self, values: np.ndarray):
        return self.paillier.encrypt_vector(values) if self.paillier else values

    def lmm_block(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        """``Σ_k X_k Θ_k``: passive parties ship their partial predictions
        to the active party."""
        scores = np.zeros((self.shape[0], 1))
        for name, block, low, high in self.parts:
            partial = block @ x[low:high]
            if name != self.active:
                self.network.send(name, self.active, "partial_prediction", self._seal(partial))
            scores += partial
        return scores

    def transpose_lmm_add(self, x: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
        """``out += [X_1ᵀ r … X_qᵀ r]``: the active party broadcasts the
        residual, each party computes its own gradient locally and the
        coordinator decrypts the masked gradients of passive parties."""
        for name, block, low, high in self.parts:
            gradient = block.T @ x
            if name != self.active:
                self.network.send(self.active, name, "residual", self._seal(x))
                if self.paillier:
                    mask = self.masks.standard_normal(gradient.shape)
                    masked = self.paillier.encrypt_vector(gradient + mask)
                    self.network.send(name, _COORDINATOR, "masked_gradient", masked)
                    decrypted = self.paillier.decrypt_vector(masked)
                    self.network.send(_COORDINATOR, name, "decrypted_gradient", decrypted)
                    gradient = decrypted[:, None] - mask
            out[low:high] += gradient


@dataclass
class VFLTrainingReport:
    """Outcome of a vertical federated training run."""

    loss_history: List[float] = field(default_factory=list)
    n_rounds: int = 0
    n_aligned_rows: int = 0
    bytes_transferred: int = 0
    n_messages: int = 0
    encryption_operations: int = 0
    weights: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


@dataclass
class VerticalFederatedLinearRegression:
    """Two-or-more-party vertical federated linear regression (ridge optional)."""

    learning_rate: float = 0.05
    n_iterations: int = 200
    l2_penalty: float = 0.0
    use_encryption: bool = True
    network: Optional[SimulatedNetwork] = None
    weights_: Dict[str, np.ndarray] = field(default_factory=dict, init=False)
    intercept_: float = field(default=0.0, init=False)
    report_: Optional[VFLTrainingReport] = field(default=None, init=False)
    _party_order: List[str] = field(default_factory=list, init=False)

    def fit(
        self,
        parties: Sequence[Party],
        alignment: Optional[Dict[str, List[int]]] = None,
    ) -> "VerticalFederatedLinearRegression":
        """Train over the given parties.

        ``alignment`` maps party name → aligned local row indices; when
        omitted it is computed with private set intersection over the
        parties' entity ids.
        """
        if len(parties) < 2:
            raise FederatedError("vertical federated learning needs at least two parties")
        active = next((p for p in parties if p.has_labels), None)
        if active is None:
            raise FederatedError("no party holds labels")

        network = self.network or SimulatedNetwork()
        paillier = SimulatedPaillier(key_id=12345)
        if alignment is None:
            alignment = build_alignment(parties)
        lengths = {len(rows) for rows in alignment.values()}
        if len(lengths) != 1:
            raise FederatedError("alignment produced row lists of different lengths")
        n_rows = lengths.pop()
        if n_rows == 0:
            raise FederatedError("the parties share no entities; nothing to train on")

        self._party_order = [p.name for p in parties]
        features = [p.aligned_features(alignment[p.name]) for p in parties]
        labels, self.intercept_ = gd.centre(active.aligned_labels(alignment[active.name]), True)
        report = VFLTrainingReport(n_aligned_rows=n_rows)
        view = _PartyBlocks(
            self._party_order, features, active.name, network,
            paillier if self.use_encryption else None,
        )
        weights = np.zeros((view.shape[1], 1))

        with _telemetry.span(
            "train.federated.vertical_lr", parties=len(parties),
            rounds=self.n_iterations, aligned_rows=n_rows,
            encrypted=self.use_encryption,
        ) as fit_span:
            for round_index in range(self.n_iterations):
                with _telemetry.span(
                    "train.federated.vertical_lr.round", round=round_index
                ):
                    # One round is one epoch of the shared loop, resumed at ``round_index``.
                    weights, _ = gd.descend(
                        view, view.blocks, gd.squared_error_link, labels, weights, 0.0,
                        learning_rate=self.learning_rate, n_iterations=round_index + 1,
                        l2_penalty=self.l2_penalty, learn_intercept=False, tolerance=0.0,
                        loss_history=report.loss_history,
                        loss_metric="federated.vertical.loss", start_iteration=round_index,
                    )
                if _telemetry.ENABLED:
                    _telemetry.counter_add("federated.rounds")
                    _telemetry.counter_add("federated.vertical.rounds")
            fit_span.set(
                final_loss=report.final_loss,
                messages=network.n_messages,
                bytes_transferred=network.total_bytes,
            )

        report.n_rounds = self.n_iterations
        report.bytes_transferred = network.total_bytes
        report.n_messages = network.n_messages
        report.encryption_operations = paillier.total_operations
        self.weights_ = {name: weights[low:high, 0] for name, _, low, high in view.parts}
        report.weights = {name: w.copy() for name, w in self.weights_.items()}
        self.report_ = report
        return self

    def predict(
        self,
        parties: Sequence[Party],
        alignment: Optional[Dict[str, List[int]]] = None,
    ) -> np.ndarray:
        """Joint prediction: the sum of each party's local partial prediction."""
        if not self.weights_:
            raise FederatedError("model is not fitted")
        if alignment is None:
            alignment = build_alignment(parties)
        prediction = None
        for party in parties:
            if party.name not in self.weights_:
                raise FederatedError(f"party {party.name!r} did not participate in training")
            local = party.aligned_features(alignment[party.name]) @ self.weights_[party.name]
            prediction = local if prediction is None else prediction + local
        return prediction + self.intercept_

    def centralized_equivalent_weights(self) -> np.ndarray:
        """The concatenated weight vector, ordered like the training parties."""
        if not self.weights_:
            raise FederatedError("model is not fitted")
        return np.concatenate([self.weights_[name] for name in self._party_order])
