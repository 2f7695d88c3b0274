"""Gaussian non-negative matrix factorization (multiplicative updates).

GNMF is one of the four workloads the Morpheus line of work (paper ref.
[27]) evaluates factorized learning on. The multiplicative update rules

    ``H ← H ∘ (Wᵀ T) / (Wᵀ W H)``
    ``W ← W ∘ (T Hᵀ) / (W H Hᵀ)``

touch the data matrix ``T`` only through one transpose-LMM (``Wᵀ T``) and
one LMM (``T Hᵀ``) per iteration, so the algorithm factorizes directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.learning.base import OperandLike, as_linop

_EPS = 1e-12


@dataclass
class GaussianNMF:
    """Rank-``n_components`` NMF with Frobenius loss and multiplicative updates."""

    n_components: int = 2
    n_iterations: int = 100
    random_state: int = 0
    components_: Optional[np.ndarray] = field(default=None, init=False)
    weights_: Optional[np.ndarray] = field(default=None, init=False)
    reconstruction_error_: float = field(default=0.0, init=False)
    error_history_: List[float] = field(default_factory=list, init=False)

    def fit(self, features: OperandLike) -> "GaussianNMF":
        operand = as_linop(features)
        n_rows, n_columns = operand.shape
        rng = np.random.default_rng(self.random_state)
        weights = rng.random((n_rows, self.n_components)) + 0.1
        components = rng.random((self.n_components, n_columns)) + 0.1

        norm_t = float(operand.square().total_sum())  # ||T||², factorized
        self.error_history_ = []
        for _ in range(self.n_iterations):
            # H update: numerator Wᵀ T (transpose-LMM), denominator WᵀW H.
            numerator_h = operand.transpose_lmm(weights).T  # (k × d)
            denominator_h = (weights.T @ weights) @ components + _EPS
            components = components * numerator_h / denominator_h

            # W update: numerator T Hᵀ (LMM), denominator W H Hᵀ.
            numerator_w = operand.lmm(components.T)  # (n × k)
            denominator_w = weights @ (components @ components.T) + _EPS
            weights = weights * numerator_w / denominator_w

            self.error_history_.append(self._error(operand, norm_t, weights, components))

        self.weights_ = weights
        self.components_ = components
        self.reconstruction_error_ = self.error_history_[-1] if self.error_history_ else 0.0
        return self

    def _error(
        self, operand, norm_t: float, weights: np.ndarray, components: np.ndarray
    ) -> float:
        """Frobenius reconstruction error, computed without materializing T.

        ``||T − WH||² = ||T||² − 2·tr(Hᵀ Wᵀ T) + ||WH||²`` and ``Wᵀ T`` is a
        transpose-LMM; ``norm_t`` is ``||T||²``.
        """
        cross = operand.transpose_lmm(weights).T  # Wᵀ T, shape (k × d)
        term_cross = float(np.sum(cross * components))
        reconstruction = weights @ components
        norm_wh = float(np.sum(reconstruction * reconstruction))
        return max(norm_t - 2.0 * term_cross + norm_wh, 0.0)

    def transform(self, features: OperandLike) -> np.ndarray:
        """Project new rows onto the learned components (one NNLS-ish pass)."""
        if self.components_ is None:
            raise ValueError("model is not fitted")
        operand = as_linop(features)
        rng = np.random.default_rng(self.random_state)
        weights = rng.random((operand.shape[0], self.n_components)) + 0.1
        for _ in range(self.n_iterations):
            numerator = operand.lmm(self.components_.T)
            denominator = weights @ (self.components_ @ self.components_.T) + _EPS
            weights = weights * numerator / denominator
        return weights

    def reconstruct(self) -> np.ndarray:
        if self.components_ is None or self.weights_ is None:
            raise ValueError("model is not fitted")
        return self.weights_ @ self.components_
