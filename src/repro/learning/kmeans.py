"""K-means clustering over dense or factorized feature matrices.

Lloyd's algorithm needs, per iteration, the pairwise squared distances
between data rows and the current centroids:

    ``dist² = rowSums(T∘T) · 1ᵀ − 2 · T Cᵀ + 1 · rowSums(C∘C)ᵀ``

Only the middle term touches the data, and it is an LMM — so k-means is
factorizable with exactly the rewrites of §IV (this is the classic
Morpheus observation the paper builds on). The squared-row-norm term is
computed once with an element-wise square, which also distributes over the
source factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.learning.base import OperandLike, as_linop


@dataclass
class KMeans:
    """Lloyd's k-means with k-means++-style seeding on a data sample."""

    n_clusters: int = 3
    n_iterations: int = 50
    tolerance: float = 1e-6
    random_state: int = 0
    cluster_centers_: Optional[np.ndarray] = field(default=None, init=False)
    labels_: Optional[np.ndarray] = field(default=None, init=False)
    inertia_: float = field(default=0.0, init=False)
    n_iter_: int = field(default=0, init=False)

    def fit(self, features: OperandLike) -> "KMeans":
        operand = as_linop(features)
        n_rows, n_columns = operand.shape
        if self.n_clusters > n_rows:
            raise ValueError("more clusters than rows")
        rng = np.random.default_rng(self.random_state)

        row_norms = operand.square().row_sums()
        centers = self._init_centers(operand, rng)

        labels = np.zeros(n_rows, dtype=int)
        for iteration in range(self.n_iterations):
            distances = self._distances(operand, centers, row_norms)
            labels = distances.argmin(axis=1)
            new_centers = np.zeros_like(centers)
            counts = np.bincount(labels, minlength=self.n_clusters).astype(float)
            # Cluster sums = Gᵀ T where G is the one-hot assignment matrix —
            # a transpose-LMM on the data.
            assignment = np.zeros((n_rows, self.n_clusters))
            assignment[np.arange(n_rows), labels] = 1.0
            sums = operand.transpose_lmm(assignment).T  # (k × d)
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            # Re-seed empty clusters at the farthest points.
            if (~nonempty).any():
                farthest = np.argsort(distances.min(axis=1))[::-1]
                empty = np.where(~nonempty)[0]
                new_centers[empty] = operand.row_values(farthest[: empty.size])
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            self.n_iter_ = iteration + 1
            if shift < self.tolerance:
                break
        distances = self._distances(operand, centers, row_norms)
        self.labels_ = distances.argmin(axis=1)
        self.inertia_ = float(distances[np.arange(n_rows), self.labels_].sum())
        self.cluster_centers_ = centers
        return self

    def _init_centers(self, operand, rng: np.random.Generator) -> np.ndarray:
        n_rows = operand.shape[0]
        indices = rng.choice(n_rows, size=self.n_clusters, replace=False)
        return operand.row_values(indices)

    def _distances(self, operand, centers: np.ndarray, row_norms: np.ndarray) -> np.ndarray:
        cross = operand.lmm(centers.T)  # (n × k) — the only data-touching term
        center_norms = np.sum(centers * centers, axis=1)
        distances = row_norms[:, None] - 2.0 * cross + center_norms[None, :]
        return np.maximum(distances, 0.0)

    def predict(self, features: OperandLike) -> np.ndarray:
        if self.cluster_centers_ is None:
            raise ValueError("model is not fitted")
        operand = as_linop(features)
        row_norms = operand.square().row_sums()
        return self._distances(operand, self.cluster_centers_, row_norms).argmin(axis=1)

