"""Tests for repro.learning.kmeans."""

import numpy as np
import pytest

from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning.base import as_linop
from repro.learning.kmeans import KMeans


@pytest.fixture
def blobs(rng):
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    points = []
    labels = []
    for index, center in enumerate(centers):
        points.append(center + rng.standard_normal((40, 2)))
        labels.extend([index] * 40)
    return np.vstack(points), np.array(labels)


class TestClustering:
    def test_recovers_well_separated_blobs(self, blobs):
        points, true_labels = blobs
        model = KMeans(n_clusters=3, random_state=1).fit(points)
        # Clusters should be pure: every true cluster maps to one predicted label.
        for cluster in range(3):
            predicted = model.labels_[true_labels == cluster]
            assert len(set(predicted.tolist())) == 1

    def test_inertia_positive_and_reported(self, blobs):
        points, _ = blobs
        model = KMeans(n_clusters=3, random_state=1).fit(points)
        assert model.inertia_ > 0.0
        assert model.n_iter_ >= 1

    def test_predict_assigns_nearest_center(self, blobs):
        points, _ = blobs
        model = KMeans(n_clusters=3, random_state=1).fit(points)
        new_points = np.array([[0.2, -0.1], [9.8, 10.4]])
        predictions = model.predict(new_points)
        centers = model.cluster_centers_
        for point, label in zip(new_points, predictions):
            distances = np.linalg.norm(centers - point, axis=1)
            assert label == distances.argmin()

    def test_more_clusters_than_rows_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=10).fit(np.zeros((3, 2)))

    def test_predict_before_fit(self, blobs):
        points, _ = blobs
        with pytest.raises(ValueError):
            KMeans().predict(points)

    def test_deterministic_given_seed(self, blobs):
        points, _ = blobs
        first = KMeans(n_clusters=3, random_state=7).fit(points)
        second = KMeans(n_clusters=3, random_state=7).fit(points)
        assert np.allclose(first.cluster_centers_, second.cluster_centers_)


class TestFactorizedEquivalence:
    def test_factorized_equals_materialized_clustering(self, scenario_dataset):
        matrix = AmalurMatrix(scenario_dataset)
        target = scenario_dataset.materialize()
        factorized = KMeans(n_clusters=3, random_state=5, n_iterations=20).fit(matrix)
        materialized = KMeans(n_clusters=3, random_state=5, n_iterations=20).fit(target)
        assert np.allclose(factorized.cluster_centers_, materialized.cluster_centers_)
        assert np.array_equal(factorized.labels_, materialized.labels_)
        assert factorized.inertia_ == pytest.approx(materialized.inertia_)

    def test_factorized_with_redundancy(self, synthetic_redundant_dataset):
        matrix = AmalurMatrix(synthetic_redundant_dataset)
        target = synthetic_redundant_dataset.materialize()
        factorized = KMeans(n_clusters=2, random_state=3, n_iterations=15).fit(matrix)
        materialized = KMeans(n_clusters=2, random_state=3, n_iterations=15).fit(target)
        assert np.allclose(factorized.cluster_centers_, materialized.cluster_centers_)


class TestSeeds:
    """Seeds are gathered rows of the data, bit for bit."""

    @pytest.mark.parametrize("view", ["full", "features"])
    def test_seeds_are_the_materialized_rows(self, synthetic_redundant_dataset, view):
        matrix = AmalurMatrix(synthetic_redundant_dataset)
        if view == "features":
            matrix = matrix.select_columns(synthetic_redundant_dataset.target_columns[1:])
        indices = np.random.default_rng(3).choice(matrix.shape[0], size=4, replace=False)
        seeds = KMeans(n_clusters=4)._init_centers(matrix, np.random.default_rng(3))
        assert np.array_equal(seeds, matrix.materialize()[indices])
        dense = matrix.materialize()
        seeds = KMeans(n_clusters=4)._init_centers(as_linop(dense), np.random.default_rng(3))
        assert np.array_equal(seeds, dense[indices])
