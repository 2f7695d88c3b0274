"""Tests for repro.learning.gd: the shared loop, its links, its edge inputs."""

import warnings

import numpy as np
import pytest

import repro.learning
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression, LogisticRegression, StreamingGD, gd
from repro.learning.base import DenseMatrix
from repro.learning.metrics import log_loss, mean_squared_error
from repro.metadata.mappings import ScenarioType


@pytest.fixture
def empty_join():
    """An inner join none of whose rows matched: a 0-row target."""
    dataset = generate_scenario_dataset(
        ScenarioSpec(
            scenario=ScenarioType.INNER_JOIN, base_rows=20, other_rows=20,
            overlap_rows=0, seed=1,
        )
    )
    assert dataset.n_target_rows == 0
    return dataset


class TestLinks:
    def test_squared_error_matches_the_metric(self, rng):
        scores, targets = rng.standard_normal(50), rng.standard_normal(50)
        loss_sum, errors = gd.squared_error_link(scores, targets)
        assert np.array_equal(errors, scores - targets)
        assert loss_sum / 50 == pytest.approx(mean_squared_error(targets, scores))

    def test_log_loss_matches_the_metric_and_clips(self, rng):
        scores = np.concatenate([rng.standard_normal(48), [800.0, -800.0]])
        targets = np.concatenate([rng.integers(0, 2, 48), [0.0, 1.0]]).astype(float)
        loss_sum, errors = gd.log_loss_link(scores, targets)
        probabilities = gd.sigmoid(scores)
        assert np.array_equal(errors, probabilities - targets)
        assert np.isfinite(loss_sum)  # saturated and wrong, yet clipped
        assert loss_sum / 50 == pytest.approx(log_loss(targets, probabilities))

    def test_sigmoid_is_stable_at_both_tails(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gd.sigmoid(np.array([-1e4, 0.0, 1e4]))
        assert values.tolist() == [0.0, 0.5, 1.0]

    def test_descend_is_not_part_of_the_public_api(self):
        assert "descend" not in repro.learning.__all__


class TestDescend:
    def test_one_block_view_runs_the_plain_numpy_recurrence(self, rng):
        features = rng.standard_normal((40, 3))
        targets = rng.standard_normal(40)
        view = gd.OneBlock(DenseMatrix(features))
        history = []
        weights, intercept = gd.descend(
            view, view.blocks, gd.squared_error_link, targets, np.zeros((3, 1)), 0.0,
            learning_rate=0.05, n_iterations=7, l2_penalty=0.0, learn_intercept=False,
            tolerance=0.0, loss_history=history, loss_metric="gd.linear.loss",
        )
        expected = np.zeros(3)
        for _ in range(7):
            expected = expected - 0.05 * features.T @ (features @ expected - targets) / 40
        assert np.allclose(weights[:, 0], expected, atol=1e-12)
        assert intercept == 0.0 and len(history) == 7

    def test_callbacks_fire_per_block_and_per_epoch(self, rng):
        dataset = generate_scenario_dataset(
            ScenarioSpec(
                scenario=ScenarioType.LEFT_JOIN, base_rows=30, other_rows=20,
                overlap_rows=10, seed=3,
            )
        )
        view = AmalurMatrix(dataset).blocked()
        blocks = view.row_blocks(8)
        retired, epochs = [], []
        gd.descend(
            view, blocks, gd.squared_error_link, rng.standard_normal(view.n_rows),
            np.zeros((view.n_columns, 1)), 0.0,
            learning_rate=0.01, n_iterations=5, l2_penalty=0.0, learn_intercept=False,
            tolerance=0.0, loss_history=[], loss_metric="gd.streaming.loss",
            start_iteration=2, on_block=lambda: retired.append(1),
            on_epoch=lambda iteration, weights, intercept: epochs.append(iteration),
        )
        assert epochs == [3, 4, 5]
        assert len(retired) == 3 * len(blocks)


class TestEmptyInput:
    """No rows, no gradient: a typed error, not weights of NaN."""

    @pytest.mark.parametrize("model", [LinearRegression, LogisticRegression])
    def test_full_batch_learners_reject_zero_rows(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "mean of empty slice" on the way
            with pytest.raises(ValueError, match=r"shape \(0, 3\)"):
                model(n_iterations=3).fit(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_streaming_gd_rejects_a_zero_row_join(self, empty_join, task):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"shape \(0, \d+\)"):
                StreamingGD(task, n_iterations=3).fit(AmalurMatrix(empty_join))
