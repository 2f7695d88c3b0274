"""StreamingGD checkpoint/resume: bit-identical to an uninterrupted run."""

import numpy as np
import pytest

from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.exceptions import CheckpointError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.matrices.builder import integrate_tables
from repro.metadata.mappings import ScenarioType
from repro.reliability.checkpoint import CheckpointManager

N_ITERATIONS = 12


@pytest.fixture(scope="module")
def matrix():
    spec = ScenarioSpec(
        ScenarioType.LEFT_JOIN, base_rows=120, other_rows=90, base_features=4,
        other_features=5, overlap_rows=40, overlap_columns=2, seed=33,
    )
    base, other, matches, row_matches, targets = generate_scenario_tables(spec)
    dataset = integrate_tables(
        base, other, matches, row_matches, targets, spec.scenario,
        label_column="label",
    )
    return AmalurMatrix(dataset)


def _fit(matrix, task, n_iterations, manager=None, **kwargs):
    model = StreamingGD(
        task=task, block_rows=37, n_iterations=n_iterations,
        checkpoint=manager, **kwargs,
    )
    model.fit(matrix)
    return model


class TestResumeParity:
    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_interrupted_resume_is_bit_identical(self, matrix, task, tmp_path):
        reference = _fit(matrix, task, N_ITERATIONS)

        # Interrupted: run 5 epochs with checkpointing, then a fresh model
        # picks up the same manager and finishes the remaining epochs.
        manager = CheckpointManager(tmp_path, keep=2)
        _fit(matrix, task, 5, manager)
        resumed = _fit(matrix, task, N_ITERATIONS, manager)

        assert resumed.resumed_from_ == 5
        assert np.array_equal(resumed.coef_, reference.coef_)
        assert resumed.intercept_ == reference.intercept_
        assert resumed.loss_history_ == reference.loss_history_

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("first, second", [(1, 2), (2, 1), (1, 8)])
    def test_resume_across_worker_counts_is_bit_identical(
        self, matrix, task, first, second, tmp_path
    ):
        """The block grid fixes the bits, not the schedule: interrupted at
        one worker count and resumed at another equals the straight run."""
        reference = _fit(matrix, task, N_ITERATIONS, num_workers=1)

        manager = CheckpointManager(tmp_path, keep=2)
        _fit(matrix, task, 5, manager, num_workers=first)
        resumed = _fit(matrix, task, N_ITERATIONS, manager, num_workers=second)

        assert resumed.resumed_from_ == 5
        assert np.array_equal(resumed.coef_, reference.coef_)
        assert resumed.intercept_ == reference.intercept_
        assert resumed.loss_history_ == reference.loss_history_

    def test_resume_at_final_epoch_publishes_checkpointed_weights(
        self, matrix, tmp_path
    ):
        manager = CheckpointManager(tmp_path)
        full = _fit(matrix, "linear", N_ITERATIONS, manager)
        again = _fit(matrix, "linear", N_ITERATIONS, manager)
        assert again.resumed_from_ == N_ITERATIONS
        assert np.array_equal(again.coef_, full.coef_)

    def test_resume_past_a_corrupt_newest_checkpoint(self, matrix, tmp_path):
        reference = _fit(matrix, "linear", N_ITERATIONS)
        manager = CheckpointManager(tmp_path, keep=3)
        _fit(matrix, "linear", 6, manager)
        # Tear the newest checkpoint: resume must fall back to epoch 5 and
        # recompute epoch 6 on its way to the same final weights.
        newest = manager._path_for(6)
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        resumed = _fit(matrix, "linear", N_ITERATIONS, manager)
        assert resumed.resumed_from_ == 5
        assert np.array_equal(resumed.coef_, reference.coef_)

    def test_fresh_run_without_checkpoints_sets_no_resume_marker(
        self, matrix, tmp_path
    ):
        model = _fit(matrix, "linear", 3, CheckpointManager(tmp_path))
        assert model.resumed_from_ is None


class TestCheckpointCadence:
    def test_every_epoch_by_default(self, matrix, tmp_path):
        manager = CheckpointManager(tmp_path, keep=100)
        _fit(matrix, "linear", 4, manager)
        assert manager.steps() == [1, 2, 3, 4]

    def test_checkpoint_every_skips_intermediate_epochs(self, matrix, tmp_path):
        manager = CheckpointManager(tmp_path, keep=100)
        _fit(matrix, "linear", 9, manager, checkpoint_every=3)
        assert manager.steps() == [3, 6, 9]

    def test_metadata_records_epoch_boundary_state(self, matrix, tmp_path):
        manager = CheckpointManager(tmp_path)
        _fit(matrix, "logistic", 3, manager)
        restored = manager.latest()
        assert restored.metadata["task"] == "logistic"
        assert restored.metadata["iteration"] == 3
        assert restored.metadata["block_cursor"] == 0
        assert restored.arrays["loss_history"].shape == (3,)

    def test_no_manager_means_no_files_and_no_overhead_paths(self, matrix):
        model = _fit(matrix, "linear", 3)
        assert model.checkpoint is None
        assert model.resumed_from_ is None


class TestMismatches:
    def test_task_mismatch_is_rejected(self, matrix, tmp_path):
        manager = CheckpointManager(tmp_path)
        _fit(matrix, "linear", 2, manager)
        with pytest.raises(CheckpointError, match="'linear' model, not 'logistic'"):
            _fit(matrix, "logistic", 4, manager)

    def test_weight_shape_mismatch_is_rejected(self, matrix, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(
            1,
            {"weights": np.zeros((3, 1)), "loss_history": np.zeros(1)},
            {"task": "linear", "intercept": 0.0, "iteration": 1, "block_cursor": 0},
        )
        with pytest.raises(CheckpointError, match="weights of shape"):
            _fit(matrix, "linear", 4, manager)
