"""StreamingGD parity: row-block training vs full-batch GD (≤ 1e-8)."""

import numpy as np
import pytest

from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression, LogisticRegression, StreamingGD
from repro.matrices.builder import integrate_tables
from repro.metadata.mappings import ScenarioType
from repro.streaming import InMemoryTableStream, SpillStore, integrate_streams

BLOCK_SIZES = (1, 7, 10_000)
TOLERANCE = 1e-8


def _build(scenario, spilled, store):
    spec = ScenarioSpec(
        scenario, base_rows=180, other_rows=140, base_features=5,
        other_features=6, overlap_rows=60, overlap_columns=2, seed=21,
    )
    base, other, matches, row_matches, targets = generate_scenario_tables(spec)
    if spilled:
        return integrate_streams(
            InMemoryTableStream(base, 31), InMemoryTableStream(other, 31),
            matches, row_matches, targets, scenario,
            label_column="label", store=store,
        )
    return integrate_tables(
        base, other, matches, row_matches, targets, scenario, label_column="label"
    )


class TestBlockedViewParity:
    @pytest.mark.parametrize("scenario", list(ScenarioType))
    def test_blocked_lmm_and_transpose_match_full_operators(self, scenario):
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(scenario, spilled=True, store=store))
            rng = np.random.default_rng(3)
            x = rng.standard_normal((matrix.n_columns, 2))
            full_lmm = matrix.lmm(x)
            full_tlmm_operand = rng.standard_normal((matrix.n_rows, 2))
            full_tlmm = matrix.transpose_lmm(full_tlmm_operand)
            view = matrix.blocked()
            for block_rows in (1, 13, 10_000):
                pieces = [
                    view.lmm_block(x, start, stop)
                    for start, stop in view.row_blocks(block_rows)
                ]
                assert np.allclose(np.vstack(pieces), full_lmm, atol=1e-12)
                accumulated = np.zeros((matrix.n_columns, 2))
                for start, stop in view.row_blocks(block_rows):
                    view.transpose_lmm_add(
                        full_tlmm_operand[start:stop], start, stop, accumulated
                    )
                assert np.allclose(accumulated, full_tlmm, atol=1e-9)

    def test_column_subset_view_matches_select_columns(self):
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(ScenarioType.INNER_JOIN, True, store))
            features = [
                c for c in matrix.dataset.target_columns
                if c != matrix.dataset.label_column
            ]
            sliced = matrix.select_columns(features)
            view = matrix.blocked(columns=features)
            assert view.shape == sliced.shape
            x = np.random.default_rng(0).standard_normal((view.n_columns, 1))
            pieces = [
                view.lmm_block(x, start, stop)
                for start, stop in view.row_blocks(37)
            ]
            assert np.allclose(np.vstack(pieces), sliced.lmm(x), atol=1e-12)

    def test_unknown_column_rejected(self):
        matrix = AmalurMatrix(_build(ScenarioType.UNION, spilled=False, store=None))
        from repro.exceptions import FactorizationError

        with pytest.raises(FactorizationError):
            matrix.blocked(columns=["nope"])


class TestStreamingGDLinear:
    @pytest.mark.parametrize("scenario", list(ScenarioType))
    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    def test_weights_match_full_batch(self, scenario, block_rows):
        reference_matrix = AmalurMatrix(_build(scenario, spilled=False, store=None))
        features = reference_matrix.feature_matrix_view()
        labels = reference_matrix.labels()
        reference = LinearRegression(solver="gd", n_iterations=40).fit(features, labels)
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(scenario, spilled=True, store=store))
            model = StreamingGD(
                task="linear", block_rows=block_rows, n_iterations=40,
                release_pages=store.release,
            ).fit(matrix)
            assert np.max(np.abs(model.coef_ - reference.coef_)) < TOLERANCE
            assert abs(model.intercept_ - reference.intercept_) < TOLERANCE
            assert len(model.loss_history_) == len(reference.loss_history_)
            assert np.allclose(model.loss_history_, reference.loss_history_, atol=1e-8)

    def test_l2_and_tolerance_match(self):
        matrix = AmalurMatrix(_build(ScenarioType.INNER_JOIN, False, None))
        features = matrix.feature_matrix_view()
        labels = matrix.labels()
        reference = LinearRegression(
            solver="gd", n_iterations=60, l2_penalty=0.05, tolerance=1e-5
        ).fit(features, labels)
        model = StreamingGD(
            task="linear", block_rows=17, n_iterations=60,
            l2_penalty=0.05, tolerance=1e-5,
        ).fit(matrix)
        assert len(model.loss_history_) == len(reference.loss_history_)
        assert np.max(np.abs(model.coef_ - reference.coef_)) < TOLERANCE

    def test_explicit_labels_use_all_columns(self):
        matrix = AmalurMatrix(_build(ScenarioType.LEFT_JOIN, False, None))
        labels = np.random.default_rng(1).standard_normal(matrix.n_rows)
        reference = LinearRegression(solver="gd", n_iterations=25).fit(matrix, labels)
        model = StreamingGD(task="linear", block_rows=23, n_iterations=25).fit(
            matrix, labels
        )
        assert np.max(np.abs(model.coef_ - reference.coef_)) < TOLERANCE

    def test_prediction_matches_full_batch(self):
        matrix = AmalurMatrix(_build(ScenarioType.INNER_JOIN, False, None))
        features = matrix.feature_matrix_view()
        labels = matrix.labels()
        reference = LinearRegression(solver="gd", n_iterations=30).fit(features, labels)
        model = StreamingGD(task="linear", block_rows=41, n_iterations=30).fit(matrix)
        assert np.allclose(
            model.predict(matrix), reference.predict(features), atol=1e-8
        )


class TestStreamingGDLogistic:
    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    def test_weights_match_full_batch(self, block_rows):
        reference_matrix = AmalurMatrix(
            _build(ScenarioType.INNER_JOIN, spilled=False, store=None)
        )
        features = reference_matrix.feature_matrix_view()
        labels = reference_matrix.labels()
        reference = LogisticRegression(n_iterations=40).fit(features, labels)
        with SpillStore() as store:
            matrix = AmalurMatrix(
                _build(ScenarioType.INNER_JOIN, spilled=True, store=store)
            )
            model = StreamingGD(
                task="logistic", block_rows=block_rows, n_iterations=40,
                release_pages=store.release,
            ).fit(matrix)
            assert np.max(np.abs(model.coef_ - reference.coef_)) < TOLERANCE
            assert abs(model.intercept_ - reference.intercept_) < TOLERANCE
            assert np.allclose(model.loss_history_, reference.loss_history_, atol=1e-8)

    def test_rejects_non_binary_labels(self):
        matrix = AmalurMatrix(_build(ScenarioType.UNION, False, None))
        with pytest.raises(ValueError, match="binary"):
            StreamingGD(task="logistic").fit(matrix, np.full(matrix.n_rows, 2.0))


class TestOneBlockGrid:
    """``block_rows >= n_rows``: StreamingGD walks the one-block grid the
    full-batch learners always walk (same loop, `repro.learning.gd`)."""

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    @pytest.mark.parametrize("extra_rows", [0, 1])
    def test_one_block_matches_full_batch(self, task, extra_rows):
        matrix = AmalurMatrix(_build(ScenarioType.FULL_OUTER_JOIN, False, None))
        features = matrix.feature_matrix_view()
        labels = matrix.labels()
        block_rows = matrix.n_rows + extra_rows
        assert list(matrix.blocked().row_blocks(block_rows)) == [(0, matrix.n_rows)]
        if task == "linear":
            reference = LinearRegression(solver="gd", n_iterations=40)
        else:
            labels = (labels > np.median(labels)).astype(float)
            reference = LogisticRegression(n_iterations=40)
        reference.fit(features, labels)
        model = StreamingGD(task=task, block_rows=block_rows, n_iterations=40).fit(
            features, labels
        )
        assert np.max(np.abs(model.coef_ - reference.coef_)) < TOLERANCE
        assert abs(model.intercept_ - reference.intercept_) < TOLERANCE
        assert np.allclose(model.loss_history_, reference.loss_history_, atol=1e-8)


class TestStreamingGDValidation:
    def test_unknown_task(self):
        matrix = AmalurMatrix(_build(ScenarioType.UNION, False, None))
        with pytest.raises(ValueError, match="unknown task"):
            StreamingGD(task="svm").fit(matrix)

    def test_label_column_required_without_labels(self):
        spec = ScenarioSpec(ScenarioType.INNER_JOIN, base_rows=30, other_rows=20,
                            overlap_rows=10, seed=0)
        base, other, matches, row_matches, targets = generate_scenario_tables(spec)
        dataset = integrate_tables(base, other, matches, row_matches, targets,
                                   spec.scenario)
        from repro.exceptions import FactorizationError

        with pytest.raises(FactorizationError):
            StreamingGD().fit(AmalurMatrix(dataset))

    def test_label_mismatch_rejected(self):
        matrix = AmalurMatrix(_build(ScenarioType.UNION, False, None))
        with pytest.raises(ValueError, match="rows"):
            StreamingGD().fit(matrix, np.zeros(3))
