"""StreamingGD parity: row-block training vs full-batch GD (≤ 1e-8)."""

import numpy as np
import pytest

from repro import telemetry
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.exceptions import CheckpointError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import LinearRegression, LogisticRegression, StreamingGD
from repro.matrices.builder import integrate_tables, star_schema
from repro.metadata.mappings import ScenarioType
from repro.reliability.checkpoint import CheckpointManager
from repro.streaming import InMemoryTableStream, SpillStore, integrate_streams

BLOCK_SIZES = (1, 7, 10_000)
TOLERANCE = 1e-8
WEIGHT_RTOL = 1e-10  # linear weights vs the row-space recurrence, relative
LOSS_ATOL = 1e-8


def row_space_gd(features, targets, *, learning_rate=0.01, n_iterations=200,
                 l2_penalty=0.0, tolerance=0.0, fit_intercept=True):
    """The least-squares GD recurrence over materialized rows, in plain
    numpy: ``(weights, intercept, loss history)``."""
    offset = float(targets.mean()) if fit_intercept else 0.0
    centred = targets - offset
    n_rows = features.shape[0]
    weights, losses = np.zeros(features.shape[1]), []
    for _ in range(n_iterations):
        residuals = features @ weights - centred
        losses.append(float(residuals @ residuals) / n_rows)
        gradient = features.T @ residuals / n_rows + l2_penalty * weights / n_rows
        step = learning_rate * gradient
        weights = weights - step
        if tolerance and np.linalg.norm(step) < tolerance:
            break
    return weights, offset, losses


def assert_matches_row_space(model, reference):
    weights, intercept, losses = reference
    assert np.max(np.abs(model.coef_ - weights)) <= WEIGHT_RTOL * np.max(np.abs(weights))
    assert abs(model.intercept_ - intercept) <= WEIGHT_RTOL * max(abs(intercept), 1.0)
    assert len(model.loss_history_) == len(losses)
    assert np.max(np.abs(np.asarray(model.loss_history_) - losses)) <= LOSS_ATOL


def rank_deficient_dataset(n_rows=150, seed=4):
    """A star join whose target carries an all-zero column and a column
    duplicated from another: ``XᵀX`` is singular."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(n_rows), rng.standard_normal(n_rows)
    label = 2.0 * a - b + 0.1 * rng.standard_normal(n_rows) + 3.0
    entity = np.column_stack([label, a, np.zeros(n_rows), b, a])
    dimension = rng.standard_normal((9, 2))
    return star_schema(
        ("S", ["label", "a", "zero", "b", "a_copy"], entity),
        [("D", ["d1", "d2"], dimension, rng.integers(0, 9, size=n_rows))],
        label_column="label",
    )


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

    @pytest.mark.parametrize("options", [
        pytest.param({}, id="plain"),
        pytest.param({"l2_penalty": 0.05}, id="l2"),
        pytest.param({"tolerance": 2e-3, "n_iterations": 400}, id="tolerance"),
        pytest.param({"fit_intercept": False}, id="no-intercept"),
    ])
    @pytest.mark.parametrize("explicit_labels", [False, True], ids=["label-column", "labels"])
    @pytest.mark.parametrize("block_rows", (7, 10_000))
    def test_matches_the_row_space_recurrence(self, options, explicit_labels, block_rows):
        options = {"n_iterations": 60, "learning_rate": 0.05, **options}
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(ScenarioType.LEFT_JOIN, True, store))
            target = matrix.materialize()
            label = matrix.dataset.target_columns.index("label")
            if explicit_labels:
                labels = np.random.default_rng(1).standard_normal(matrix.n_rows)
                features = target
            else:
                labels, features = None, np.delete(target, label, axis=1)
            model = StreamingGD(
                task="linear", block_rows=block_rows, release_pages=store.release, **options
            ).fit(matrix, labels)
        reference = row_space_gd(
            features, target[:, label] if labels is None else labels, **options
        )
        if "tolerance" in options:
            assert len(reference[2]) < options["n_iterations"]  # it did stop early
        assert_matches_row_space(model, reference)

    @pytest.mark.parametrize("block_rows", (1, 7, 10_000))
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_rank_deficient_target(self, block_rows, fit_intercept):
        dataset = rank_deficient_dataset()
        target = dataset.materialize()
        fits = [
            StreamingGD(
                task="linear", block_rows=block_rows, n_iterations=80, learning_rate=0.05,
                fit_intercept=fit_intercept, num_workers=workers,
            ).fit(AmalurMatrix(dataset))
            for workers in (1, 2, 8)
        ]
        model = fits[0]
        for other in fits[1:]:  # the same bits at every worker count
            assert np.array_equal(other.coef_, model.coef_)
            assert other.intercept_ == model.intercept_
            assert other.loss_history_ == model.loss_history_
        reference = row_space_gd(
            target[:, 1:], target[:, 0], learning_rate=0.05, n_iterations=80,
            fit_intercept=fit_intercept,
        )
        assert_matches_row_space(model, reference)
        assert abs(model.coef_[1]) <= 1e-12  # the all-zero column
        assert abs(model.coef_[0] - model.coef_[3]) <= 1e-12  # duplicated columns share it

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


class TestSpillReads:
    """``spill.bytes_read`` over one fit: a linear fit reads every mapped
    row of every spilled ``D_k`` once, the label column's included; a
    logistic fit reads them twice per iteration."""

    N_ITERATIONS = 5

    @staticmethod
    def _bytes_read(matrix, task, labels=None):
        with telemetry.collect(sample_memory=False) as session:
            StreamingGD(task=task, block_rows=37, n_iterations=TestSpillReads.N_ITERATIONS).fit(
                matrix, labels
            )
        return session.metrics.counter_values()["spill.bytes_read"]

    @staticmethod
    def _one_pass(plan):
        return plan.n_mapped_rows * plan.storage.shape[1] * plan.storage.itemsize

    @pytest.mark.parametrize("scenario", list(ScenarioType))
    def test_linear_fit_reads_the_spill_once(self, scenario):
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(scenario, True, store))
            one_pass = sum(self._one_pass(plan) for plan in matrix._plans)
            assert self._bytes_read(matrix, "linear") == one_pass
            if scenario in (ScenarioType.FULL_OUTER_JOIN, ScenarioType.UNION):
                # Every source row is mapped: one pass is the whole spill.
                assert one_pass == sum(factor.data.nbytes for factor in matrix.dataset.factors)
                assert one_pass == store.spilled_bytes

    def test_linear_resume_reads_no_spill(self, tmp_path):
        """A linear checkpoint carries the statistics: the resumed fit
        reads nothing and ends on the uninterrupted run's bits."""
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(ScenarioType.LEFT_JOIN, True, store))
            straight = StreamingGD(task="linear", block_rows=37, n_iterations=8).fit(matrix)
            manager = CheckpointManager(tmp_path, keep=2)
            StreamingGD(task="linear", block_rows=37, n_iterations=5, checkpoint=manager).fit(
                matrix
            )
            with telemetry.collect(sample_memory=False) as session:
                resumed = StreamingGD(
                    task="linear", block_rows=37, n_iterations=8, checkpoint=manager
                ).fit(matrix)
        assert resumed.resumed_from_ == 5
        assert "spill.bytes_read" not in session.metrics.counter_values()
        assert np.array_equal(resumed.coef_, straight.coef_)
        assert resumed.intercept_ == straight.intercept_
        assert resumed.loss_history_ == straight.loss_history_

    @pytest.mark.parametrize(
        "width, grid, message",
        [
            (0, {}, "statistics of shape"),
            (1, {"n_rows": 1_000_000, "block_rows": 37}, "summed over"),
            (1, {"block_rows": 36}, "summed over"),
        ],
        ids=["shape", "rows", "block_rows"],
    )
    def test_statistics_of_another_fit_are_rejected(self, tmp_path, width, grid, message):
        """Statistics are restored only onto the shape, row count and block
        grid they were summed over: rows added or dropped since the
        checkpoint would otherwise train a model from the old data."""
        matrix = AmalurMatrix(_build(ScenarioType.LEFT_JOIN, False, None))
        d = matrix.n_columns - 1 + width
        manager = CheckpointManager(tmp_path)
        manager.save(
            1,
            {"weights": np.zeros((matrix.n_columns - 1, 1)), "loss_history": np.zeros(1),
             "gram": np.zeros((d, d)), "sums": np.zeros(d)},
            {"task": "linear", "intercept": 0.0, "iteration": 1, "block_cursor": 0,
             "n_rows": matrix.n_rows, "block_rows": 37, **grid},
        )
        with pytest.raises(CheckpointError, match=message):
            StreamingGD(task="linear", block_rows=37, n_iterations=3, checkpoint=manager).fit(
                matrix
            )

    @pytest.mark.parametrize("scenario", [ScenarioType.FULL_OUTER_JOIN, ScenarioType.LEFT_JOIN])
    def test_logistic_fit_reads_every_block_twice_per_iteration(self, scenario):
        with SpillStore() as store:
            matrix = AmalurMatrix(_build(scenario, True, store))
            one_pass = sum(self._one_pass(plan) for plan in matrix._plans)
            labels = (matrix.labels() > np.median(matrix.labels())).astype(float)
            assert self._bytes_read(matrix, "logistic", labels) == (
                2 * self.N_ITERATIONS * one_pass
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
