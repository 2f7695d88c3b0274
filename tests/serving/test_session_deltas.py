"""Incremental factor maintenance must be bit-compatible with rebuilds."""

import warnings

import numpy as np
import pytest

from repro.costmodel.decision import Decision
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.exceptions import ServiceError, StaleDatasetError
from repro.learning.logistic_regression import LogisticRegression
from repro.matrices.builder import integrate_tables
from repro.metadata.entity_resolution import KeyBasedResolver
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.relational.table import Table
from repro.serving import DatasetSession
from repro.system.executor import Executor
from repro.system.plan import ExecutionPlan, ModelSpec
from repro.system.requests import DeltaBatch, IntegrationConfig, PredictRequest, TrainRequest

JOIN_SCENARIOS = [
    ScenarioType.LEFT_JOIN,
    ScenarioType.FULL_OUTER_JOIN,
    ScenarioType.INNER_JOIN,
]
ALL_SCENARIOS = JOIN_SCENARIOS + [ScenarioType.UNION]


def make_session(scenario, seed=0, **session_options):
    spec = ScenarioSpec(
        scenario=scenario, base_rows=40, other_rows=25,
        overlap_rows=15, overlap_columns=2, seed=seed,
    )
    base, other, matches, _, target_columns = generate_scenario_tables(spec)
    config = IntegrationConfig(
        base="S1", other="S2", target_columns=target_columns,
        scenario=scenario, label_column="label",
    )
    return DatasetSession(base, other, config, column_matches=matches, **session_options)


def rebuilt_reference(session):
    """A from-scratch session over the maintained session's current tables."""
    return DatasetSession(
        session.table("S1"), session.table("S2"), session.config,
        column_matches=session.column_matches,
    )


def feature_rows(table, exclude=("id", "label")):
    return [c.name for c in table.schema if c.name not in exclude]


def append_batch(session, table_name, ids, rng):
    table = session.table(table_name)
    rows = {"id": list(ids)}
    for column in table.schema:
        if column.name == "id":
            continue
        if column.name == "label":
            rows["label"] = rng.integers(0, 2, size=len(ids)).tolist()
        else:
            rows[column.name] = np.round(rng.standard_normal(len(ids)), 4).tolist()
    return DeltaBatch(table=table_name, kind="append", rows=rows)


def assert_factors_match_rebuild(session):
    """The maintained factors are the factors ``integrate_tables`` builds from
    scratch on the session's current tables — not only the same predictions."""
    base, other = session.table("S1"), session.table("S2")
    config = session.config
    rebuilt = integrate_tables(
        base, other, session.column_matches,
        KeyBasedResolver([("id", "id")]).resolve_index(base, other),
        config.target_columns, config.scenario, label_column=config.label_column,
    )
    for ours, theirs in zip(session.dataset.factors, rebuilt.factors):
        assert np.array_equal(ours.data, theirs.data)
        assert np.array_equal(ours.indicator.compressed, theirs.indicator.compressed)
        assert ours.redundancy == theirs.redundancy


def assert_parity(session, atol=1e-8):
    assert_factors_match_rebuild(session)
    reference = rebuilt_reference(session)
    ours = session.dataset.materialize()
    theirs = reference.dataset.materialize()
    assert ours.shape == theirs.shape
    assert np.allclose(ours, theirs, atol=atol)
    assert np.allclose(
        session.matrix.crossprod(), reference.matrix.crossprod(), atol=atol
    )
    trained = session.train(TrainRequest(model=ModelSpec(task="regression")))
    expected = reference.train(TrainRequest(model=ModelSpec(task="regression")))
    assert np.allclose(trained.coef_, expected.coef_, atol=atol)
    assert trained.intercept_ == pytest.approx(expected.intercept_, abs=atol)
    return reference


class TestAppendParity:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_other_append_matches_rebuild(self, scenario):
        session = make_session(scenario)
        rng = np.random.default_rng(1)
        # a mix of rows matching existing base entities and brand-new ones
        session.apply_delta(append_batch(session, "S2", [16, 17, 9000, 9001], rng))
        assert_parity(session)

    @pytest.mark.parametrize("scenario", JOIN_SCENARIOS)
    def test_base_append_matches_rebuild(self, scenario):
        session = make_session(scenario)
        rng = np.random.default_rng(2)
        # ids 40.. are other-only entities, 9000s are brand new
        session.apply_delta(append_batch(session, "S1", [40, 41, 9000], rng))
        assert_parity(session)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_interleaved_deltas_match_rebuild(self, scenario):
        session = make_session(scenario)
        rng = np.random.default_rng(3)
        next_id = 5000
        for step in range(6):
            table = "S1" if step % 2 == 0 else "S2"
            session.apply_delta(
                append_batch(session, table, [next_id, next_id + 1, step], rng)
            )
            next_id += 2
            assert_parity(session)
        assert session.deltas_applied == 6

    def test_left_join_appends_stay_incremental(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        rng = np.random.default_rng(4)
        session.apply_delta(append_batch(session, "S1", [7000], rng))
        out = session.apply_delta(append_batch(session, "S2", [7000], rng))
        assert out["mode"] == "incremental"
        assert out["filled_target_rows"] == 1  # the S2 row fills the S1 row's gap
        assert session.rebuilds == 0
        assert_parity(session)


    def test_string_base_column_is_not_a_provider_before_or_after_an_append(self):
        base = Table.from_dict(
            "S1", {"id": [1, 2, 3, 4], "m": ["a", "b", "c", "d"], "x": [1.0, 2.0, 3.0, 4.0]},
            id={"is_key": True},
        )
        other = Table.from_dict(
            "S2", {"id": [1, 2, 3], "m": [10.0, 20.0, 30.0]}, id={"is_key": True}
        )
        config = IntegrationConfig(
            base="S1", other="S2", target_columns=["x", "m"],
            scenario=ScenarioType.LEFT_JOIN,
        )
        matches = [
            ColumnMatch("S1", "id", "S2", "id", 1.0), ColumnMatch("S1", "m", "S2", "m", 1.0)
        ]
        session = DatasetSession(
            base, other, config, column_matches=matches, staleness_threshold=1.0
        )
        assert session.dataset.materialize()[:, 1].tolist() == [10.0, 20.0, 30.0, 0.0]
        out = session.apply_delta(
            DeltaBatch(table="S2", kind="append", rows={"id": [4], "m": [40.0]})
        )
        assert out["mode"] == "incremental"
        assert session.dataset.materialize()[:, 1].tolist() == [10.0, 20.0, 30.0, 40.0]
        assert_factors_match_rebuild(session)


class TestUpdateAndDelete:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    @pytest.mark.parametrize("table_name", ["S1", "S2"])
    def test_feature_update_matches_rebuild(self, scenario, table_name):
        session = make_session(scenario)
        rng = np.random.default_rng(5)
        table = session.table(table_name)
        columns = feature_rows(table)[:2]
        indices = [0, 3, 7]
        batch = DeltaBatch(
            table=table_name, kind="update",
            rows={c: np.round(rng.standard_normal(3), 4).tolist() for c in columns},
            row_indices=indices,
        )
        out = session.apply_delta(batch)
        assert out["mode"] == "incremental"
        assert_parity(session)

    def test_key_update_forces_rebuild(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        out = session.apply_delta(
            DeltaBatch(table="S2", kind="update", rows={"id": [999]}, row_indices=[0])
        )
        assert out["mode"] == "rebuild"
        assert session.rebuilds == 1
        assert_parity(session)

    def test_delete_forces_rebuild(self):
        session = make_session(ScenarioType.FULL_OUTER_JOIN)
        before = session.n_target_rows
        # rows 20, 21 of S2 are other-only entities: deleting them must
        # shrink the full-outer target after the rebuild
        out = session.apply_delta(
            DeltaBatch(table="S2", kind="delete", row_indices=[20, 21])
        )
        assert out["mode"] == "rebuild"
        assert session.n_target_rows < before
        assert_parity(session)

    def test_unmapped_column_update_skips_republish(self):
        from repro.relational.schema import Column, Schema
        from repro.relational.table import Table
        from repro.relational.types import DataType

        base = Table(
            "S1",
            Schema([
                Column("id", DataType.INT, is_key=True),
                Column("x", DataType.FLOAT),
                Column("note", DataType.FLOAT),  # not in the target schema
            ]),
            {"id": [0, 1, 2], "x": [1.0, 2.0, 3.0], "note": [0.0, 0.0, 0.0]},
        )
        other = Table(
            "S2",
            Schema([
                Column("id", DataType.INT, is_key=True),
                Column("y", DataType.FLOAT),
            ]),
            {"id": [1, 2], "y": [5.0, 6.0]},
        )
        config = IntegrationConfig(
            base="S1", other="S2", target_columns=["x", "y"],
            scenario=ScenarioType.LEFT_JOIN,
        )
        session = DatasetSession(base, other, config)
        version = session.version
        out = session.apply_delta(
            DeltaBatch(
                table="S1", kind="update", rows={"note": [1.5]}, row_indices=[2]
            )
        )
        assert out["mode"] == "incremental"
        assert session.version == version  # the factorized state never changed
        assert session.table("S1").column_values("note")[2] == 1.5


class TestStalenessAndFallback:
    def test_staleness_threshold_triggers_rebuild(self):
        session = make_session(ScenarioType.LEFT_JOIN, staleness_threshold=0.05)
        rng = np.random.default_rng(6)
        out = session.apply_delta(
            append_batch(session, "S1", list(range(8000, 8005)), rng)
        )
        assert out["mode"] == "rebuild"
        assert out["reason"] == "staleness threshold exceeded"
        assert session.staleness == 0.0  # rebuild resets the accumulator
        assert_parity(session)

    def test_auto_rebuild_off_raises_stale(self):
        session = make_session(ScenarioType.LEFT_JOIN, auto_rebuild=False)
        with pytest.raises(StaleDatasetError):
            session.apply_delta(DeltaBatch(table="S1", kind="delete", row_indices=[0]))

    def test_pinned_version_mismatch_raises_stale(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        session.train(TrainRequest(model=ModelSpec(task="regression")))
        pinned = session.version
        rng = np.random.default_rng(7)
        session.apply_delta(append_batch(session, "S2", [6000], rng))
        with pytest.raises(StaleDatasetError):
            session.predict(PredictRequest(version=pinned))

    def test_unknown_table_rejected(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        with pytest.raises(ServiceError):
            session.apply_delta(
                DeltaBatch(table="S9", kind="append", rows={"id": [1]})
            )


class TestSessionModels:
    def test_normal_solver_reads_maintained_gram(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        rng = np.random.default_rng(8)
        session.apply_delta(append_batch(session, "S1", [9100, 9101], rng))
        model = session.train(TrainRequest(model=ModelSpec(task="regression")))
        assert model.solver == "normal"
        assert model.version == session.version
        # gram seeding means the solve never recomputed T^T T
        assert session.matrix.gram_cache.stats["misses"] == 0

    def test_warm_start_resumes_from_cached_weights(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        spec = ModelSpec(
            task="regression", n_iterations=40, learning_rate=0.05,
            hyperparameters={"solver": "gd"},
        )
        cold = session.train(TrainRequest(model=spec, model_name="gd"))
        resumed = session.train(
            TrainRequest(model=spec, model_name="gd", warm_start=True)
        )
        assert resumed.metrics["mse_loss"] <= cold.metrics["mse_loss"] + 1e-12

    def test_classification_predicts_probabilities(self):
        session = make_session(ScenarioType.INNER_JOIN)
        session.train(
            TrainRequest(model=ModelSpec(task="classification", n_iterations=30))
        )
        scores = session.predict(PredictRequest())
        assert scores.shape == (session.n_target_rows,)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_unsupported_task_rejected(self):
        session = make_session(ScenarioType.LEFT_JOIN)
        with pytest.raises(ServiceError):
            session.train(TrainRequest(model=ModelSpec(task="clustering")))

    def test_predict_row_range_is_a_slice_of_full(self):
        session = make_session(ScenarioType.FULL_OUTER_JOIN)
        session.train(TrainRequest(model=ModelSpec(task="regression")))
        full = session.predict(PredictRequest())
        window = session.predict(PredictRequest(row_range=(5, 12)))
        assert np.array_equal(window, full[5:12])
        with pytest.raises(ServiceError):
            session.predict(PredictRequest(row_range=(0, session.n_target_rows + 1)))

    def test_classification_predict_is_the_learners_sigmoid_at_both_tails(self):
        """One ``sigmoid``: a feature scaled by 1 000 drives scores past
        ±700, where ``1 / (1 + exp(-s))`` overflows and ``gd.sigmoid`` does not."""
        rng = np.random.default_rng(0)
        n = 200
        x = np.round(rng.standard_normal(n), 4) * 1000.0
        base = Table.from_dict(
            "S1",
            {"id": list(range(n)), "label": (x > 0).astype(int).tolist(), "x": x.tolist()},
            id={"is_key": True},
        )
        other = Table.from_dict(
            "S2",
            {"id": list(range(n)), "z": np.round(rng.standard_normal(n), 4).tolist()},
            id={"is_key": True},
        )
        config = IntegrationConfig(
            base="S1", other="S2", target_columns=["label", "x", "z"],
            scenario=ScenarioType.LEFT_JOIN, label_column="label",
        )
        session = DatasetSession(
            base, other, config, column_matches=[ColumnMatch("S1", "id", "S2", "id", 1.0)]
        )
        model = session.train(TrainRequest(
            model=ModelSpec("classification", n_iterations=50, learning_rate=1.0)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            served = session.predict(PredictRequest())
        learner = LogisticRegression()
        learner.coef_, learner.intercept_ = model.coef_, model.intercept_
        features = session.matrix.feature_matrix_view()
        scores = features.lmm(model.coef_[:, None])[:, 0] + model.intercept_
        assert scores.min() < -710 and scores.max() > 710  # exp overflows float64 there
        assert np.array_equal(served, learner.predict_proba(features))
        assert served.min() == 0.0 and served.max() == 1.0

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_session_gd_is_the_executor_gd(self, task):
        """Session and executor fit through one learner factory: the same
        spec over the same factors gives the same weights, cold and warm."""
        session = make_session(ScenarioType.LEFT_JOIN)
        spec = ModelSpec(
            task, n_iterations=25, learning_rate=0.05, l2_penalty=0.01,
            hyperparameters={"solver": "gd"},
        )
        plan = ExecutionPlan(Decision.FACTORIZE, session.dataset, spec)
        assert plan.backend is session.dataset.backend is None
        executor = Executor()
        previous = None
        for warm in (False, True):
            ours = session.train(TrainRequest(model=spec, warm_start=warm))
            theirs = executor.execute(plan, warm_start_from=previous).model
            assert ours.solver == "gd"
            assert np.array_equal(ours.coef_, theirs.coef_)
            assert ours.intercept_ == theirs.intercept_
            assert theirs.warm_start is warm
            previous = theirs
