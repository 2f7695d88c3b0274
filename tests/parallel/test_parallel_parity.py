"""Parallel-engine parity: results must not depend on the worker count.

The contract under test, for every scenario x chunk size x worker count:

* built factors are **bit-identical** at every worker count (assembly is
  pure data movement into disjoint row slices);
* StreamingGD weights, intercept and loss history are **bit-identical** at
  every worker count, one included (one block map over a fixed grid,
  partials reduced in block order — one worker is its plain loop);
* the factorized operators (lmm / transpose_lmm / crossprod / rmm) are
  **bit-identical** at every worker count, one included, with exactly
  equal FLOP counters (the grid is a function of shape and block settings);
* chunked CSV ingest produces byte-identical chunks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import parallel, telemetry
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_dataset,
    generate_scenario_streams,
)
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.streaming import ChunkedCsvReader, SpillStore, integrate_streams

# Small shapes: without the fixture no block would pay for its hand-off,
# and every worker count would walk the plain loop.
pytestmark = pytest.mark.usefixtures("fan_out_every_block")

CHUNK_SIZES = (1, 7, 10_000)
WORKER_COUNTS = (1, 2, 8)


def _storage_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise column equality, treating NaN == NaN (NULL float cells)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if np.issubdtype(a.dtype, np.floating):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _spec(scenario: ScenarioType, seed: int = 21) -> ScenarioSpec:
    return ScenarioSpec(
        scenario, base_rows=180, other_rows=140, base_features=5,
        other_features=6, overlap_rows=60, overlap_columns=2, seed=seed,
    )


def _build_and_train(scenario, chunk_rows, workers, store, spec=None):
    """Spilled stream build + streaming fit at a given worker count."""
    parallel.set_num_workers(workers)
    base, other, matches, row_matches, targets = generate_scenario_streams(
        spec or _spec(scenario), chunk_rows=chunk_rows
    )
    dataset = integrate_streams(
        base, other, matches, row_matches, targets, scenario,
        label_column="label", store=store, chunk_rows=chunk_rows,
    )
    factors = [np.array(factor.data) for factor in dataset.factors]
    model = StreamingGD(
        task="linear", block_rows=53, n_iterations=6,
        num_workers=workers, release_pages=store.release,
    )
    model.fit(AmalurMatrix(dataset))
    return factors, model.coef_.copy(), float(model.intercept_)


def _assert_same_bits(run, reference, note):
    factors, coef, intercept = run
    reference_factors, reference_coef, reference_intercept = reference
    for built, expected in zip(factors, reference_factors):
        assert np.array_equal(built, expected), f"factor differs {note}"
    assert np.array_equal(coef, reference_coef), f"weights differ {note}"
    assert intercept == reference_intercept, f"intercept differs {note}"


class TestBuildAndTrainParity:
    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_factors_bit_identical_and_weights_close(self, scenario, chunk_rows):
        results = {}
        for workers in WORKER_COUNTS:
            with SpillStore() as store:
                results[workers] = _build_and_train(scenario, chunk_rows, workers, store)
        for workers in WORKER_COUNTS[1:]:
            _assert_same_bits(
                results[workers], results[1], f"at {workers} workers, chunk {chunk_rows}"
            )

    @pytest.mark.parametrize("task, labelled, options", [
        ("linear", False, {"l2_penalty": 0.01}),
        ("linear", False, {"tolerance": 5e-3, "n_iterations": 200}),
        ("linear", True, {"fit_intercept": False}),
        ("logistic", True, {"l2_penalty": 0.01}),
        ("logistic", True, {"tolerance": 5e-3, "n_iterations": 200}),
    ], ids=["linear-l2", "linear-tolerance", "linear-labels-no-intercept",
            "logistic-l2", "logistic-tolerance"])
    def test_streaming_gd_same_bits_at_every_worker_count(self, task, labelled, options):
        matrix = AmalurMatrix(generate_scenario_dataset(_spec(ScenarioType.LEFT_JOIN)))
        labels = None
        if task == "logistic":
            labels = (matrix.labels() > np.median(matrix.labels())).astype(float)
        elif labelled:
            labels = np.random.default_rng(2).standard_normal(matrix.n_rows)
        options = {"n_iterations": 9, **options}
        fits = {}
        for workers in WORKER_COUNTS:
            model = StreamingGD(
                task=task, block_rows=23, num_workers=workers, **options
            ).fit(matrix, labels)
            fits[workers] = model
        assert len(matrix.blocked().row_blocks(23)) > 2  # a real multi-block grid
        for workers in WORKER_COUNTS[1:]:
            assert np.array_equal(fits[workers].coef_, fits[1].coef_)
            assert fits[workers].intercept_ == fits[1].intercept_
            assert fits[workers].loss_history_ == fits[1].loss_history_


class TestOperatorParity:
    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    def test_parallel_operators_match_serial(self, scenario):
        dataset = generate_scenario_dataset(_spec(scenario))
        parallel.set_min_parallel_rows(0)
        parallel.set_block_rows(29)

        outputs = {}
        for workers in WORKER_COUNTS:
            parallel.set_num_workers(workers)
            matrix = AmalurMatrix(dataset)
            x = np.random.default_rng(6).standard_normal((matrix.n_columns, 3))
            xt = np.random.default_rng(7).standard_normal((matrix.n_rows, 2))
            outputs[workers] = (
                matrix.lmm(x),
                matrix.transpose_lmm(xt),
                matrix.crossprod(),
                matrix.rmm(xt.T),
                matrix.counter.total,
            )
        for workers in WORKER_COUNTS[1:]:
            for result, reference in zip(outputs[workers][:4], outputs[1][:4]):
                assert np.array_equal(result, reference), f"at {workers} workers"
            assert outputs[workers][4] == outputs[1][4], "FLOPs depend on the grid only"

    def test_the_operators_reach_the_pool(self):
        """The parity above compares the pool with the plain loop, not
        the plain loop with itself."""
        parallel.set_min_parallel_rows(0)
        parallel.set_block_rows(29)
        parallel.set_num_workers(2)
        matrix = AmalurMatrix(generate_scenario_dataset(_spec(ScenarioType.LEFT_JOIN)))
        calls = {
            "lmm": lambda: matrix.lmm(np.ones((matrix.n_columns, 1))),
            "transpose_lmm": lambda: matrix.transpose_lmm(np.ones((matrix.n_rows, 1))),
            "crossprod": matrix.crossprod,  # a join: its cross term is in the pool too
        }
        for name, call in calls.items():
            with telemetry.collect(sample_memory=False) as session:
                call()
            assert session.metrics.counter_values().get("parallel.tasks", 0) > 0, name


class TestIngestParity:
    def test_csv_chunks_identical_across_worker_counts(self, tmp_path):
        path = tmp_path / "cells.csv"
        rows = ["id,a,b,s"]
        rows += [f"{i},{i * 0.25},{i % 3 == 0},v{i}" for i in range(83)]
        rows[10] = "9,,true,"  # NULL cells survive the parallel parse
        path.write_text("\n".join(rows) + "\n")

        per_workers = {}
        for workers in WORKER_COUNTS:
            parallel.set_num_workers(workers)
            reader = ChunkedCsvReader(path, chunk_rows=7)
            per_workers[workers] = (reader.schema, list(reader.chunks()))
        schema1, chunks1 = per_workers[1]
        for workers in WORKER_COUNTS[1:]:
            schema, chunks = per_workers[workers]
            assert schema.names == schema1.names
            assert [c.dtype for c in schema] == [c.dtype for c in schema1]
            assert len(chunks) == len(chunks1)
            for chunk, reference in zip(chunks, chunks1):
                assert chunk.offset == reference.offset
                for name in schema.names:
                    assert _storage_equal(
                        chunk.data[name], reference.data[name]
                    ), f"column {name} differs at {workers} workers"
                    assert np.array_equal(chunk.valid[name], reference.valid[name])


@st.composite
def scenario_specs(draw):
    scenario = draw(st.sampled_from(list(ScenarioType)))
    # An inner join's target has exactly overlap_rows rows, and a 0-row
    # matrix is rejected by the GD loop at any worker count.
    min_overlap = 1 if scenario is ScenarioType.INNER_JOIN else 0
    return ScenarioSpec(
        scenario=scenario,
        base_rows=draw(st.integers(min_value=5, max_value=60)),
        other_rows=draw(st.integers(min_value=5, max_value=40)),
        base_features=draw(st.integers(min_value=1, max_value=4)),
        other_features=draw(st.integers(min_value=1, max_value=4)),
        overlap_rows=draw(st.integers(min_value=min_overlap, max_value=5)),
        overlap_columns=draw(st.integers(min_value=0, max_value=1)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


class TestPropertyParity:
    @settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        spec=scenario_specs(),
        chunk_rows=st.sampled_from(CHUNK_SIZES),
        workers=st.sampled_from(WORKER_COUNTS[1:]),
    )
    def test_random_scenarios_match_serial(self, spec, chunk_rows, workers):
        with SpillStore() as store:
            serial = _build_and_train(spec.scenario, chunk_rows, 1, store, spec=spec)
        with SpillStore() as store:
            threaded = _build_and_train(spec.scenario, chunk_rows, workers, store, spec=spec)
        _assert_same_bits(threaded, serial, f"at {workers} workers, chunk {chunk_rows}")
