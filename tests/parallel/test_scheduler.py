"""The block-parallel scheduler: pools, ordered maps, config."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import parallel, telemetry
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.datagen.synthetic import (
    OneHotSpec,
    SyntheticSiloSpec,
    generate_integrated_pair,
    generate_one_hot_pair,
)
from repro.factorized import AmalurMatrix
from repro.factorized.ops_counter import charges
from repro.learning import StreamingGD
from repro.metadata.mappings import ScenarioType
from repro.parallel import pool as pool_module


class TestConfig:
    def test_set_num_workers_clamps_and_restores_default(self):
        assert parallel.set_num_workers(0) == 1
        assert parallel.set_num_workers(6) == 6
        assert parallel.set_num_workers(None) == parallel.available_cores()

    def test_num_threads_context_manager_restores(self):
        before = parallel.get_num_workers()
        with parallel.num_threads(3) as applied:
            assert applied == 3
            assert parallel.get_num_workers() == 3
        assert parallel.get_num_workers() == before


class TestFanOutRule:
    """``should_parallelize``: more than one worker, outside a pool task,
    and per-block priced work above the measured break-even."""

    def test_one_worker_never_fans_out(self):
        assert not parallel.should_parallelize(1e12, workers=1)
        parallel.set_num_workers(1)
        assert not parallel.should_parallelize(1e12)

    def test_small_work_declines_and_large_work_fans_out(self):
        parallel.set_num_workers(2)
        assert not parallel.should_parallelize(1e3)
        assert parallel.should_parallelize(1e9)

    def test_the_break_even_is_measured_once(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_break_even", None)
        parallel.should_parallelize(1e6, workers=2)
        measured = pool_module._break_even
        assert measured is not None and 1e3 < measured < 1e9
        monkeypatch.setattr(pool_module, "_measure_break_even", None)  # never called again
        parallel.should_parallelize(1e6, workers=2)
        assert pool_module._break_even == measured

    def test_a_pool_task_never_fans_out(self):
        parallel.set_num_workers(2)
        assert parallel.parallel_map(
            lambda _: parallel.should_parallelize(1e12), range(2)
        ) == [False, False]

    def test_explicit_streaming_workers_are_honoured(self):
        dataset = generate_scenario_dataset(ScenarioSpec(
            ScenarioType.LEFT_JOIN, base_rows=120, other_rows=90, base_features=3,
            other_features=3, overlap_rows=40, overlap_columns=1, seed=4,
        ))
        parallel.set_num_workers(2)
        tasks = {}
        for num_workers in (None, 2):
            with telemetry.collect(sample_memory=False) as session:
                StreamingGD(
                    "linear", block_rows=16, n_iterations=2, num_workers=num_workers
                ).fit(AmalurMatrix(dataset))
            tasks[num_workers] = session.metrics.counter_values().get("parallel.tasks", 0)
        assert tasks[None] == 0  # a 16-row block does not pay for the hand-off
        assert tasks[2] > 0


class TestOperatorFanOut:
    """The factorized operators price each call and fan a block map out
    only when a block's share pays for the hand-off."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # A break-even in the range measured on a 2-core box (2^18 to 2^19
        # multiply-adds), fixed so the outcome does not follow the host.
        monkeypatch.setattr(pool_module, "_break_even", float(1 << 19))
        parallel.set_num_workers(2)

    @staticmethod
    def _maps(matrix, m: int = 1) -> float:
        with telemetry.collect(sample_memory=False) as session:
            matrix.lmm(np.ones((matrix.n_columns, m)))
            matrix.transpose_lmm(np.ones((matrix.n_rows, m)))
        return session.metrics.counter_values().get("parallel.maps", 0)

    def test_the_resident_one_hot_stays_on_the_calling_thread(self):
        dataset = generate_one_hot_pair(
            OneHotSpec(n_rows=70_000, n_categories=100, base_columns=5, seed=0)
        )
        dataset.label_column = "x0"
        matrix = AmalurMatrix(dataset, backend="auto").feature_matrix_view()
        assert "csr" in matrix.storage_formats()
        assert len(matrix._target_blocks()[1]) > 1  # a grid that could fan out
        assert self._maps(matrix) == 0

    def test_a_dense_injective_matrix_with_heavy_blocks_fans_out(self):
        dataset = generate_integrated_pair(SyntheticSiloSpec(
            base_rows=4_096, base_columns=8, other_rows=4_096, other_columns=8,
            redundancy_in_target=False, seed=1,
        ))
        parallel.set_min_parallel_rows(0)
        parallel.set_block_rows(2_048)
        matrix = AmalurMatrix(dataset)
        assert all(plan.rows_injective for plan in matrix._plans)
        m = 256  # 2 048 rows x ~16 columns x 256 operand columns: >= 4 M a block
        per_block = sum(
            sum(charges("lmm", plan.stats(), m).values()) for plan in matrix._plans
        ) / 2
        assert per_block >= 4e6
        assert self._maps(matrix, m) > 0

    @staticmethod
    def _gram_tasks(matrix) -> float:
        with telemetry.collect(sample_memory=False) as session:
            matrix.crossprod()
        return session.metrics.counter_values().get("parallel.tasks", 0)

    def test_a_gram_below_the_row_threshold_stays_on_the_calling_thread(self, monkeypatch):
        dataset = generate_integrated_pair(SyntheticSiloSpec(
            base_rows=4_096, base_columns=8, other_rows=512, other_columns=8,
            redundancy_in_target=True, seed=2,
        ))
        monkeypatch.setattr(pool_module, "_break_even", 0.0)  # any price pays
        parallel.set_min_parallel_rows(4_097)
        assert self._gram_tasks(AmalurMatrix(dataset)) == 0
        parallel.set_min_parallel_rows(4_096)
        parallel.set_block_rows(2_048)
        assert self._gram_tasks(AmalurMatrix(dataset)) > 0

    def test_a_gram_above_the_row_threshold_fans_out_on_its_price(self):
        dataset = generate_integrated_pair(SyntheticSiloSpec(
            base_rows=4_096, base_columns=4, other_rows=512, other_columns=120,
            redundancy_in_target=True, seed=2,
        ))
        parallel.set_min_parallel_rows(0)
        parallel.set_block_rows(2_048)
        assert self._gram_tasks(AmalurMatrix(dataset)) > 0  # a cross term among them
        parallel.set_block_rows(64)  # 64-row blocks book too little to pay
        assert self._gram_tasks(AmalurMatrix(dataset)) == 0


class TestParallelMap:
    def test_matches_serial_map_and_preserves_order(self):
        items = list(range(50))
        parallel.set_num_workers(4)
        assert parallel.parallel_map(lambda i: i * i, items) == [i * i for i in items]

    def test_one_worker_runs_inline(self):
        parallel.set_num_workers(1)
        main = threading.get_ident()
        threads = parallel.parallel_map(lambda _: threading.get_ident(), range(5))
        assert set(threads) == {main}

    def test_uses_pool_threads_when_parallel(self):
        parallel.set_num_workers(4)
        main = threading.get_ident()
        threads = set(parallel.parallel_map(lambda _: threading.get_ident(), range(32)))
        assert main not in threads

    def test_nested_map_runs_inline_without_deadlock(self):
        parallel.set_num_workers(2)

        def outer(i):
            inner = parallel.parallel_map(lambda j: (i, j, threading.get_ident()), range(3))
            worker = threading.get_ident()
            assert all(t == worker for _, _, t in inner)
            return [(a, b) for a, b, _ in inner]

        result = parallel.parallel_map(outer, range(4))
        assert result == [[(i, j) for j in range(3)] for i in range(4)]

    def test_exceptions_propagate(self):
        parallel.set_num_workers(4)

        def boom(i):
            if i == 7:
                raise ValueError("task 7")
            return i

        with pytest.raises(ValueError, match="task 7"):
            parallel.parallel_map(boom, range(16))


class TestImapOrdered:
    def test_order_matches_input(self):
        parallel.set_num_workers(4)
        out = list(parallel.imap_ordered(lambda i: i * 3, range(40)))
        assert out == [i * 3 for i in range(40)]

    def test_window_bounds_in_flight_tasks(self):
        parallel.set_num_workers(2)
        pulled = []

        def source():
            for i in range(100):
                pulled.append(i)
                yield i

        iterator = parallel.imap_ordered(lambda i: i, source(), window=3)
        assert next(iterator) == 0
        # One yielded + at most the window in flight; the source must not
        # have been drained eagerly.
        assert len(pulled) <= 5
        assert list(iterator) == list(range(1, 100))

    def test_serial_fallback_is_lazy(self):
        parallel.set_num_workers(1)
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield i

        iterator = parallel.imap_ordered(lambda i: i + 1, source())
        assert next(iterator) == 1
        assert pulled == [0]

    def test_exceptions_propagate(self):
        parallel.set_num_workers(4)

        def boom(i):
            if i == 5:
                raise RuntimeError("chunk 5")
            return i

        with pytest.raises(RuntimeError, match="chunk 5"):
            list(parallel.imap_ordered(boom, range(12)))


class TestPoolReuse:
    def test_executor_cached_per_size(self):
        parallel.set_num_workers(3)
        parallel.parallel_map(lambda i: i, range(6))
        first = pool_module._executors.get(3)
        parallel.parallel_map(lambda i: i, range(6))
        assert pool_module._executors.get(3) is first

    def test_workers_overlap_in_time(self):
        """Two sleeping tasks on two workers finish in ~one sleep, not two."""
        parallel.set_num_workers(2)
        started = time.perf_counter()
        parallel.parallel_map(lambda _: time.sleep(0.2), range(2))
        assert time.perf_counter() - started < 0.35
