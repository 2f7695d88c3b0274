"""The block-parallel scheduler: pools, ordered maps, config."""

from __future__ import annotations

import threading
import time

import pytest

from repro import parallel
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

    def test_should_parallelize_respects_threshold_and_workers(self):
        parallel.set_min_parallel_rows(100)
        parallel.set_num_workers(4)
        assert parallel.should_parallelize(100)
        assert not parallel.should_parallelize(99)
        parallel.set_num_workers(1)
        assert not parallel.should_parallelize(10_000)


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
