"""Parallelism knobs for the block-parallel execution engine.

Three environment variables configure the engine at import time; each has
a runtime setter so tests and benchmarks can reconfigure without touching
the environment:

``REPRO_NUM_THREADS``
    Worker count for every block-parallel map. Defaults to the number of
    cores the process is allowed to run on. ``1`` never touches a pool:
    every map is a plain loop of the same tasks on the calling thread.

``REPRO_PARALLEL_MIN_ROWS``
    Row-count threshold below which the factorized operators cut their
    rows as one block. It sets the grid, and a Gram below it stays on the
    calling thread; whether any other grid's blocks fan out is
    :func:`repro.parallel.should_parallelize`'s call, from the priced
    work of a block.

``REPRO_PARALLEL_BLOCK_ROWS``
    Row-block size used when an operator partitions work itself (the
    streaming paths reuse their own chunk/block sizes). The partition is
    a pure function of this value and the matrix shape — never of the
    worker count — so results depend on the block grid only: any worker
    count, one included, gives the same bits.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

DEFAULT_MIN_PARALLEL_ROWS = 65_536
DEFAULT_BLOCK_ROWS = 65_536


def available_cores() -> int:
    """Number of cores this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(minimum, value)


_lock = threading.Lock()
_num_workers = _env_int("REPRO_NUM_THREADS", available_cores())
_min_parallel_rows = _env_int("REPRO_PARALLEL_MIN_ROWS", DEFAULT_MIN_PARALLEL_ROWS, minimum=0)
_block_rows = _env_int("REPRO_PARALLEL_BLOCK_ROWS", DEFAULT_BLOCK_ROWS)


def get_num_workers() -> int:
    return _num_workers


def set_num_workers(workers: Optional[int]) -> int:
    """Set the global worker count; ``None`` restores the core-count default."""
    global _num_workers
    with _lock:
        _num_workers = available_cores() if workers is None else max(1, int(workers))
        return _num_workers


def get_min_parallel_rows() -> int:
    return _min_parallel_rows


def set_min_parallel_rows(rows: int) -> None:
    global _min_parallel_rows
    with _lock:
        _min_parallel_rows = max(0, int(rows))


def get_block_rows() -> int:
    return _block_rows


def set_block_rows(rows: int) -> None:
    global _block_rows
    with _lock:
        _block_rows = max(1, int(rows))


@contextmanager
def num_threads(workers: Optional[int]) -> Iterator[int]:
    """Temporarily override the worker count (tests, benchmarks)."""
    previous = get_num_workers()
    applied = set_num_workers(workers)
    try:
        yield applied
    finally:
        set_num_workers(previous)
