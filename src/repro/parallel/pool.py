"""Shared worker pools and ordered block-parallel maps.

Two primitives cover every parallel call site in the engine:

``imap_ordered(fn, iterable)``
    Lazy ordered map with a bounded in-flight window — the one map under
    every row-block operator (LMM / transpose-LMM / Gram partial sums),
    the spillable ``D_k`` assembly and the block passes of the GD loop in
    ``repro.learning.gd``. Results come back in submission order, so
    reductions on the caller's thread reassociate identically regardless
    of which worker finished first. At most ``window`` results are
    buffered, so peak memory stays at ``window x chunk`` instead of the
    whole stream. At one worker it *is* ``map(fn, iterable)`` on the
    calling thread.

``parallel_map(fn, items)``
    The eager form of ``imap_ordered`` over a finite task list: the
    window is the whole list and the results come back as a list.

Whether a block map fans out at all is :func:`should_parallelize`'s
call: a block must carry enough priced multiply-adds to pay for the
hand-off to a worker.

Pools are plain ``ThreadPoolExecutor``s, cached per size. Threads are the
right vehicle here: the hot kernels are BLAS matmuls and numpy slice
copies, all of which release the GIL. Tasks submitted from *inside* a
worker run inline on that worker (no nested fan-out), which makes
composition — a blocked operator inside a parallel ``StreamingGD`` pass —
safe by construction instead of deadlock-prone.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, TypeVar

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import PoisonTaskError, TransientError
from repro.parallel import config
from repro.reliability import faults as _faults
from repro.reliability.retry import TASK_RETRY

T = TypeVar("T")
R = TypeVar("R")

_pool_lock = threading.Lock()
_executors: Dict[int, ThreadPoolExecutor] = {}
_task_local = threading.local()
_probe_lock = threading.Lock()
#: Priced multiply-adds a block must carry for fanning out to pay:
#: measured on first use (see :func:`_measure_break_even`), then cached
#: for the life of the process.
_break_even: Optional[float] = None
_PROBE_SAMPLES = 15


def _get_executor(workers: int) -> ThreadPoolExecutor:
    executor = _executors.get(workers)
    if executor is None:
        with _pool_lock:
            executor = _executors.get(workers)
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix=f"repro-par-{workers}"
                )
                _executors[workers] = executor
    return executor


def _in_worker() -> bool:
    return getattr(_task_local, "in_worker", False)


def _annotate(exc: BaseException, label: str, index: int) -> None:
    """Stamp a worker exception with its originating site and block index.

    Mutating ``args`` (rather than wrapping) keeps the exception type and
    ``except`` clauses intact while making ``str(exc)`` — and therefore
    any logged traceback — say which unit of work failed.
    """
    note = f"[parallel site={label or 'parallel.task'}, block={index}]"
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} {note}",) + exc.args[1:]
    else:
        exc.args = exc.args + (note,)


def _run_task(fn: Callable[[T], R], item: T, label: str = "", index: int = -1) -> R:
    previous = getattr(_task_local, "in_worker", False)
    _task_local.in_worker = True
    try:
        if not _faults.ACTIVE:
            try:
                return fn(item)
            except Exception as exc:
                _annotate(exc, label, index)
                raise
        # Chaos path: the fault site fires before the task body, and
        # transient faults are retried. Tasks are idempotent (each writes
        # a disjoint slice or returns a pure value), so a retried task
        # redoes identical work and block-parity is preserved.

        def _attempt() -> R:
            _faults.fault_point("parallel.task", label=label, index=index)
            return fn(item)

        try:
            return TASK_RETRY.call(_attempt, site="parallel.task")
        except TransientError as exc:
            raise PoisonTaskError(
                f"parallel task kept failing after {TASK_RETRY.max_attempts} "
                f"attempts [parallel site={label or 'parallel.task'}, "
                f"block={index}]",
                site=label or "parallel.task",
                index=index,
            ) from exc
        except Exception as exc:
            _annotate(exc, label, index)
            raise
    finally:
        _task_local.in_worker = previous


def _median_seconds(call: Callable[[], object]) -> float:
    samples = []
    for _ in range(_PROBE_SAMPLES):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _measure_break_even(workers: int) -> float:
    """The pool round trip, in the multiply-adds one thread does meanwhile,
    times two: splitting a block map saves at most half of each block's
    serial time, so a block pays for its hand-off only when half its
    work outlasts one round trip. Both are medians timed here — an empty
    task through the pool and a dense matrix-vector product of 2^16 cells
    (512 KB) on the calling thread — so the break-even follows the
    machine."""
    executor = _get_executor(workers)
    executor.submit(int).result()  # the pool's threads exist before timing
    round_trip = _median_seconds(lambda: executor.submit(int).result())
    cells, operand = np.ones((1024, 64)), np.ones((64, 1))
    matvec = _median_seconds(lambda: cells @ operand)
    return 2.0 * round_trip * cells.size / matvec


def _get_break_even(workers: int) -> float:
    global _break_even
    if _break_even is None:
        with _probe_lock:
            if _break_even is None:
                _break_even = _measure_break_even(workers)
    return _break_even


def should_parallelize(work: float, *, workers: Optional[int] = None) -> bool:
    """True when a block map whose blocks each carry ``work`` priced
    multiply-adds should fan out over the pool. Both must hold:

    * more than one worker (``workers``, default the configured count)
      and a caller that is not itself a pool task (nested maps run
      inline);
    * ``work`` clears the break-even, the pool round trip priced in
      multiply-adds (:func:`_measure_break_even`, once per process).

    A CSR factor is priced by its stored cells, so its blocks weigh what
    its kernel does. Declining changes only the schedule, never the block
    grid, so the bits are the same either way.
    """
    effective = config.get_num_workers() if workers is None else workers
    if effective <= 1 or _in_worker():
        return False
    return work >= _get_break_even(effective)


def shutdown() -> None:
    """Tear down every cached pool (tests; atexit not required)."""
    with _pool_lock:
        executors = list(_executors.values())
        _executors.clear()
    for executor in executors:
        executor.shutdown(wait=True)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    label: Optional[str] = None,
) -> List[R]:
    """Apply ``fn`` to every item, returning results in item order: the
    eager form of :func:`imap_ordered`, every task in flight at once."""
    items = list(items)
    return list(
        imap_ordered(fn, items, workers=workers, window=len(items) or 1, label=label or "")
    )


def imap_ordered(
    fn: Callable[[T], R],
    iterable: Iterable[T],
    workers: Optional[int] = None,
    window: Optional[int] = None,
    label: str = "",
) -> Iterator[R]:
    """Lazily map ``fn`` over ``iterable``, yielding results in input order.

    At most ``window`` tasks (default ``2 x workers``) are in flight or
    buffered at once, which bounds memory for chunk pipelines. Serial
    fallback mirrors ``map(fn, iterable)`` exactly. A task that raises
    surfaces its exception annotated with ``label`` and the task's input
    index, so a failing chunk is identifiable from the message alone.
    """
    effective = config.get_num_workers() if workers is None else max(1, int(workers))
    if hasattr(iterable, "__len__"):  # one task never pays a pool round trip
        effective = min(effective, len(iterable))
    if effective <= 1 or _in_worker():
        if _faults.ACTIVE:
            for index, item in enumerate(iterable):
                yield _run_task(fn, item, label, index)
            return
        for item in iterable:
            yield fn(item)
        return
    executor = _get_executor(effective)
    depth = max(2, 2 * effective) if window is None else max(1, int(window))
    pending: Deque = deque()
    iterator = iter(iterable)
    submitted = 0
    if _telemetry.ENABLED:
        _telemetry.counter_add("parallel.maps")
    try:
        while True:
            while len(pending) < depth:
                try:
                    item = next(iterator)
                except StopIteration:
                    break
                pending.append(executor.submit(_run_task, fn, item, label, submitted))
                submitted += 1
                if _telemetry.ENABLED:
                    _telemetry.counter_add("parallel.tasks")
            if not pending:
                return
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
