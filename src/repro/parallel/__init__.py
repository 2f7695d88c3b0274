"""Block-parallel execution engine.

A single scheduler shared by every layer that walks row blocks: the
factorized operators (LMM / transpose-LMM / Gram partial sums),
spillable ``D_k`` assembly, and the streaming GD loop. (Parsing a CSV
holds the GIL cell by cell and stays on the caller's thread; typing its
parsed chunks is part of ``D_k`` assembly.)

Determinism contract:

* Results depend on the **block grid** only — a pure function of the
  matrix shape and the two grid settings (block rows, row threshold),
  never of the worker count — and every reduction happens on the calling
  thread in block order. Any worker count, one included, gives the same
  bits.
* ``REPRO_NUM_THREADS=1`` (or :func:`set_num_workers(1) <set_num_workers>`)
  never touches a pool: every map is a plain loop on the calling thread —
  the same map, not a twin — over the grid it walks at any other count.
* Factor assembly is pure data movement into disjoint row slices: the
  built factors are bit-identical whatever the chunking. Floating-point
  reductions (Gram, GD gradients) reassociate across blocks, so results
  over *different* grids agree to <= 1e-8.

Fan-out rule: a block map goes to the pool only when
:func:`should_parallelize` says a block pays for its hand-off — more than
one worker, and priced multiply-adds per block (its share of the charges
of :mod:`repro.factorized.ops_counter`) that clear the pool round trip,
measured once per process. The Gram adds one condition of its own: a
target below the row threshold keeps its terms on the calling thread.
The rule picks the schedule, never the grid.

Work bound of the blocked operators (``repro.factorized``): a block
multiplies its distinct source rows of ``D_k`` — at most
``min(block rows, r_Sk)`` — and contiguous ranges of them are views of
the factor's storage, never copies; a resident many-to-one factor
multiplies once per call, in the source dimension. Fanning out therefore
divides the work of the one-block path, it never multiplies it.
"""

from repro.parallel.config import (
    DEFAULT_BLOCK_ROWS,
    DEFAULT_MIN_PARALLEL_ROWS,
    available_cores,
    get_block_rows,
    get_min_parallel_rows,
    get_num_workers,
    num_threads,
    set_block_rows,
    set_min_parallel_rows,
    set_num_workers,
)
from repro.parallel.pool import imap_ordered, parallel_map, should_parallelize, shutdown

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "DEFAULT_MIN_PARALLEL_ROWS",
    "available_cores",
    "get_block_rows",
    "get_min_parallel_rows",
    "get_num_workers",
    "imap_ordered",
    "num_threads",
    "parallel_map",
    "set_block_rows",
    "set_min_parallel_rows",
    "set_num_workers",
    "shutdown",
    "should_parallelize",
]
