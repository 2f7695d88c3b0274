"""Out-of-core streaming: chunked ingest, spillable build, bounded-memory training.

The subsystem moves the whole resolve → build → train pipeline to
bounded-memory chunked execution:

* :mod:`repro.streaming.chunks` — the :class:`TableChunk` /
  :class:`TableChunkStream` abstractions every downstream consumer is
  written against, with an in-memory adapter so the same code path serves
  resident tables.
* :mod:`repro.streaming.ingest` — :class:`ChunkedCsvReader`, a vectorized
  CSV reader that coerces row blocks straight into typed numpy columns +
  validity masks (``read_csv`` routes through its single-chunk fast path).
* :mod:`repro.streaming.spill` — :class:`SpillStore`, the memory-mapped
  factor store the builder spills completed ``D_k`` blocks to.
* :mod:`repro.streaming.builder` — the one factor-build loop and
  :func:`integrate_streams`, its two-source entry point
  (``matrices.builder.integrate_tables`` is the same call without a store).

Mini-batch training lives in :mod:`repro.learning.streaming_gd`, on top of
the row-block views of :mod:`repro.factorized.operator_plan`.
"""

from repro.streaming.builder import integrate_streams
from repro.streaming.chunks import (
    InMemoryTableStream,
    TableChunk,
    TableChunkStream,
    as_chunk_stream,
)
from repro.streaming.ingest import ChunkedCsvReader
from repro.streaming.spill import SpillStore

__all__ = [
    "ChunkedCsvReader",
    "InMemoryTableStream",
    "SpillStore",
    "TableChunk",
    "TableChunkStream",
    "as_chunk_stream",
    "integrate_streams",
]
