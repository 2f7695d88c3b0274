"""Table chunks and chunk streams — the unit of out-of-core execution.

A :class:`TableChunk` is a horizontal slice of a relational table in the
columnar storage layout of :class:`repro.relational.Table` (typed numpy
arrays + boolean validity masks). A :class:`TableChunkStream` produces a
table as an ordered sequence of such chunks; consumers (the spillable
builder, parity tests, materialization) are written against the stream
interface only, so an on-disk CSV, a resident table and a synthetic
generator all feed the same code paths. Every stream is randomly
accessible: :meth:`TableChunkStream.chunk_at` produces chunk ``i`` on its
own, and :func:`read_chunk` is that call behind the ``ingest.chunk`` fault
site.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import TableError
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.reliability import faults as _faults
from repro.reliability.retry import INGEST_RETRY

#: Default rows per chunk: small enough that a wide chunk stays a few tens
#: of MB, large enough that per-chunk numpy dispatch overhead is noise.
DEFAULT_CHUNK_ROWS = 65_536


class TableChunk:
    """A row block of a table: per-column typed storage + validity masks."""

    __slots__ = ("schema", "data", "valid", "n_rows", "offset")

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, np.ndarray],
        valid: Dict[str, np.ndarray],
        offset: int = 0,
    ):
        lengths = {len(values) for values in data.values()}
        if len(lengths) > 1:
            raise TableError(f"ragged chunk columns with lengths {sorted(lengths)}")
        self.schema = schema
        self.data = data
        self.valid = valid
        self.n_rows = lengths.pop() if lengths else 0
        #: Absolute row index of this chunk's first row within the table.
        self.offset = offset

    def column_values(self, name: str) -> np.ndarray:
        return self.data[name]

    def column_valid(self, name: str) -> np.ndarray:
        return self.valid[name]

    def to_matrix(
        self,
        columns: Sequence[str],
        null_value: float = 0.0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Dense float block of the named numeric columns (NULL → ``null_value``).

        ``out`` is an ``(n_rows, len(columns))`` float64 destination to write
        into (a row slice of a resident ``D_k``) instead of a new block.
        """
        if out is None:
            out = np.empty((self.n_rows, len(columns)), dtype=np.float64)
        for j, name in enumerate(columns):
            values = self.data[name]
            valid = self.valid[name]
            if bool(valid.all()):
                out[:, j] = values
            else:
                out[:, j] = np.where(valid, values, null_value)
        return out

    def to_table(self, name: str) -> Table:
        return Table._from_storage(name, self.schema, dict(self.data), dict(self.valid))


class TableChunkStream:
    """An ordered sequence of :class:`TableChunk` making up one table.

    Subclasses provide ``name``, ``schema``, ``n_rows``, ``chunk_rows`` and
    :meth:`chunk_at`. ``n_rows`` is known up front for every built-in
    source (resident tables, the CSV reader after its one parse, synthetic
    generators), which is what lets the builder pre-size its on-disk factor
    stores, and every non-final chunk holds exactly ``chunk_rows`` rows, so
    ``chunk_count`` is ``ceil(n_rows / chunk_rows)``. The builder reads
    streams through :meth:`chunk_at` only: a stream without it fails there
    with this class's ``NotImplementedError``.
    """

    name: str

    #: Every stream is randomly accessible — its chunks can be produced
    #: independently and in any order, so the parallel builder assembles
    #: ``D_k`` with a worker per chunk. Kept as a readable attribute for
    #: wrappers that forward it.
    supports_random_access: bool = True

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    @property
    def n_rows(self) -> int:
        raise NotImplementedError

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk; only the last chunk may hold fewer."""
        raise NotImplementedError

    @property
    def chunk_count(self) -> int:
        """Number of chunks :meth:`chunk_at` accepts."""
        return -(-self.n_rows // self.chunk_rows) if self.n_rows else 0

    def chunk_at(self, index: int) -> TableChunk:
        """Chunk ``index`` (0-based), identical to the ``index``-th item of
        :meth:`chunks`."""
        raise NotImplementedError(f"{type(self).__name__} is not randomly accessible")

    def chunks(self) -> Iterator[TableChunk]:
        for index in range(self.chunk_count):
            yield self.chunk_at(index)

    def read_table(self) -> Table:
        """Materialize the whole stream into a resident :class:`Table`."""
        schema = self.schema
        blocks: List[TableChunk] = list(self.chunks())
        data: Dict[str, np.ndarray] = {}
        valid: Dict[str, np.ndarray] = {}
        for column in schema:
            if blocks:
                data[column.name] = np.concatenate(
                    [chunk.data[column.name] for chunk in blocks]
                )
                valid[column.name] = np.concatenate(
                    [chunk.valid[column.name] for chunk in blocks]
                )
            else:
                from repro.relational.types import _STORAGE_DTYPE

                data[column.name] = np.empty(0, dtype=_STORAGE_DTYPE[column.dtype])
                valid[column.name] = np.empty(0, dtype=bool)
        return Table._from_storage(self.name, schema, data, valid)


class InMemoryTableStream(TableChunkStream):
    """A resident :class:`Table` exposed as a chunk stream (zero-copy views)."""

    def __init__(self, table: Table, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        if chunk_rows <= 0:
            raise TableError(f"chunk_rows must be positive, got {chunk_rows}")
        self._table = table
        self._chunk_rows = int(chunk_rows)
        self.name = table.name

    @property
    def schema(self) -> Schema:
        return self._table.schema

    @property
    def n_rows(self) -> int:
        return self._table.n_rows

    @property
    def chunk_rows(self) -> int:
        return self._chunk_rows

    def chunk_at(self, index: int) -> TableChunk:
        table = self._table
        start = index * self._chunk_rows
        if index < 0 or start >= max(table.n_rows, 1):
            raise IndexError(f"chunk index {index} out of range for {self.chunk_count} chunks")
        stop = min(start + self._chunk_rows, table.n_rows)
        names = table.schema.names
        data = {name: table.column_values(name)[start:stop] for name in names}
        valid = {name: table.column_valid(name)[start:stop] for name in names}
        return TableChunk(table.schema, data, valid, offset=start)

    def read_table(self) -> Table:
        return self._table


def _faulted_chunk_at(stream: TableChunkStream, index: int) -> TableChunk:
    _faults.fault_point("ingest.chunk", source=stream.name, chunk=index)
    return stream.chunk_at(index)


def read_chunk(stream: TableChunkStream, index: int) -> TableChunk:
    """``stream.chunk_at(index)`` behind the ``ingest.chunk`` fault site.

    A chunk is a pure function of its index, so a transient fault is
    retried under ``INGEST_RETRY`` and the retried chunk is the same bits.
    """
    if _faults.ACTIVE:
        return INGEST_RETRY.call(_faulted_chunk_at, stream, index, site="ingest.chunk")
    return stream.chunk_at(index)


def as_chunk_stream(
    source, chunk_rows: Optional[int] = None
) -> TableChunkStream:
    """Coerce a :class:`Table` or stream into a :class:`TableChunkStream`."""
    if isinstance(source, TableChunkStream):
        return source
    if isinstance(source, Table):
        return InMemoryTableStream(source, chunk_rows or DEFAULT_CHUNK_ROWS)
    raise TableError(
        f"cannot stream chunks from object of type {type(source).__name__}"
    )
