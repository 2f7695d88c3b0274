"""CSV import/export for the relational substrate.

``read_csv`` routes through the chunked columnar reader
(:class:`repro.streaming.ingest.ChunkedCsvReader`): the file is parsed
block-at-a-time straight into typed numpy columns + validity masks, so
in-memory ingest no longer builds per-cell Python lists. The empty-file and
row-width :class:`TableError` behavior of the seed reader is preserved
bit-for-bit.

``write_csv`` protects STRING values that would otherwise re-parse as a
different type — NULL literals (``"null"``, ``"na"``, the empty string,
...), numeric-looking strings (``"5"``, ``"1e3"``) and bool literals
(``"true"``) — with a one-backslash escape that ``parse_cell`` undoes, so
write → read round-trips keep them as strings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.relational.table import Table
from repro.relational.types import NULL_LITERALS, DataType, _parse_string

PathLike = Union[str, Path]


def read_csv(
    path: PathLike,
    name: Optional[str] = None,
    key_columns: Sequence[str] = (),
    label_column: Optional[str] = None,
    delimiter: str = ",",
) -> Table:
    """Read a CSV file into a :class:`Table`, inferring column types.

    Empty cells and the literals ``null``/``none``/``na``/``nan`` become
    NULL. The file is UTF-8; a leading byte-order mark is not part of the
    first column's name. A key or label column the header lacks raises
    :class:`repro.exceptions.SchemaError`.
    This is the single-pass fast path of the chunked reader; use
    :class:`repro.streaming.ingest.ChunkedCsvReader` directly for
    bounded-memory streaming over files larger than RAM.
    """
    from repro.streaming.ingest import ChunkedCsvReader

    return ChunkedCsvReader(
        path,
        name=name,
        key_columns=key_columns,
        label_column=label_column,
        delimiter=delimiter,
    ).read()


def _protect_string(value: str) -> str:
    """Backslash-escape strings ``parse_cell`` would misread as another type.

    Covers NULL literals, values that already start with a backslash, and
    strings shaped like numbers or bools (``"5"``, ``"-1e3"``, ``"true"``)
    that the reader would otherwise re-type.
    """
    if value.startswith("\\") or value.strip().lower() in NULL_LITERALS:
        return "\\" + value
    if not isinstance(_parse_string(value), str):
        return "\\" + value
    return value


def _csv_rows(block):
    """Rows of CSV cells for a :class:`Table` or one chunk, built column-at-a-time.

    Each column becomes one ``tolist()`` with ``""`` at its NULL positions
    (an invalid cell, or a NaN); only STRING columns pay the per-cell
    escape protection.
    """
    columns = []
    for column in block.schema:
        storage, valid = block.column_values(column.name), block.column_valid(column.name)
        cells = storage.tolist()
        if column.dtype is DataType.STRING:
            cells = [_protect_string(cell) if isinstance(cell, str) else cell for cell in cells]
        elif column.dtype is DataType.FLOAT:
            valid = valid & ~np.isnan(storage)
        for pos in np.nonzero(~valid)[0].tolist():
            cells[pos] = ""
        columns.append(cells)
    return zip(*columns)


def write_csv(table, path: PathLike, delimiter: str = ",") -> None:
    """Write a :class:`Table` or chunk stream to UTF-8 CSV; NULLs become empty cells.

    STRING values spelled like a NULL literal (``"null"``, ``"na"``, the
    empty string, whitespace), like a number or bool (``"5"``, ``"true"``),
    or already starting with a backslash are written with a
    single-backslash escape so a subsequent ``read_csv`` returns them as
    strings with their spelling intact.

    ``table`` may also be a :class:`repro.streaming.chunks.TableChunkStream`
    — the output is then produced one chunk at a time, so a stream larger
    than RAM round-trips through CSV in bounded memory.
    """
    import csv

    from repro.streaming.chunks import TableChunkStream

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = table.schema.names
    blocks = table.chunks() if isinstance(table, TableChunkStream) else (table,)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(names)
        for block in blocks:
            writer.writerows(_csv_rows(block))
