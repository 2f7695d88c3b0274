"""Chunked columnar CSV ingest.

:class:`ChunkedCsvReader` reads row blocks and coerces them straight into
typed numpy columns + validity masks — the storage layout of
:class:`repro.relational.Table` — without the per-cell ``parse_cell`` loop
of the seed reader. A block is parsed by one of two tiers, chosen by its
own content; both give every cell the reference value.

**The C tier** takes a block of ``chunk_rows`` physical lines when it is
plain (:func:`_is_plain`): no line holds the quote character or is
blank, every line ends in ``\n`` or ``\r\n``, the text is ASCII without
the information separators ``\x1c``–``\x1f`` (which numpy's converters
strip as whitespace and ``float()`` rejects), no line is longer than
``csv.field_size_limit()``, and the delimiter is not whitespace. Then each
line is one record, and :func:`_parse_plain` reads the block with **one**
``np.loadtxt(lines, dtype=<record>, comments=None, quotechar=None)``. The
record dtype has int64 fields for the columns expected to be integral —
those the previous block held as int64 in every row, or, in a file's
first block, those whose first-line cell is an integer literal — and
float64 fields elsewhere. The float64 converter calls
``PyOS_string_to_double`` — the function ``float()`` calls — after
stripping whitespace, and rejects underscores, non-ASCII digits and empty
cells, so a cell it accepts has the reference float. The int64 fields are
used only where numpy's int64 parse is strict (it rejects ``"3.0"``,
``"1e3"`` and ``"9223372036854775808"``, as ``int()`` does;
:data:`_STRICT_INT64` probes this at import, because from numpy 1.23
until that deprecation expired it read such a cell as a float and cast
it). When the typed pass raises, one float64 pass reads the block, and a
guessed column that did not hold is not guessed again in that file
(:class:`_IntColumns`), so a column whose type flips costs one rejected
pass per file, not one per block.

One pass over the block matrix then classifies it: a column with no
integral and no NaN cell, like an int64 column, becomes a block whose one
bucket holds every row (:meth:`ParsedColumnBlock.one_bucket`), which then
costs O(1) numpy calls into the replay record and out of it into a typed
chunk. Only a column with an integral or NaN cell takes the per-column
path: if every value is integral it gets one int64 ``loadtxt`` over
``usecols``, and otherwise only its integral-valued cells fetch their
text, from a lazy split of just their lines, and take the int sweep
below. Any other block takes the ``csv.reader`` tier. So does the rest of
the file after a quote character, since a quoted field may span lines,
and after a block numpy rejects anywhere or whose shape is not
``(lines, header width)``: numpy may have read most of that block before
it stopped, and a file with one NULL or text cell per block would pay
that on every block.

The file's leading plain blocks are read as ASCII bytes
(:meth:`ChunkedCsvReader._ascii_blocks`), which skips the text reader's
per-line work; the text reader (UTF-8, a leading byte-order mark
dropped) takes over at the first block that is not plain ASCII, or whose
bytes up to where the text reader would have decoded are not, so every
decode error keeps the row and message a text read of the whole file
gives.

**The ``csv.reader`` tier** parses *column-at-a-time, sweep then
classify* (:func:`parse_cell_block`):

1. **Float sweep.** The column's cells — the very ``str`` objects
   ``csv.reader`` produced — go through one
   ``np.array(cells, dtype=np.float64)``. numpy converts a ``str`` by
   calling Python's ``float()``, the function the reference parser
   (``parse_cell`` → ``_parse_string``) calls, so a value it returns is
   the reference value: NaN is NULL, a non-integral value is a FLOAT, and
   no string kernel runs at all.
2. **Int sweep.** Integral-valued cells (``"3"``, but also ``"3.0"``,
   ``"1e3"`` and anything that overflowed to ``inf``) might be INTs; only
   Python's ``int()`` can tell, so that subset gets one
   ``np.array(..., dtype=np.int64)`` — again the reference's own function.
3. **Peel, then sweep again.** When the float sweep raises, NULL and bool
   literals are peeled off first — only cells of at most five characters
   after ``strip`` (the longest literal is ``"false"``) are lower-cased —
   and the remaining cells are swept as in 1–2, so an empty cell does not
   cost a numeric column its fast path.
4. **Classify.** Only cells a sweep *rejected* — the peeled column when
   its float sweep raises, the integral subset when the int sweep raises
   on ``"12.0"`` or ``"9223372036854775808"`` — reach the ``np.char``
   classifier, which finds escaped cells, integer candidates and float
   candidates with string kernels and hands whatever its casts reject to
   the scalar ``parse_cell``.

Both tiers end in ``ParsedColumnBlock._bucket`` (the NaN / fractional
split of step 1, then step 2), so the bucket rules live in one place.
Every step either returns what ``float()``/``int()`` returned or defers,
so the semantics are exactly those of ``[parse_cell(c) for c in cells]`` followed by
:func:`repro.relational.types.coerce_column` — the parity and property
suites assert this cell-for-cell, and that a replay record is the same
bytes with the C tier on and off.

One parse loop (raw chunk -> parsed blocks -> merged type flags) serves
both consumption modes:

* ``read()`` keeps the parsed blocks in memory and assembles a resident
  :class:`Table`; this is what ``repro.relational.io.read_csv`` routes
  through. It writes no file.
* ``scan()`` is the streaming mode's only parse. It keeps the per-column
  type flags and the row count, and appends each chunk's parsed blocks to
  a private replay file: one unlinked temp file per reader, released by a
  ``weakref.finalize``. Once the last chunk has fixed the schema,
  ``chunk_at(i)`` reads record ``i`` back by offset (``os.pread``) and
  types it with the same ``ParsedColumnBlock.finalize`` ``read()`` uses,
  so a streamed chunk is cell-for-cell the resident table's rows. The
  reader is then randomly accessible like every other stream, and
  ``chunks()`` is ``chunk_at`` in index order behind the ``ingest.chunk``
  fault site.

The replay file's bound in bytes: a numeric or bool cell costs at most
8 B of value + 8 B of position + 1 B of NULL mask. A bucket that holds
a whole chunk of a column stores no positions, and a column chunk
without NULLs stores no mask, so a NULL-free numeric column costs 8 B
per cell. A string cell costs its 8 B position plus its pickled UTF-8
(length + a few bytes), and each column of each chunk adds a layout
entry of a few dozen bytes. A block whose one bucket holds the whole
column (its positions are :func:`_every_row`'s shared array) is written
and read back without a positions or NULL-mask check, and its chunk is
one cast; the record bytes are the same either way. On
``csv_stream_spill`` (seed 0, 2 048-row chunks) the file holds 9.5 /
8.9 B per cell, 1.30 / 1.21x the CSV bytes.

Parsing runs on the caller's thread at any ``repro.parallel`` worker
count. ``np.loadtxt`` holds the GIL while it reads a list of lines, as do
``csv.reader`` and the sweeps' ``float()``/``int()``: on
``csv_stream_spill``'s seed-0 blocks, two threads running
:func:`_parse_plain` on half the blocks each ran at 0.79–1.22x (median
1.0x) the speed of one thread parsing all of them (2 cores, 14 runs).
Typing from the replay (``chunk_at``) is numpy work and runs on the
builder's workers.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import pickle
import tempfile
import threading
import warnings
import weakref
from itertools import chain, islice, repeat
from pathlib import Path
from typing import (
    Callable, Dict, Generator, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import SchemaError, TableError
from repro.reliability import faults as _faults
from repro.reliability.retry import INGEST_RETRY
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import (
    _STORAGE_DTYPE,
    NULL_LITERALS,
    DataType,
    coerce_value,
    is_null,
    null_placeholder,
    parse_cell,
)
from repro.streaming.chunks import DEFAULT_CHUNK_ROWS, TableChunk, TableChunkStream, read_chunk

PathLike = Union[str, Path]
#: A line of a plain block: ``str`` from the text reader, ASCII ``bytes`` read ahead of it.
_Line = Union[str, bytes]

#: Stripped, lower-cased spelling -> what the cell is: ``None`` for NULL, else the bool.
_LITERALS = {**dict.fromkeys(NULL_LITERALS), "true": True, "false": False}
_LITERAL_MAX_LEN = max(map(len, _LITERALS))
_NOT_A_LITERAL = object()

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max
#: The least magnitude ``float()`` of an int rounds past the largest float64.
_FLOAT_OVERFLOW = 2**1024 - 2**970

#: The typed buckets of a :class:`ParsedColumnBlock` and their value dtypes, in record order.
_BUCKETS = (("bool", np.bool_), ("int", np.int64), ("float", np.float64), ("str", None))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_NO_POSITIONS = _read_only(np.empty(0, dtype=np.int64))
_NO_VALUES = {
    dtype: _read_only(np.empty(0, dtype=dtype)) for dtype in (np.bool_, np.int64, np.float64)
}


@functools.lru_cache(maxsize=8)
def _every_row(n: int) -> np.ndarray:
    """``arange(n)``, one read-only array per ``n``: the positions of a
    bucket that holds a whole column (see :attr:`ParsedColumnBlock.whole_bucket`)."""
    return _read_only(np.arange(n, dtype=np.int64))


class ColumnTypeFlags:
    """Which value kinds a column has produced so far (``infer_type`` state).

    Accumulated across chunks, so a streaming pass can infer the same
    :class:`DataType` ``infer_type`` would on the whole materialized column
    while retaining O(1) state per column.
    """

    __slots__ = ("seen_bool", "seen_int", "seen_float", "seen_str", "any_value", "float_overflow")

    def __init__(self) -> None:
        self.seen_bool = False
        self.seen_int = False
        self.seen_float = False
        self.seen_str = False
        self.any_value = False
        # An integer no float64 holds: a FLOAT column cannot type it.
        self.float_overflow = False

    def merge(self, other: "ColumnTypeFlags") -> None:
        self.seen_bool |= other.seen_bool
        self.seen_int |= other.seen_int
        self.seen_float |= other.seen_float
        self.seen_str |= other.seen_str
        self.any_value |= other.any_value
        self.float_overflow |= other.float_overflow

    def infer(self) -> DataType:
        """The ``infer_type`` priority: str > float > int > bool; all-NULL → FLOAT."""
        if not self.any_value:
            return DataType.FLOAT
        if self.seen_str:
            return DataType.STRING
        if self.seen_float:
            return DataType.FLOAT
        if self.seen_int:
            return DataType.INT
        return DataType.BOOL


class ParsedColumnBlock:
    """One column of one raw chunk, classified into typed value buckets.

    Equivalent to ``[parse_cell(c) for c in cells]``: every cell lands in
    exactly one bucket (null / bool / int64 / float / string), with python
    ints outside the int64 range kept verbatim in ``extra``. ``finalize``
    converts the buckets into ``(storage, valid)`` arrays with the exact
    semantics of ``coerce_column`` on the parsed values.
    """

    __slots__ = (
        "n", "null_mask",
        "bool_pos", "bool_vals", "int_pos", "int_vals",
        "float_pos", "float_vals", "str_pos", "str_vals", "extra",
    )

    def __init__(self, n: int):
        self.n = n
        self.null_mask = np.zeros(n, dtype=bool)
        # Empty buckets share read-only arrays: a bucket is replaced, never written.
        self.bool_pos = self.int_pos = self.float_pos = self.str_pos = _NO_POSITIONS
        self.bool_vals = _NO_VALUES[np.bool_]
        self.int_vals = _NO_VALUES[np.int64]
        self.float_vals = _NO_VALUES[np.float64]
        self.str_vals: List[str] = []
        self.extra: List[Tuple[int, int]] = []  # out-of-int64-range python ints

    @classmethod
    def one_bucket(cls, bucket: str, values: np.ndarray) -> "ParsedColumnBlock":
        """A block whose every cell is in ``bucket`` (``bool``/``int``/``float``)."""
        block = cls(len(values))
        setattr(block, bucket + "_pos", _every_row(block.n))
        setattr(block, bucket + "_vals", values)
        return block

    @property
    def whole_bucket(self) -> Optional[str]:
        """The bucket that holds every row in row order, or None.

        Such a bucket's positions are :func:`_every_row`'s array itself, so
        this costs no numpy call; every other cell lands elsewhere, so the
        column has no NULL.
        """
        rows = _every_row(self.n)
        if self.float_pos is rows:
            return "float"
        if self.int_pos is rows:
            return "int"
        if self.bool_pos is rows:
            return "bool"
        if self.str_pos is rows:
            return "str"
        return None

    # -- classification -------------------------------------------------------------
    def _add(self, bucket: str, positions: np.ndarray, values: np.ndarray) -> None:
        """Append ``(positions, values)`` to the ``bool``/``int``/``float`` bucket."""
        pos_attr, val_attr = bucket + "_pos", bucket + "_vals"
        held = getattr(self, pos_attr)
        if held.size:
            positions = np.concatenate([held, positions])
            values = np.concatenate([getattr(self, val_attr), values])
        setattr(self, pos_attr, positions)
        setattr(self, val_attr, values)

    def _sweep(self, cells: Sequence[str], positions: np.ndarray) -> bool:
        """Bucket ``cells[positions]`` with one ``float()`` and one ``int()`` sweep.

        numpy converts a ``str`` with Python's ``float()``/``int()`` — the
        functions ``_parse_string`` calls — so whatever a sweep returns is
        the reference value. Returns False, with nothing bucketed, when
        some cell is not a float.
        """
        try:
            values = np.array(_take(cells, positions), dtype=np.float64)
        except ValueError:
            return False
        self._bucket(values, positions, cells)
        return True

    def _bucket(
        self,
        values: np.ndarray,
        positions: np.ndarray,
        cells: Sequence[str],
        ints: Optional[np.ndarray] = None,
    ) -> None:
        """Bucket ``cells[positions]`` by their float ``values``: NaN is NULL,
        a fractional value is a FLOAT, and the integral rest are INTs.

        ``ints``, passed only when every value is integral, are the cells'
        int64 values; otherwise the integral cells' text gets one ``int()``
        sweep, and the cells it rejects (``"12.0"``, ``"1e3"``, beyond
        int64) go to :meth:`_classify`. Both parse tiers end here, so the
        bucket rules live in one place.
        """
        # inf counts as integral: only int() can tell "1e400" from a 400-digit integer.
        integral = values == np.floor(values)
        nan = np.isnan(values)
        has_nan = nan.any()
        if not has_nan and not integral.any():
            self._add("float", positions, values)  # every cell a FLOAT: no subset to take
            return
        if not integral.all():
            fractional = ~integral
            if has_nan:
                # A parsed NaN ("nan", "-nan") is NULL under is_null(), exactly as
                # the scalar pipeline treats it everywhere downstream.
                self.null_mask[positions[nan]] = True
                fractional &= ~nan
            self._add("float", positions[fractional], values[fractional])
            positions = positions[integral]
        if not positions.size:
            return
        if ints is None:
            try:
                ints = np.array(_take(cells, positions), dtype=np.int64)
            except (ValueError, OverflowError):
                self._classify(cells, positions)
                return
        self._add("int", positions, ints)

    def _peel_literals(self, cells: Sequence[str]) -> np.ndarray:
        """Bucket the NULL and bool literals; return every other cell's position.

        Only a cell short enough to be a literal is lower-cased, and an
        escaped cell (``\\null``) is never one: it stays with the rest.
        """
        null_pos: List[int] = []
        bool_pos: List[int] = []
        bool_vals: List[bool] = []
        rest: List[int] = []
        for pos, cell in enumerate(cells):
            stripped = cell.strip()
            literal = (
                _LITERALS.get(stripped.lower(), _NOT_A_LITERAL)
                if len(stripped) <= _LITERAL_MAX_LEN
                else _NOT_A_LITERAL
            )
            if literal is _NOT_A_LITERAL:
                rest.append(pos)
            elif literal is None:
                null_pos.append(pos)
            else:
                bool_pos.append(pos)
                bool_vals.append(literal)
        self.null_mask[null_pos] = True
        self._add("bool", np.asarray(bool_pos, dtype=np.int64), np.asarray(bool_vals, dtype=np.bool_))
        return np.asarray(rest, dtype=np.int64)

    def _classify(self, cells: Sequence[str], positions: np.ndarray) -> None:
        """The general path: type ``cells[positions]`` with numpy string kernels.

        Integer candidates (one optional sign + digits) get one
        ``astype(int64)`` cast, the rest one ``astype(float64)`` cast. A
        cast that raises sends its *whole candidate subset* through the
        scalar ``parse_cell`` fallback — correctness never depends on a
        cast accepting a cell. NULL and bool literals never get here: they
        are peeled first, or the float sweep took the column.
        """
        stripped = np.char.strip(np.asarray(_take(cells, positions), dtype=np.str_))
        # Backslash-escaped cells carry the write_csv NULL-literal protection;
        # the scalar parser owns that (rare) unescaping logic.
        escaped = np.char.startswith(stripped, "\\")
        if escaped.any():
            self._scalar_fallback(cells, positions[escaped])
            positions, stripped = positions[~escaped], stripped[~escaped]

        # Integer candidates: at most one leading sign, then digits only.
        body = np.char.lstrip(stripped, "+-")
        body_len = np.char.str_len(body)
        sign_len = np.char.str_len(stripped) - body_len
        int_cand = (body_len > 0) & (sign_len <= 1) & np.char.isdigit(body)
        # int() also reads underscore-grouped digits ("1_000"), which the
        # U -> float64 cast would take as floats: the scalar parser decides.
        grouped = ~int_cand & (np.char.find(stripped, "_") >= 0)
        if grouped.any():
            self._scalar_fallback(cells, positions[grouped])

        int_sel = positions[int_cand]
        if int_sel.size:
            try:
                int_vals = stripped[int_cand].astype(np.int64)
            except (ValueError, OverflowError):
                self._scalar_fallback(cells, int_sel)
            else:
                self._add("int", int_sel, int_vals)

        float_cand = ~(int_cand | grouped)
        float_sel = positions[float_cand]
        if float_sel.size:
            try:
                values = stripped[float_cand].astype(np.float64)
            except (ValueError, OverflowError):
                self._scalar_fallback(cells, float_sel)
            else:
                nan = np.isnan(values)
                self._add("float", float_sel[~nan], values[~nan])
                self.null_mask[float_sel[nan]] = True

    def _scalar_fallback(self, cells: Sequence[str], positions: np.ndarray) -> None:
        """Route cells the vectorized casts rejected through ``parse_cell``."""
        b_pos: List[int] = []
        b_val: List[bool] = []
        i_pos: List[int] = []
        i_val: List[int] = []
        f_pos: List[int] = []
        f_val: List[float] = []
        s_pos: List[int] = []
        for pos in positions.tolist():
            value = parse_cell(cells[pos])
            if is_null(value):
                self.null_mask[pos] = True
            elif isinstance(value, bool):
                b_pos.append(pos)
                b_val.append(value)
            elif isinstance(value, int):
                if _INT64_MIN <= value <= _INT64_MAX:
                    i_pos.append(pos)
                    i_val.append(value)
                else:
                    self.extra.append((pos, value))
            elif isinstance(value, float):
                f_pos.append(pos)
                f_val.append(value)
            else:
                s_pos.append(pos)
                self.str_vals.append(value)
        if b_pos:
            self._add("bool", np.asarray(b_pos, dtype=np.int64), np.asarray(b_val, dtype=np.bool_))
        if i_pos:
            self._add("int", np.asarray(i_pos, dtype=np.int64), np.asarray(i_val, dtype=np.int64))
        if f_pos:
            self._add("float", np.asarray(f_pos, dtype=np.int64), np.asarray(f_val, dtype=np.float64))
        if s_pos:
            self.str_pos = np.concatenate([self.str_pos, np.asarray(s_pos, dtype=np.int64)])

    @property
    def flags(self) -> ColumnTypeFlags:
        flags = ColumnTypeFlags()
        flags.seen_bool = self.bool_pos.size > 0
        flags.seen_int = self.int_pos.size > 0 or bool(self.extra)
        flags.seen_float = self.float_pos.size > 0
        flags.seen_str = self.str_pos.size > 0
        flags.any_value = (
            flags.seen_bool or flags.seen_int or flags.seen_float or flags.seen_str
        )
        flags.float_overflow = any(abs(value) >= _FLOAT_OVERFLOW for _, value in self.extra)
        return flags

    # -- typed finalization ---------------------------------------------------------
    def finalize(self, dtype: DataType) -> Tuple[np.ndarray, np.ndarray]:
        """``(storage, valid)`` arrays, matching ``coerce_column`` exactly."""
        whole = self.whole_bucket
        if whole is not None and whole in _WIDENS_TO[dtype]:
            # One bucket, no NULL: the column is its values, cast to the storage dtype.
            values = getattr(self, whole + "_vals").astype(_STORAGE_DTYPE[dtype])
            return values, np.ones(self.n, dtype=bool)
        valid = ~self.null_mask
        if dtype is DataType.FLOAT:
            out = np.full(self.n, np.nan, dtype=np.float64)
            out[self.bool_pos] = self.bool_vals.astype(np.float64)
            out[self.int_pos] = self.int_vals.astype(np.float64)
            out[self.float_pos] = self.float_vals
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = coerce_value(value, dtype)
            for pos, value in self.extra:
                out[pos] = coerce_value(value, dtype)
            # A string coerced to NaN ("nan" from an escaped cell) is NULL:
            # coerce_column keeps the FLOAT invariant NULL <=> NaN.
            return out, ~np.isnan(out)
        if dtype is DataType.INT:
            out = np.zeros(self.n, dtype=np.int64)
            out[self.bool_pos] = self.bool_vals.astype(np.int64)
            out[self.int_pos] = self.int_vals
            for pos, value in zip(self.float_pos.tolist(), self.float_vals.tolist()):
                out[pos] = coerce_value(value, dtype)
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = coerce_value(value, dtype)
            for pos, value in self.extra:
                try:
                    out[pos] = coerce_value(value, dtype)
                except OverflowError as exc:
                    raise SchemaError(
                        f"value overflows the {dtype.value} column storage"
                    ) from exc
            return out, valid
        if dtype is DataType.BOOL:
            out = np.zeros(self.n, dtype=np.bool_)
            out[self.bool_pos] = self.bool_vals
            for pos_arr, values in (
                (self.int_pos.tolist(), self.int_vals.tolist()),
                (self.float_pos.tolist(), self.float_vals.tolist()),
            ):
                for pos, value in zip(pos_arr, values):
                    out[pos] = coerce_value(value, dtype)
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = coerce_value(value, dtype)
            for pos, value in self.extra:
                out[pos] = coerce_value(value, dtype)
            return out, valid
        if dtype is DataType.STRING:
            out = np.empty(self.n, dtype=object)
            out[self.null_mask] = null_placeholder(dtype)
            out[self.bool_pos] = np.where(self.bool_vals, "True", "False")
            out[self.int_pos] = self.int_vals.astype(str).astype(object)
            for pos, value in zip(self.float_pos.tolist(), self.float_vals.tolist()):
                out[pos] = str(value)
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = value
            for pos, value in self.extra:
                out[pos] = coerce_value(value, dtype)
            return out, valid
        raise TableError(f"unknown data type {dtype!r}")  # pragma: no cover


#: The buckets whose values a column of each type stores by a plain cast.
_WIDENS_TO = {
    DataType.FLOAT: ("bool", "int", "float"),
    DataType.INT: ("bool", "int"),
    DataType.BOOL: ("bool",),
    DataType.STRING: (),
}


def _take(cells: Sequence[str], positions: np.ndarray) -> Sequence[str]:
    """``cells[positions]``; positions are increasing, so all of them is ``cells``
    itself — unless ``cells`` is a plain block's column, whose text is fetched here."""
    if positions.size == len(cells) and not isinstance(cells, _PlainColumn):
        return cells
    return [cells[pos] for pos in positions.tolist()]


def parse_cell_block(cells: Sequence[str]) -> ParsedColumnBlock:
    """Classify one column of raw CSV cells: sweep, then classify what is left.

    A numeric column is typed by :meth:`ParsedColumnBlock._sweep` alone, on
    the parser's own strings. When some cell is not a float, the NULL and
    bool literals are peeled off and the rest is swept again, so a numeric
    column with empty / ``NA`` cells keeps the fast path; only cells the
    sweeps reject reach the string-kernel classifier.
    """
    block = ParsedColumnBlock(len(cells))
    if block.n == 0 or block._sweep(cells, _every_row(block.n)):
        return block
    rest = block._peel_literals(cells)
    # Nothing peeled: the same cells would fail the same sweep again.
    if rest.size and (rest.size == block.n or not block._sweep(cells, rest)):
        block._classify(cells, rest)
    return block


#: The quote character of the ``csv`` dialect the reader parses (``excel``).
_QUOTE = csv.excel.quotechar
#: ASCII information separators: numpy's converters strip them as
#: whitespace (``"\x1c1"`` reads as 1.0), ``float()`` and ``int()`` do not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _is_plain(lines: List[str]) -> bool:
    """Whether the C tier may parse ``lines``: each line is one unquoted record.

    The text is ASCII without the quote character or an information
    separator (where numpy's converters and ``float()`` agree); every line
    ends in ``\n`` or ``\r\n`` (a line ends at a lone ``\r`` too, so such
    a line fails) and none is blank; and no line is longer than
    ``csv.field_size_limit()``, so no field can be.
    """
    text = "".join(lines)
    return (
        text.isascii()
        and _QUOTE not in text
        and not any(separator in text for separator in _SEPARATORS)
        and all(map(str.endswith, lines, repeat("\n")))
        and "\n" not in lines
        and "\r\n" not in lines
        and max(map(len, lines)) <= csv.field_size_limit()
    )


def _int64_parse_is_strict() -> bool:
    """Whether numpy's int64 ``loadtxt`` rejects every cell ``int()`` rejects.

    From numpy 1.23 until the deprecation expired, an int64 ``loadtxt``
    read a cell its integer parse rejected as a float and cast it
    (``"3.0"`` -> 3, ``"1e3"`` -> 1000), with a ``DeprecationWarning``.
    The probe silences that warning, so its answer does not depend on the
    caller's warning filters.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spelling in ("3.0", "1e3", "9223372036854775808"):
            try:
                np.loadtxt([spelling], dtype=np.int64, comments=None, quotechar=None)
            except ValueError:
                continue
            return False
    return True


#: Whether the C tier may read all-integral columns with an int64 ``loadtxt``.
_STRICT_INT64 = _int64_parse_is_strict()


def _split_line(line: _Line, delimiter: str) -> List[str]:
    """One plain line's cells, the strings ``csv.reader`` yields for it."""
    return _text(line).rstrip("\r\n").split(delimiter)


class _PlainColumn:
    """One column of a plain block, as the sequence of its cells' text.

    A line is split only when one of its cells is asked for, and at most
    once per block: ``fields`` is shared by the block's columns.
    """

    __slots__ = ("_lines", "_delimiter", "_fields", "_column")

    def __init__(self, lines: List[str], delimiter: str, fields: Dict[int, List[str]], column: int):
        self._lines = lines
        self._delimiter = delimiter
        self._fields = fields
        self._column = column

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, pos: int) -> str:
        fields = self._fields.get(pos)
        if fields is None:
            fields = self._fields[pos] = _split_line(self._lines[pos], self._delimiter)
        return fields[self._column]


def _int_literal(cell: str) -> bool:
    """Whether ``cell`` spells an integer int64 holds: an optional sign and digits."""
    stripped = cell.strip()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    # No int64 has more than 19 digits; int() refuses thousands of them.
    return digits.isdigit() and len(digits) <= 19 and _INT64_MIN <= int(stripped) <= _INT64_MAX


def _first_line_ints(lines: Sequence[_Line], width: int, delimiter: str) -> Tuple[int, ...]:
    """The columns whose cell on the block's first line is an integer literal."""
    cells = _text(lines[0]).rstrip("\r\n").split(delimiter)[:width]
    return tuple(column for column, cell in enumerate(cells) if _int_literal(cell))


#: ``np.loadtxt`` keeps a plain line's text whole: no comment, no quoting.
_VERBATIM = dict(comments=None, quotechar=None)


@functools.lru_cache(maxsize=32)
def _row_dtype(width: int, ints: Tuple[int, ...]) -> np.dtype:
    """A record of ``width`` 8-byte fields: int64 at ``ints``, float64 elsewhere."""
    formats: List[type] = [np.float64] * width
    for column in ints:
        formats[column] = np.int64
    return np.dtype({"names": [f"c{column}" for column in range(width)], "formats": formats})


def _typed_pass(
    lines: Sequence[_Line], width: int, delimiter: str, ints: Tuple[int, ...]
) -> Optional[np.ndarray]:
    """One ``np.loadtxt`` of a plain block, or None where numpy rejects it.

    Returns the ``(len(lines), width)`` cells as float64, except that the
    ``ints`` columns hold the bits of a strict int64 parse.
    """
    try:
        if ints:
            dtype = _row_dtype(width, ints)
            records = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, ndmin=1, **_VERBATIM)
            cells = records.view(np.float64).reshape(len(records), width)
        else:
            cells = np.loadtxt(lines, dtype=np.float64, delimiter=delimiter, ndmin=2, **_VERBATIM)
    except ValueError:
        return None
    return cells if cells.shape == (len(lines), width) else None


def _parse_plain(
    lines: Sequence[_Line], width: int, delimiter: str, ints: Optional[Tuple[int, ...]] = None
) -> Optional[List[ParsedColumnBlock]]:
    """The C tier: parse a plain block with numpy's C reader, or return None.

    One ``np.loadtxt`` with a record dtype reads the ``ints`` columns
    (by default those whose first-line cell is an integer literal) as
    int64, where :data:`_STRICT_INT64` holds, and every other cell as
    float64 through ``PyOS_string_to_double``, the function ``float()``
    calls; both reject what they do not fully read (``"1_000"``,
    non-ASCII digits, an empty cell). When that pass raises, one float64
    pass reads the block instead. If that raises too, or the shape is not
    ``(len(lines), width)``, this returns None and the block takes
    ``csv.reader`` + :func:`parse_cell_block`.

    One pass over the block matrix then finds the columns with an
    integral or NaN cell. Every other column, like an int64 one, is a
    block with one bucket. A column with such a cell takes
    :meth:`ParsedColumnBlock._bucket`, like a float sweep: if all of its
    values are integral, it gets one int64 ``loadtxt`` over ``usecols``
    (shared with the block's other such columns); otherwise only its
    integral-valued cells fetch their text, from a lazy split of just
    their lines.
    """
    if not _STRICT_INT64:
        ints = ()
    elif ints is None:
        ints = _first_line_ints(lines, width, delimiter)
    cells = _typed_pass(lines, width, delimiter, ints)
    if cells is None and ints:
        ints = ()
        cells = _typed_pass(lines, width, delimiter, ints)
    if cells is None:
        return None
    n = len(lines)
    columns = np.ascontiguousarray(cells.T)  # each column's cells contiguous, ready to store
    # floor(x) < x holds for a fractional float, not for an integral one, inf
    # or NaN: those cells need the per-column path. An int64 column's bits are
    # no float, so its answer is discarded.
    with np.errstate(invalid="ignore"):
        mixed = ~(np.floor(columns) < columns).all(axis=1)
    mixed[list(ints)] = False
    mixed_columns = np.flatnonzero(mixed)
    whole_ints: Dict[int, np.ndarray] = {}
    if mixed_columns.size and _STRICT_INT64:
        # Columns of finite whole numbers: int64 can hold what the strict parse accepts.
        values = columns[mixed_columns]
        integral = mixed_columns[((values == np.floor(values)) & np.isfinite(values)).all(axis=1)]
        if integral.size:
            try:
                parsed = np.loadtxt(
                    lines, dtype=np.int64, usecols=integral.tolist(), delimiter=delimiter,
                    ndmin=2, **_VERBATIM,
                )
            except ValueError:
                pass  # "3.0" or "1e3" in a whole column: its cells go to the int() sweep
            else:
                whole_ints = {int(column): parsed[:, j] for j, column in enumerate(integral)}
    int_columns = set(ints)
    rows = _every_row(n)
    fields: Dict[int, List[str]] = {}
    blocks = []
    for column, is_mixed in enumerate(mixed.tolist()):
        if column in int_columns:
            blocks.append(ParsedColumnBlock.one_bucket("int", columns[column].view(np.int64)))
        elif not is_mixed:
            blocks.append(ParsedColumnBlock.one_bucket("float", columns[column]))
        else:
            block = ParsedColumnBlock(n)
            block._bucket(
                columns[column],
                rows,
                _PlainColumn(lines, delimiter, fields, column),
                whole_ints.get(column),
            )
            blocks.append(block)
    return blocks


class _IntColumns:
    """Which columns the typed pass of a file's next plain block reads as int64.

    The first block guesses from its first line (``None``); each later
    block takes the columns the previous block held as int64 in every row.
    A guessed column that then held anything else cost a rejected typed
    pass, so it is not guessed again: a column whose type flips pays that
    once per file, not once per block.
    """

    __slots__ = ("guess", "dropped")

    def __init__(self) -> None:
        self.guess: Optional[Tuple[int, ...]] = None
        self.dropped: Set[int] = set()

    def update(self, blocks: List[ParsedColumnBlock]) -> None:
        held = {column for column, block in enumerate(blocks) if block.whole_bucket == "int"}
        if self.guess is not None:
            self.dropped.update(set(self.guess) - held)
        self.guess = tuple(sorted(held - self.dropped))


#: A bucket size meaning "every row, in order": its positions are not stored.
_EVERY_ROW = -1


def _add_positions(positions: np.ndarray, n: int, buffers: List[np.ndarray]) -> int:
    """Queue a bucket's positions unless they are ``0 .. n-1``; return the layout size."""
    if positions.size == n and np.array_equal(positions, _every_row(n)):
        return _EVERY_ROW
    if positions.size:
        buffers.append(np.ascontiguousarray(positions, dtype=np.int64))
    return int(positions.size)


class _ReplayFile:
    """The parsed chunks of one scan, in an unlinked temp file, read back by index.

    Record ``i`` holds chunk ``i``'s :class:`ParsedColumnBlock` list: an
    8-byte header length, a pickled layout, then the numeric buckets' raw
    numpy buffers. A bucket that holds every cell of its column stores no
    positions, and a column without NULLs stores no NULL mask.
    :meth:`blocks` reads a record with ``os.pread``, so any number of
    threads and iterators read at once without sharing a file position.
    """

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile()
        self.close = weakref.finalize(self, self._file.close)
        self._spans: List[Tuple[int, int]] = []  # (start, length) of each record

    def __len__(self) -> int:
        return len(self._spans)

    def append(self, blocks: List[ParsedColumnBlock]) -> None:
        layout = []
        buffers: List[np.ndarray] = []
        for block in blocks:
            whole = block.whole_bucket
            has_nulls = whole is None and bool(block.null_mask.any())
            if has_nulls:
                buffers.append(block.null_mask)
            sizes = []
            for bucket, dtype in _BUCKETS:
                values = getattr(block, bucket + "_vals")
                if bucket == whole:
                    sizes.append(_EVERY_ROW)
                else:
                    sizes.append(_add_positions(getattr(block, bucket + "_pos"), block.n, buffers))
                if dtype is not None and values.size:
                    buffers.append(np.ascontiguousarray(values, dtype))
            layout.append((block.n, has_nulls, sizes, block.str_vals, block.extra))
        head = pickle.dumps(layout, protocol=pickle.HIGHEST_PROTOCOL)
        record = b"".join([len(head).to_bytes(8, "little"), head, *buffers])
        self._spans.append((self._file.tell(), len(record)))
        self._file.write(record)

    def seal(self) -> None:
        self._file.flush()

    def blocks(self, index: int) -> List[ParsedColumnBlock]:
        start, length = self._spans[index]
        record = os.pread(self._file.fileno(), length, start)
        at = 8 + int.from_bytes(record[:8], "little")
        # pickle only ever loads bytes this reader wrote to its own unlinked file.
        layout = pickle.loads(record[8:at])

        def take(dtype, count: int) -> np.ndarray:
            nonlocal at
            array = np.frombuffer(record, dtype=dtype, count=count, offset=at)
            at += array.nbytes
            return array

        blocks = []
        for n, has_nulls, sizes, str_vals, extra in layout:
            block = ParsedColumnBlock(n)
            if has_nulls:
                block.null_mask = take(np.bool_, n)
            for (bucket, dtype), size in zip(_BUCKETS, sizes):
                if size == _EVERY_ROW:
                    size = n
                    setattr(block, bucket + "_pos", _every_row(n))
                elif size:
                    setattr(block, bucket + "_pos", take(np.int64, size))
                if dtype is not None and size:
                    setattr(block, bucket + "_vals", take(dtype, size))
            block.str_vals, block.extra = str_vals, extra
            blocks.append(block)
        return blocks


class _PlainLines:
    """A block of physical lines that passed :func:`_is_plain` (or, read as
    bytes, :func:`_is_plain_bytes`): each line is one record, the first of
    them row ``row_number + 1``. ``ints`` is the
    file's :class:`_IntColumns`; ``rejected`` is set when the C tier gave
    the block to ``csv.reader``."""

    __slots__ = ("lines", "row_number", "ints", "rejected")

    def __init__(self, lines: List[_Line], row_number: int, ints: _IntColumns):
        self.lines = lines
        self.row_number = row_number
        self.ints = ints
        self.rejected = False

    def __len__(self) -> int:
        return len(self.lines)


#: One chunk's raw input: plain lines for the C tier, or validated ``csv.reader`` rows.
_RawBlock = Union[_PlainLines, List[List[str]]]


def _read_lines(
    handle: Iterable[str], count: int
) -> Tuple[List[str], Optional[UnicodeDecodeError]]:
    """Up to ``count`` lines, and the decode error that ended the read early, if any."""
    lines: List[str] = []
    try:
        lines.extend(islice(handle, count))
    except UnicodeDecodeError as exc:
        return lines, exc
    return lines, None


#: How far past a line the text reader may have decoded: its read size.
_DECODE_AHEAD = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE


def _has_lone_cr(data: bytes) -> bool:
    """Whether some ``\r`` in ``data`` is not followed by ``\n``."""
    if b"\r" not in data:
        return False
    codes = np.frombuffer(data, dtype=np.uint8)
    cr = np.flatnonzero(codes == ord("\r"))
    return cr[-1] + 1 == codes.size or bool((codes[cr + 1] != ord("\n")).any())


def _is_plain_bytes(lines: List[bytes], fd: int, end: int) -> bool:
    """:func:`_is_plain` for lines read as bytes, which end at offset ``end``
    of file ``fd``, and whether the text reader reads the same lines.

    A bytes line ends at ``\n`` alone, so only the last line can lack one,
    and the text reader also ends a line at a lone ``\r``: there must be
    none. ASCII decodes alike; the file must be ASCII for
    :data:`_DECODE_AHEAD` bytes past the lines too, since the text reader
    decodes ahead of a line and so met no undecodable byte there either.
    """
    data = b"".join(lines)
    return (
        data.isascii()
        and os.pread(fd, _DECODE_AHEAD, end).isascii()
        and _QUOTE.encode() not in data
        and not any(separator.encode() in data for separator in _SEPARATORS)
        and lines[-1].endswith(b"\n")
        and not _has_lone_cr(data)
        and b"\n" not in lines
        and b"\r\n" not in lines
        and max(map(len, lines)) <= csv.field_size_limit()
    )


def _text(line: _Line) -> str:
    """A plain block's line as ``str``: one read as bytes is ASCII."""
    return line.decode("ascii") if isinstance(line, bytes) else line


def _raising(error: BaseException) -> Iterator[str]:
    """An iterator that raises ``error``: the rest of a file that failed to decode."""
    raise error
    yield  # pragma: no cover - makes this a generator


class ChunkedCsvReader(TableChunkStream):
    """Columnar CSV reader producing typed :class:`TableChunk` row blocks.

    Type inference matches ``read_csv``. :meth:`scan` is the only parse:
    it accumulates per-column :class:`ColumnTypeFlags` and keeps every
    chunk's parsed blocks in a private replay file, and :meth:`chunk_at`
    types chunk ``i`` from its blocks once the schema is known — so the
    reader is randomly accessible like every other stream. :meth:`read`
    runs the same parse loop, keeps the blocks in memory and writes no
    file. Empty-file and row-width :class:`TableError` behavior is
    bit-for-bit that of the seed reader.
    """

    def __init__(
        self,
        path: PathLike,
        name: Optional[str] = None,
        key_columns: Sequence[str] = (),
        label_column: Optional[str] = None,
        delimiter: str = ",",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if chunk_rows <= 0:
            raise TableError(f"chunk_rows must be positive, got {chunk_rows}")
        self._path = Path(path)
        self.name = name if name is not None else self._path.stem
        self._key_columns = tuple(key_columns)
        self._label_column = label_column
        self._delimiter = delimiter
        self._chunk_rows = int(chunk_rows)
        self._schema: Optional[Schema] = None
        self._n_rows: Optional[int] = None
        self._replay: Optional[_ReplayFile] = None
        self._scan_lock = threading.Lock()

    # -- raw row blocks -------------------------------------------------------------
    def _raw_chunks(self) -> Iterator[Tuple[List[str], _RawBlock]]:
        """Yield ``(header, block)`` chunks of ``chunk_rows`` rows from one open file.

        Lines are read ``chunk_rows`` at a time. A block of lines that
        passes :func:`_is_plain` is yielded as :class:`_PlainLines` for the
        C tier; any other block is read by ``csv.reader`` into validated
        rows. Once a line holds the quote character (a quoted field may
        span lines), or the C tier rejected a block, ``csv.reader`` reads
        the rest of the file. Chunk boundaries are those
        of a ``csv.reader`` over the whole file: a chunk that blank lines
        left short is topped up through ``csv.reader`` before the next
        block is read. The file's leading ASCII blocks are read as bytes
        (:meth:`_ascii_blocks`); the text reader takes over at the first
        block that is not one, so it reads, decodes and reports every
        other line as if it had read the whole file.
        """
        with self._path.open("rb", buffering=0) as raw:
            start = yield from self._ascii_blocks(raw)
            if start is None:
                return
            taken, c_tier, ints = start
            raw.seek(0)
            # "utf-8-sig": a byte-order mark is not part of the first column's name.
            text = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")
            with text as handle:
                reader = csv.reader(handle, delimiter=self._delimiter)
                try:
                    header = next(reader)
                except StopIteration as exc:
                    raise TableError(f"CSV file {self._path} is empty") from exc
                except UnicodeDecodeError as exc:
                    raise TableError(
                        f"CSV file {self._path} is not valid UTF-8 "
                        f"(header, row 1): {exc}"
                    ) from exc
                except csv.Error as exc:
                    raise TableError(
                        f"CSV file {self._path} is malformed (header, row 1): {exc}"
                    ) from exc
                # Skip the lines the ASCII blocks took after the header: they decode.
                for _ in islice(handle, max(taken - 1, 0)):
                    pass
                rows: List[List[str]] = []
                row_number = max(taken, 1)  # 1-based physical row; the header is row 1
                while True:
                    lines, error = _read_lines(handle, self._chunk_rows - len(rows))
                    if c_tier and not rows and error is None and lines and _is_plain(lines):
                        plain = _PlainLines(lines, row_number, ints)
                        yield header, plain  # parsed before the generator resumes
                        c_tier = not plain.rejected
                        row_number += len(lines)
                        continue
                    if not lines and error is None:
                        break
                    to_end = not c_tier or any(_QUOTE in line for line in lines)
                    rest: Iterable[str] = ()
                    if error is not None:
                        rest = _raising(error)
                    elif to_end:
                        rest = handle
                    for row in self._csv_rows(chain(lines, rest), row_number, len(header)):
                        rows.append(row)
                        if len(rows) >= self._chunk_rows:
                            yield header, rows
                            rows = []
                    if to_end:
                        break
                    row_number += len(lines)
                yield header, rows

    def _ascii_blocks(
        self, raw: io.RawIOBase
    ) -> Generator[Tuple[List[str], _RawBlock], None, Optional[Tuple[int, bool, _IntColumns]]]:
        """Yield the file's leading plain blocks, read as bytes, for the C tier.

        Bytes lines skip the text reader's per-line work. The header and
        then each block are taken while :func:`_is_plain_bytes` holds.
        Returns None when they reached the end of the file, else
        where the text reader takes over: the physical lines taken (the
        header's included; 0 when the text reader reads the header),
        whether the C tier is still on, and the file's int64 guess.
        """
        ints = _IntColumns()
        if self._delimiter.isspace():
            return 0, False, ints
        binary = io.BufferedReader(raw)
        try:
            first = binary.readline()
            if not first or not _is_plain_bytes([first], raw.fileno(), binary.tell()):
                return 0, True, ints
            header = next(csv.reader([first.decode("ascii")], delimiter=self._delimiter))
            taken = 1
            while True:
                lines = list(islice(binary, self._chunk_rows))
                if not lines:
                    yield header, []
                    return None
                if not _is_plain_bytes(lines, raw.fileno(), binary.tell()):
                    return taken, True, ints
                plain = _PlainLines(lines, taken, ints)
                yield header, plain  # parsed before the generator resumes
                taken += len(lines)
                if plain.rejected:
                    return taken, False, ints
        finally:
            binary.detach()  # the text reader takes ``raw`` over

    def _check_roles(self, header: List[str]) -> None:
        """Raise :class:`SchemaError` when a named key or label column is not in ``header``."""
        named = [*self._key_columns, *([] if self._label_column is None else [self._label_column])]
        missing = [column for column in named if column not in header]
        if missing:
            raise SchemaError(
                f"CSV file {self._path} has no column {', '.join(map(repr, missing))} "
                f"(named as a key or label column)"
            )

    def _csv_rows(self, lines: Iterable[str], row_number: int, width: int) -> Iterator[List[str]]:
        """``csv.reader`` over ``lines``, whose first record is row ``row_number + 1``.

        Skips blank lines, as the seed reader did. Every malformed-input
        failure — width mismatch, undecodable bytes, csv-level framing
        errors — surfaces as a typed :class:`TableError` carrying the
        offending row number, never a bare ``ValueError`` from the stdlib.
        """
        reader = csv.reader(lines, delimiter=self._delimiter)
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except UnicodeDecodeError as exc:
                raise TableError(
                    f"CSV file {self._path} is not valid UTF-8 "
                    f"near row {row_number + 1}: {exc}"
                ) from exc
            except csv.Error as exc:
                raise TableError(
                    f"CSV file {self._path} is malformed "
                    f"at row {row_number + 1}: {exc}"
                ) from exc
            row_number += 1
            if not row:
                continue  # blank lines, as in the seed reader
            if len(row) != width:
                raise TableError(
                    f"CSV row width {len(row)} does not match header width "
                    f"{width} (row {row_number} of {self._path})"
                )
            yield row

    def _parse_chunk(self, header: List[str], block: _RawBlock) -> List[ParsedColumnBlock]:
        """One chunk's parsed column blocks: the C tier for plain lines it
        accepts, ``csv.reader`` + :func:`parse_cell_block` for the rest."""
        if isinstance(block, _PlainLines):
            parsed = _parse_plain(block.lines, len(header), self._delimiter, block.ints.guess)
            if parsed is not None:
                block.ints.update(parsed)
                return parsed
            block.rejected = True
            lines = [_text(line) for line in block.lines]
            block = list(self._csv_rows(lines, block.row_number, len(header)))
        if not block:
            return [ParsedColumnBlock(0) for _ in header]
        transposed = list(zip(*block))
        return [parse_cell_block(transposed[i]) for i in range(len(header))]

    def _schema_from_flags(self, header: List[str], flags: List[ColumnTypeFlags]) -> Schema:
        """The inferred schema; a FLOAT column holding an integer beyond
        float range fails here, at the parse, not when a chunk is typed."""
        for col, column_flags in zip(header, flags):
            if column_flags.float_overflow and column_flags.infer() is DataType.FLOAT:
                raise SchemaError(f"column {col!r} holds an integer beyond float range")
        return Schema(
            [
                Column(
                    col,
                    flags[i].infer(),
                    is_key=col in self._key_columns,
                    is_label=(col == self._label_column),
                )
                for i, col in enumerate(header)
            ]
        )

    def _parse_file(
        self,
        parse: Callable[[List[str], _RawBlock], List[ParsedColumnBlock]],
        keep: Callable[[List[ParsedColumnBlock]], None],
    ) -> Tuple[Schema, int]:
        """The one parse loop: raw chunk -> parsed blocks -> merged type flags.

        Every non-empty chunk's blocks go to ``keep`` — the replay file for
        :meth:`scan`, a list for :meth:`read`. Returns the inferred schema
        and the row count.
        """
        header: List[str] = []
        flags: List[ColumnTypeFlags] = []
        n_rows = 0
        for header, rows in self._raw_chunks():
            if not flags:
                self._check_roles(header)
                flags = [ColumnTypeFlags() for _ in header]
            blocks = parse(header, rows)
            for accumulated, block in zip(flags, blocks):
                accumulated.merge(block.flags)
            if rows:
                keep(blocks)
                n_rows += len(rows)
        return self._schema_from_flags(header, flags), n_rows

    # -- streaming interface ----------------------------------------------------------
    def scan(self) -> Schema:
        """Parse the file once: infer the schema and row count, and keep
        every chunk's parsed blocks in the replay file for :meth:`chunk_at`."""
        with self._scan_lock:
            if self._replay is None:
                with _telemetry.span("ingest.scan", file=str(self._path)) as span:
                    replay = _ReplayFile()
                    try:
                        schema, n_rows = self._parse_file(self._parse_chunk, replay.append)
                        replay.seal()
                    except BaseException:
                        replay.close()
                        raise
                    self._schema, self._n_rows, self._replay = schema, n_rows, replay
                    span.set(rows=n_rows, columns=len(schema))
        return self._schema

    @property
    def schema(self) -> Schema:
        return self.scan()

    @property
    def n_rows(self) -> int:
        self.scan()
        return self._n_rows  # type: ignore[return-value]

    @property
    def chunk_rows(self) -> int:
        return self._chunk_rows

    def chunk_at(self, index: int) -> TableChunk:
        """Chunk ``index``, typed from the blocks :meth:`scan` parsed: the
        ``finalize`` of the same blocks under the whole file's schema."""
        schema = self.scan()
        replay = self._replay
        if not 0 <= index < len(replay):
            raise IndexError(f"chunk index {index} out of range for {self.chunk_count} chunks")
        offset = index * self._chunk_rows
        with _telemetry.span("ingest.chunk", file=str(self._path), offset=offset) as span:
            data: Dict[str, np.ndarray] = {}
            valid: Dict[str, np.ndarray] = {}
            for column, block in zip(schema, replay.blocks(index)):
                data[column.name], valid[column.name] = block.finalize(column.dtype)
            chunk = TableChunk(schema, data, valid, offset=offset)
            span.set(rows=chunk.n_rows)
        if _telemetry.ENABLED:
            _telemetry.counter_add("ingest.chunks")
            _telemetry.counter_add("ingest.rows", float(chunk.n_rows))
        return chunk

    def chunks(self) -> Iterator[TableChunk]:
        for index in range(self.chunk_count):
            yield read_chunk(self, index)

    # -- one-pass materialization ------------------------------------------------------
    def read(self) -> Table:
        """Parse once and assemble a resident :class:`Table` (the
        single-chunk fast path ``read_csv`` routes through); no replay file."""

        def _faulted_parse(header: List[str], block: _RawBlock) -> List[ParsedColumnBlock]:
            _faults.fault_point("ingest.chunk", file=str(self._path))
            return self._parse_chunk(header, block)

        def _parse(header: List[str], block: _RawBlock) -> List[ParsedColumnBlock]:
            if _faults.ACTIVE:
                return INGEST_RETRY.call(_faulted_parse, header, block, site="ingest.chunk")
            return self._parse_chunk(header, block)

        parsed: List[List[ParsedColumnBlock]] = []
        schema, _ = self._parse_file(_parse, parsed.append)
        data: Dict[str, np.ndarray] = {}
        valid: Dict[str, np.ndarray] = {}
        for i, column in enumerate(schema):
            pieces = [blocks[i].finalize(column.dtype) for blocks in parsed]
            if pieces:
                data[column.name] = np.concatenate([p[0] for p in pieces])
                valid[column.name] = np.concatenate([p[1] for p in pieces])
            else:
                data[column.name] = np.empty(0, dtype=_STORAGE_DTYPE[column.dtype])
                valid[column.name] = np.empty(0, dtype=bool)
        return Table._from_storage(self.name, schema, data, valid)
