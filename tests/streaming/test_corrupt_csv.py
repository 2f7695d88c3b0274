"""Fuzzed corrupt-CSV ingest: typed TableErrors with row numbers, always.

Hypothesis generates malformed inputs — truncated final rows, wrong column
counts mid-file, invalid UTF-8, wildly mixed-type columns — and asserts
the reader's contract: every malformed input surfaces as a
:class:`~repro.exceptions.TableError` naming the offending row, never a
bare ``ValueError``/``UnicodeDecodeError`` escaping the stdlib, and never
a hang; well-formed-but-messy input parses identically on the streaming
and materialized paths.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TableError
from repro.streaming.ingest import ChunkedCsvReader

MAX_EXAMPLES = 25

# Cells that never contain delimiters/quotes/newlines, so generated files
# stay structurally valid everywhere we don't corrupt them on purpose.
plain_cell = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["", "null", "true", "false", "abc", "x1", "NA"]),
)

csv_shape = st.tuples(
    st.integers(min_value=2, max_value=5),   # columns
    st.integers(min_value=1, max_value=12),  # data rows
    st.integers(min_value=1, max_value=4),   # chunk_rows
)


def _rows(draw, n_columns, n_rows, cell=plain_cell):
    return [
        [draw(cell) for _ in range(n_columns)] for _ in range(n_rows)
    ]


def _write(tmp_path, lines):
    path = tmp_path / "fuzz.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _assert_typed_error(path, chunk_rows, pattern):
    """Both consumption modes must fail with the same typed error."""
    for consume in (
        lambda: list(ChunkedCsvReader(path, chunk_rows=chunk_rows).chunks()),
        lambda: ChunkedCsvReader(path, chunk_rows=chunk_rows).read(),
    ):
        try:
            consume()
        except TableError as error:
            assert re.search(pattern, str(error)), str(error)
        except Exception as error:  # pragma: no cover - the contract violation
            pytest.fail(f"expected TableError, got {type(error).__name__}: {error}")
        else:
            pytest.fail("malformed CSV parsed without an error")


class TestTruncatedFinalRow:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), shape=csv_shape)
    def test_final_row_missing_cells(self, tmp_path_factory, data, shape):
        n_columns, n_rows, chunk_rows = shape
        tmp_path = tmp_path_factory.mktemp("truncated")
        header = [f"c{i}" for i in range(n_columns)]
        rows = _rows(data.draw, n_columns, n_rows)
        keep = data.draw(st.integers(min_value=1, max_value=n_columns - 1))
        # Simulate a torn tail write: the last row loses its trailing cells.
        lines = [",".join(header)] + [",".join(r) for r in rows[:-1]]
        lines.append(",".join(["1"] * keep))
        path = _write(tmp_path, lines)
        # Physical row number: header is row 1, the torn row is the last.
        _assert_typed_error(
            path, chunk_rows,
            rf"row width {keep} does not match header width {n_columns} "
            rf"\(row {n_rows + 1}",
        )


class TestWrongColumnCountMidFile:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), shape=csv_shape, extra=st.integers(1, 3))
    def test_wide_row_mid_file(self, tmp_path_factory, data, shape, extra):
        n_columns, n_rows, chunk_rows = shape
        tmp_path = tmp_path_factory.mktemp("wide")
        header = [f"c{i}" for i in range(n_columns)]
        rows = _rows(data.draw, n_columns, n_rows)
        position = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
        rows[position] = ["9"] * (n_columns + extra)
        path = _write(tmp_path, [",".join(header)] + [",".join(r) for r in rows])
        _assert_typed_error(
            path, chunk_rows,
            rf"row width {n_columns + extra} does not match header width "
            rf"{n_columns} \(row {position + 2}",
        )


class TestInvalidUtf8:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        data=st.data(),
        shape=csv_shape,
        junk=st.binary(min_size=1, max_size=4).filter(
            lambda b: any(byte >= 0x80 for byte in b)
        ),
    )
    def test_undecodable_bytes_surface_as_table_error(
        self, tmp_path_factory, data, shape, junk
    ):
        n_columns, n_rows, chunk_rows = shape
        tmp_path = tmp_path_factory.mktemp("utf8")
        header = ",".join(f"c{i}" for i in range(n_columns))
        rows = [",".join(r) for r in _rows(data.draw, n_columns, n_rows)]
        position = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
        raw = ("\n".join([header] + rows) + "\n").encode()
        lines = raw.split(b"\n")
        lines[position + 1] = b"\xff\xfe" + junk + lines[position + 1]
        path = tmp_path / "fuzz.csv"
        path.write_bytes(b"\n".join(lines))
        # Buffered text decoding may attribute the failure to an earlier
        # row than the corrupted one (the decoder reads ahead), so the
        # contract is: a TableError naming UTF-8 and *a* row, never a bare
        # UnicodeDecodeError.
        _assert_typed_error(path, chunk_rows, r"is not valid UTF-8 .*row \d+")


class TestMixedTypeColumns:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(data=st.data(), shape=csv_shape)
    def test_mixed_type_columns_parse_without_errors(
        self, tmp_path_factory, data, shape
    ):
        n_columns, n_rows, chunk_rows = shape
        tmp_path = tmp_path_factory.mktemp("mixed")
        header = [f"c{i}" for i in range(n_columns)]
        rows = _rows(data.draw, n_columns, n_rows)
        path = _write(tmp_path, [",".join(header)] + [",".join(r) for r in rows])
        table = ChunkedCsvReader(path, chunk_rows=chunk_rows).read()
        assert table.n_rows == n_rows
        # The streaming path yields the same rows and inferred schema.
        reader = ChunkedCsvReader(path, chunk_rows=chunk_rows)
        streamed = sum(chunk.n_rows for chunk in reader.chunks())
        assert streamed == n_rows
        assert [c.dtype for c in reader.schema] == [c.dtype for c in table.schema]
        for column in table.schema:
            values = table.column_values(column.name)
            assert len(values) == n_rows
            if values.dtype.kind == "f":
                assert not np.isinf(values).any()
