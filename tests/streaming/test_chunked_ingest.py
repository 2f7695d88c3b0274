"""Chunked CSV ingest parity: ChunkedCsvReader vs the materialized read_csv."""

import csv
import itertools
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import SchemaError, TableError
from repro.streaming import ingest
from repro.relational.io import _protect_string, read_csv, write_csv
from repro.relational.table import Table
from repro.relational.types import NULL, DataType, infer_type, is_null, parse_cell
from repro.streaming.chunks import InMemoryTableStream
from repro.streaming.ingest import ChunkedCsvReader, parse_cell_block

CHUNK_SIZES = (1, 7, 10_000)

#: Cells where numpy's C converters and ``float()``/``int()`` could part ways:
#: the C tier must give each the reference value or defer it.
ADVERSARIAL_CELLS = [
    " 1.5", "1e400", "-0", "inf", "-nan", "1_000", "0003", "9223372036854775808",
    "\u0661", "3.0", "1e3", "\x1c1", "1.5\x1f",
]

MESSY_CELLS = [
    "", "null", "NA", "nan", "-nan", "inf", "-inf", "true", "FALSE", "0", "-0",
    "+5", "007", "--5", "9223372036854775807", "9223372036854775808",
    "9999999999999999999999999", "1e3", "1E-4", ".5", "5.", "abc", "a b",
    " spaced ", "0x10", "None", "TRUE", "12.0", "12.5", "\\null", "\\x",
    "café", "5 5",
    # A trailing NUL survives the replay file (numpy "U" arrays would drop
    # it); csv.reader rejects NUL before Python 3.11.
    *(["nul\x00"] if sys.version_info >= (3, 11) else []),
    *ADVERSARIAL_CELLS,
]

#: The adversarial cells the C tier leaves to ``csv.reader`` + ``parse_cell_block``.
C_TIER_DEFERS = {"1_000", "\u0661", "\x1c1", "1.5\x1f"}


def c_tier_block(cells):
    """The C tier's block for a one-column plain block of ``cells``, or None if it defers."""
    lines = [cell + "\r\n" for cell in cells]
    blocks = ingest._parse_plain(lines, 1, ",") if ingest._is_plain(lines) else None
    return None if blocks is None else blocks[0]


def replay_records(reader):
    """The bytes of every record of ``reader``'s replay file."""
    replay = reader._replay
    return [os.pread(replay._file.fileno(), length, start) for start, length in replay._spans]


@pytest.fixture
def c_tier_accepted(monkeypatch):
    """How many blocks the C tier parsed while the fixture is live."""
    accepted = []
    parse_plain = ingest._parse_plain

    def counting(*args):
        blocks = parse_plain(*args)
        accepted.append(blocks is not None)
        return blocks

    monkeypatch.setattr(ingest, "_parse_plain", counting)
    return accepted


@pytest.fixture
def no_c_tier(monkeypatch):
    """Call to turn the C tier off: ``np.loadtxt`` then rejects every block."""

    def refuse(*args, **kwargs):
        raise ValueError("C tier off")

    return lambda: monkeypatch.setattr(np, "loadtxt", refuse)


def write_tiers_csv(path):
    """Plain numeric blocks, then a NULL, a bool, a blank line, a quoted field
    with an embedded newline and an LF blank line among more plain rows."""

    def plain(rows):
        return [f"{i},{i * 0.5},{i % 3}\r\n" for i in rows]

    text = "".join([
        "k,x,s\r\n", *plain(range(20)),
        "20,,1\r\n",              # a NULL
        "21,2.5,true\r\n",        # a bool
        "\r\n",                   # a blank line: its chunk is topped up
        *plain(range(22, 32)),
        '32,3.5,"a\r\nb"\r\n',  # a quoted field with an embedded newline
        "\n", *plain(range(33, 45)),
    ])
    path.write_bytes(text.encode())
    return path


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCellBlock:
    def test_matches_scalar_parser_cell_for_cell(self, assert_matches_scalar_parser):
        flags = assert_matches_scalar_parser(MESSY_CELLS).flags
        assert flags.seen_str and flags.seen_float and flags.seen_int and flags.seen_bool

    def test_underscore_grouped_integers_are_ints(self, assert_matches_scalar_parser):
        """``int()`` reads ``1_000``; so must every path of the kernel (the
        parent's string-kernel classifier cast it to float 1000.0)."""
        mixed = assert_matches_scalar_parser(["1_000", "2.5", "3"])
        assert mixed.int_pos.tolist() == [0, 2] and mixed.int_vals.tolist() == [1000, 3]
        assert mixed.float_pos.tolist() == [1]
        grouped = assert_matches_scalar_parser(["1_000"] * 3)
        assert grouped.flags.infer() is DataType.INT is infer_type(["1_000"] * 3)
        # ... also when another cell keeps the column off the sweeps
        for other in ("abc", "", "true", "12.0", "\\5", "\u00b2"):
            assert_matches_scalar_parser(["1_000", other, "-2_0", "1_0.5"])

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_underscore_grouped_column_reads_as_int(self, tmp_path, chunk_rows):
        path = _write(tmp_path, "grouped.csv", "n,x\n1_000,1.5\n2_500,\n-3,2_0.5\n")
        for table in (read_csv(path), ChunkedCsvReader(path, chunk_rows=chunk_rows).read_table()):
            assert table.schema["n"].dtype is DataType.INT
            assert table.column("n") == [1000, 2500, -3]
            assert table.schema["x"].dtype is DataType.FLOAT
            assert table.column("x") == [1.5, NULL, 20.5]

    def test_empty_block(self):
        block = parse_cell_block([])
        assert block.n == 0
        assert not block.flags.any_value

    @pytest.mark.parametrize("cell", ADVERSARIAL_CELLS)
    def test_c_tier_gives_the_reference_buckets_or_defers(
        self, cell, assert_matches_scalar_parser, assert_same_buckets
    ):
        """A plain block the C tier accepts holds ``parse_cell_block``'s buckets,
        bit for bit; a cell numpy and ``float()`` could read apart is deferred."""
        for cells in ([cell], [cell, "2.5", cell], ["7", cell, "-3"]):
            block = c_tier_block(cells)
            if cell in C_TIER_DEFERS:
                assert block is None
                continue
            assert_matches_scalar_parser(cells, parse=lambda _: block)
            assert_same_buckets(block, parse_cell_block(cells))


class TestChunkedReaderParity:
    @pytest.fixture(
        params=[
            *((kind, eol) for kind in ("messy", "numeric") for eol in ("\n", "\r\n")),
            ("tiers", None),
        ],
        ids=["messy-lf", "messy-crlf", "numeric-lf", "numeric-crlf", "tiers"],
    )
    def messy_csv(self, tmp_path, request):
        """The messy cells in one column, or a numeric file whose blocks take
        both parse tiers, written with LF and with CRLF line endings; or the
        file of :func:`write_tiers_csv`."""
        kind, eol = request.param
        if kind == "tiers":
            return write_tiers_csv(tmp_path / "tiers.csv")
        header = ["k", "num", "mix", "text", "flag"]
        rows = []
        if kind == "messy":
            for i, cell in enumerate(MESSY_CELLS):
                rows.append(
                    [str(i), f"{i}.25", cell, f"name {i % 5}", "true" if i % 2 else "false"]
                )
        else:
            for i in range(60):
                cell = ADVERSARIAL_CELLS[i // 5 % len(ADVERSARIAL_CELLS)] if i % 5 == 0 else str(i)
                rows.append([str(i), f"{i}.25", cell, str(i * 3), str(i % 2)])
        path = tmp_path / f"{kind}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator=eol)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_stream_equals_read_csv(self, messy_csv, chunk_rows):
        label = "s" if messy_csv.name == "tiers.csv" else "flag"  # a column of the file
        full = read_csv(messy_csv, key_columns=["k"], label_column=label)
        reader = ChunkedCsvReader(
            messy_csv, key_columns=["k"], label_column=label, chunk_rows=chunk_rows
        )
        assert reader.schema == full.schema
        assert reader.n_rows == full.n_rows
        streamed = reader.read_table()
        assert streamed.equals(full)
        # NULL positions agree column by column.
        for name in full.schema.names:
            assert np.array_equal(
                streamed.column_valid(name), full.column_valid(name)
            )

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_chunk_offsets_and_sizes(self, messy_csv, chunk_rows):
        reader = ChunkedCsvReader(messy_csv, chunk_rows=chunk_rows)
        offset = 0
        chunks = list(reader.chunks())
        assert len(chunks) == reader.chunk_count == -(-reader.n_rows // chunk_rows)
        for index, chunk in enumerate(chunks):
            assert chunk.offset == offset
            assert chunk.n_rows == min(chunk_rows, reader.n_rows - offset)
            assert_same_chunk(reader.chunk_at(index), chunk)
            offset += chunk.n_rows
        assert offset == reader.n_rows
        with pytest.raises(IndexError):
            reader.chunk_at(reader.chunk_count)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_same_chunks_replay_bytes_and_table_without_the_c_tier(
        self, messy_csv, chunk_rows, no_c_tier
    ):
        with_c = ChunkedCsvReader(messy_csv, chunk_rows=chunk_rows)
        chunks, records, table = list(with_c.chunks()), replay_records(with_c), read_csv(messy_csv)
        no_c_tier()
        without = ChunkedCsvReader(messy_csv, chunk_rows=chunk_rows)
        without.scan()
        assert replay_records(without) == records
        assert without.chunk_count == len(chunks)
        for got, want in zip(without.chunks(), chunks):
            assert_same_chunk(got, want)
        assert read_csv(messy_csv).equals(table)

    def test_types_and_roles(self, tmp_path):
        path = _write(tmp_path, "t.csv", "id,x,name,b\n1,1.5,ann,true\n2,,na,false\n")
        table = read_csv(path, key_columns=["id"], label_column="b")
        assert table.schema["id"].dtype is DataType.INT
        assert table.schema["x"].dtype is DataType.FLOAT
        assert table.schema["name"].dtype is DataType.STRING
        assert table.schema["b"].dtype is DataType.BOOL
        assert table.schema["id"].is_key and table.schema["b"].is_label
        assert table.cell(1, "x") is NULL
        assert table.cell(1, "name") is NULL

    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path, "empty_rows.csv", "a,b\n")
        table = read_csv(path)
        assert table.n_rows == 0
        assert table.schema["a"].dtype is DataType.FLOAT  # all-NULL default
        reader = ChunkedCsvReader(path)
        assert reader.n_rows == 0
        assert list(reader.chunks()) == []


class TestAcrossTiers:
    """Blocks that take the C tier and blocks that take ``csv.reader`` read as
    if the whole file took ``csv.reader``; the parity suite above runs on the
    same file."""

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_cells_and_tiers(self, tmp_path, chunk_rows, c_tier_accepted):
        path = write_tiers_csv(tmp_path / "tiers.csv")
        full = read_csv(path, key_columns=["k"])
        assert full.schema["s"].dtype is DataType.STRING
        assert full.column("s")[19:23] == ["1", "1", "True", "1"]
        assert full.cell(32, "s") == "a\r\nb" and full.cell(20, "x") is NULL
        assert full.n_rows == 45
        # The C tier takes the plain blocks up to the one holding the NULL
        # (row 20); numpy rejects that one, and csv.reader reads the rest.
        c_tier_accepted.clear()
        assert ChunkedCsvReader(path, chunk_rows=chunk_rows).n_rows == 45
        expected = [True] * (20 // chunk_rows) + [False] if chunk_rows <= 20 else []
        assert c_tier_accepted == expected


    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_a_lone_cr_ends_a_line(self, tmp_path, chunk_rows):
        """The text reader ends a line at a lone CR, so the bytes read ahead of
        it do not take a block holding one: its rows are csv.reader's."""
        rows = [f"{i},{i}.5" for i in range(20)]
        text = "k,x\r\n" + "\r\n".join(rows[:11]) + "\r" + "\r\n".join(rows[11:]) + "\r\n"
        path = tmp_path / "lone_cr.csv"
        path.write_bytes(text.encode())
        table = read_csv(path)
        assert table.column("k") == list(range(20))
        assert ChunkedCsvReader(path, chunk_rows=chunk_rows).read_table().equals(table)

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    @pytest.mark.parametrize("digits", [30, 700, 5000])
    def test_an_integer_of_any_length_is_an_int(self, tmp_path, no_c_tier, digits, limit):
        """An integer literal longer than ``int()`` reads under
        ``sys.get_int_max_str_digits()`` is still an INT: past int64 it fails
        to store in both tiers, and a STRING column keeps its digits."""
        literal = "1" * digits
        path = tmp_path / "long.csv"
        path.write_text(f"a,b\r\n{literal},2.5\r\n3,4.5\r\n")
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(f"a\r\n{literal}\r\nx\r\n")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert Decimal(parse_cell(literal)) == Decimal(literal)
            assert infer_type([literal, "3"]) is DataType.INT
            for tier in ("C", "csv.reader"):
                if tier == "csv.reader":
                    no_c_tier()
                with pytest.raises(SchemaError, match="overflows the int column storage"):
                    read_csv(path)
                assert read_csv(mixed).column("a") == [literal, "x"], tier
        finally:
            sys.set_int_max_str_digits(saved)


class TestLenientInt64Parse:
    """From numpy 1.23 until its deprecation expired, an int64 ``loadtxt``
    read ``"3.0"`` as 3; the C tier must not take such a numpy's int64 values."""

    @pytest.fixture
    def lenient_loadtxt(self, monkeypatch):
        loadtxt = np.loadtxt

        def lenient(lines, dtype=np.float64, **kwargs):
            if np.dtype(dtype) != np.int64:
                return loadtxt(lines, dtype=dtype, **kwargs)
            warnings.warn("loadtxt(): parsing an integer via a float", DeprecationWarning)
            return loadtxt(lines, dtype=np.float64, **kwargs).astype(np.int64)

        monkeypatch.setattr(np, "loadtxt", lenient)

    def test_probe_reads_the_installed_parse(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                np.loadtxt(["3.0"], dtype=np.int64, comments=None, quotechar=None)
            except ValueError:
                strict = True
            else:
                strict = False
        assert ingest._STRICT_INT64 is ingest._int64_parse_is_strict() is strict

    @pytest.mark.parametrize("cells", [["3.0"] * 3, ["7", "1e3", "-2"], ["12.0", "4"]])
    def test_float_spellings_stay_floats(
        self, lenient_loadtxt, monkeypatch, cells, assert_matches_scalar_parser, assert_same_buckets
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the caller's filters do not change the answer
            assert not ingest._int64_parse_is_strict()
        monkeypatch.setattr(ingest, "_STRICT_INT64", False)
        block = c_tier_block(cells)
        assert_matches_scalar_parser(cells, parse=lambda _: block)
        assert_same_buckets(block, parse_cell_block(cells))
        assert block.float_pos.size  # the reference reads every such spelling as a FLOAT


def assert_same_chunk(got, want):
    assert got.offset == want.offset and got.n_rows == want.n_rows
    assert got.schema == want.schema
    for name in want.schema.names:
        assert np.array_equal(got.column_valid(name), want.column_valid(name))
        values, expected = got.column_values(name), want.column_values(name)
        assert values.dtype == expected.dtype
        if expected.dtype.kind == "f":  # bit for bit: a NULL's NaN is not == itself
            assert values.tobytes() == expected.tobytes()
        else:
            assert values.tolist() == expected.tolist()


class TestReplay:
    """``scan`` is the only parse; chunks are typed from its replay file."""

    @pytest.fixture
    def numbers_csv(self, tmp_path):
        rows = "".join(f"{i},{i * 0.5},{'' if i % 3 else 'x'}\n" for i in range(40))
        return _write(tmp_path, "numbers.csv", "k,v,s\n" + rows)

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every handle the reader opens: CSV files and replay files."""
        handles = []

        def recording(opener):
            def wrapper(*args, **kwargs):
                handles.append(opener(*args, **kwargs))
                return handles[-1]

            return wrapper

        monkeypatch.setattr(Path, "open", recording(Path.open))
        monkeypatch.setattr(
            ingest.tempfile, "TemporaryFile", recording(ingest.tempfile.TemporaryFile)
        )
        return handles

    def test_file_is_opened_once(self, numbers_csv, opened):
        reader = ChunkedCsvReader(numbers_csv, chunk_rows=7)
        reader.scan()
        first, second = list(reader.chunks()), list(reader.chunks())
        table = reader.read_table()
        # one handle on the CSV file, one on the replay file
        assert [handle.name for handle in opened].count(str(numbers_csv)) == 1
        assert len(opened) == 2
        assert table.n_rows == 40 and len(first) == len(second) == 6

    def test_interleaved_iterators_yield_equal_chunks(self, numbers_csv):
        expected = list(ChunkedCsvReader(numbers_csv, chunk_rows=7).chunks())
        reader = ChunkedCsvReader(numbers_csv, chunk_rows=7)
        ahead, behind = reader.chunks(), reader.chunks()
        got_ahead, got_behind = [next(ahead)], []
        for chunk in behind:  # the two iterators alternate, one chunk apart
            got_behind.append(chunk)
            got_ahead.extend(itertools.islice(ahead, 1))
        for got in (got_ahead, got_behind):
            assert len(got) == len(expected)
            for chunk, want in zip(got, expected):
                assert_same_chunk(chunk, want)

    def test_concurrent_first_reads_parse_once(self, numbers_csv, opened):
        """Workers that all reach an unscanned reader at once share one scan."""
        expected = list(ChunkedCsvReader(numbers_csv, chunk_rows=7).chunks())
        opened.clear()
        reader = ChunkedCsvReader(numbers_csv, chunk_rows=7)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(reader.chunk_at, i % len(expected)) for i in range(48)]
                got = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        assert [handle.name for handle in opened].count(str(numbers_csv)) == 1
        assert len(opened) == 2
        for i, chunk in enumerate(got):
            assert_same_chunk(chunk, expected[i % len(expected)])

    def test_rewriting_the_file_after_scan_changes_nothing(self, numbers_csv):
        reader = ChunkedCsvReader(numbers_csv, chunk_rows=7)
        expected = read_csv(numbers_csv)
        reader.scan()
        numbers_csv.write_text("k,v,s\nchanged,1,2\n", encoding="utf-8")
        assert reader.read_table().equals(expected)
        assert reader.n_rows == expected.n_rows

    @pytest.mark.parametrize(
        "text", ["a,b\n1,2\n1,2,3\n", b"a,b\n1,\xff\n"], ids=["width", "utf8"]
    )
    def test_failed_scan_leaves_no_open_file(self, tmp_path, opened, text):
        path = tmp_path / "bad.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        opened.clear()
        reader = ChunkedCsvReader(path, chunk_rows=1)
        with pytest.raises(TableError):
            reader.scan()
        assert len(opened) == 2 and all(handle.closed for handle in opened)


def _numeric_lines(n):
    return b"".join(b"%d,%d.5\r\n" % (i, i) for i in range(n))


#: Malformed files, as bytes, by the error the seed reader raises on them.
SEED_ERROR_CASES = {
    "width_after_blank_lines": lambda: (
        b"a,b\r\n" + _numeric_lines(9) + b"\r\n\n" + _numeric_lines(5)
        + b"1,2,3\r\n" + _numeric_lines(3)
    ),
    "utf8_in_header": lambda: b"a,\xff\r\n" + _numeric_lines(3),
    # past the text decoder's first 8 KiB read, so the row it names depends on the read-ahead
    "utf8_mid_file": lambda: (
        b"a,b\r\n" + _numeric_lines(2_000) + b"7,\xff\r\n" + _numeric_lines(500)
    ),
    # csv.reader reads the rest of a file after a block numpy rejected
    "width_after_a_null": lambda: b"a,b\r\n1,\r\n" + _numeric_lines(20) + b"1,2,3\r\n",
    "utf8_after_a_null": lambda: (
        b"a,b\r\n1,\r\n" + _numeric_lines(2_000) + b"7,\xff\r\n" + _numeric_lines(500)
    ),
    "over_limit_field": lambda: (
        b"a,b\r\n" + _numeric_lines(9) + b"1," + b"1" * (csv.field_size_limit() + 1) + b"\r\n"
    ),
}


def seed_reader_error(path):
    """The message the seed reader raised for ``path`` — one ``csv.reader``
    over the whole file, rows counted as records — or None."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return f"CSV file {path} is empty"
        except UnicodeDecodeError as exc:
            return f"CSV file {path} is not valid UTF-8 (header, row 1): {exc}"
        row_number = 1
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return None
            except UnicodeDecodeError as exc:
                return f"CSV file {path} is not valid UTF-8 near row {row_number + 1}: {exc}"
            except csv.Error as exc:
                return f"CSV file {path} is malformed at row {row_number + 1}: {exc}"
            row_number += 1
            if row and len(row) != len(header):
                return (
                    f"CSV row width {len(row)} does not match header width "
                    f"{len(header)} (row {row_number} of {path})"
                )


class TestSeedErrorParity:
    def test_empty_file_raises(self, tmp_path):
        path = _write(tmp_path, "empty.csv", "")
        with pytest.raises(TableError, match="is empty"):
            read_csv(path)
        with pytest.raises(TableError, match="is empty"):
            ChunkedCsvReader(path).scan()

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_width_mismatch_raises(self, tmp_path, chunk_rows):
        path = _write(tmp_path, "bad.csv", "a,b\n1,2\n1,2,3\n")
        with pytest.raises(
            TableError, match="row width 3 does not match header width 2"
        ):
            ChunkedCsvReader(path, chunk_rows=chunk_rows).read()

    def test_read_csv_width_mismatch(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "a,b\n1,2,3\n")
        with pytest.raises(TableError):
            read_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "blank.csv", "a,b\n1,2\n\n3,4\n")
        assert read_csv(path).n_rows == 2

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    @pytest.mark.parametrize("case", sorted(SEED_ERROR_CASES))
    def test_message_and_row_are_the_seed_readers(self, tmp_path, case, chunk_rows):
        """Both consumption modes and ``read_csv`` raise the seed reader's
        message, row number included."""
        path = tmp_path / f"{case}.csv"
        path.write_bytes(SEED_ERROR_CASES[case]())
        expected = seed_reader_error(path)
        assert expected is not None
        for parse in (
            ChunkedCsvReader(path, chunk_rows=chunk_rows).scan,
            ChunkedCsvReader(path, chunk_rows=chunk_rows).read,
            lambda: read_csv(path),
        ):
            with pytest.raises(TableError) as excinfo:
                parse()
            assert str(excinfo.value) == expected

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    @pytest.mark.parametrize("c_tier", [True, False], ids=["c_tier", "csv_reader"])
    def test_integer_beyond_float_range_is_a_schema_error(
        self, tmp_path, chunk_rows, c_tier, no_c_tier
    ):
        """A 400-digit integer in a column that infers FLOAT: every parse
        raises the typed error ``coerce_value`` raises, not ``OverflowError``."""
        if not c_tier:
            no_c_tier()
        path = tmp_path / "overflow.csv"
        path.write_bytes(
            b"a,b\r\n" + _numeric_lines(9) + b"9," + b"9" * 400 + b"\r\n" + _numeric_lines(3)
        )
        reader = ChunkedCsvReader(path, chunk_rows=chunk_rows)
        for parse in (lambda: read_csv(path), reader.scan, lambda: reader.chunk_at(0)):
            with pytest.raises(SchemaError, match="beyond float range"):
                parse()


class TestNamedColumns:
    """A key or label column the header lacks is a SchemaError that names it."""

    @pytest.mark.parametrize("c_tier", [True, False], ids=["c_tier", "csv_reader"])
    @pytest.mark.parametrize(
        "text", ["a,b\n1,2.5\n3,4.5\n", 'a,b\n1,"x"\n3,4.5\n', "a,b\n"],
        ids=["plain", "quoted", "header_only"],
    )
    def test_absent_key_or_label_is_a_schema_error(self, tmp_path, text, c_tier, no_c_tier):
        if not c_tier:
            no_c_tier()
        path = _write(tmp_path, "roles.csv", text)
        for parse in (
            ChunkedCsvReader(path, key_columns=["zzz"], label_column="yyy").scan,
            ChunkedCsvReader(path, key_columns=["a", "zzz"], label_column="yyy").read,
            lambda: read_csv(path, key_columns=["zzz"], label_column="yyy"),
        ):
            with pytest.raises(SchemaError, match="no column 'zzz', 'yyy'"):
                parse()
        with pytest.raises(SchemaError, match="no column 'yyy'"):
            read_csv(path, key_columns=["a"], label_column="yyy")
        table = read_csv(path, key_columns=["a"], label_column="b")
        assert table.schema["a"].is_key and table.schema["b"].is_label


class TestWriteReadRoundTrip:
    def test_null_literal_strings_survive(self, tmp_path):
        table = Table.from_dict(
            "rt",
            {
                "s": ["null", "", "NA", "NaN", "none", "\\null", "\\x", "plain"],
                "x": [1.0, 2.0, NULL, 4.0, 5.0, 6.0, 7.0, 8.0],
            },
        )
        path = tmp_path / "rt.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.schema["s"].dtype is DataType.STRING
        assert loaded.column("s") == ["null", "", "NA", "NaN", "none", "\\null", "\\x", "plain"]
        assert loaded.cell(2, "x") is NULL  # real NULLs still round-trip as NULL
        assert table.equals(loaded)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_round_trip_through_chunked_reader(self, tmp_path, chunk_rows):
        table = Table.from_dict(
            "rt", {"s": ["na", "ok", "null"], "y": [0.5, NULL, 2.5]}
        )
        path = tmp_path / "rt2.csv"
        write_csv(table, path)
        loaded = ChunkedCsvReader(path, chunk_rows=chunk_rows).read_table()
        assert table.equals(loaded)

    def test_numeric_columns_unaffected(self, tmp_path):
        table = Table.from_dict("n", {"x": [1, 2, 3]})
        path = tmp_path / "n.csv"
        write_csv(table, path)
        assert path.read_text().splitlines()[1] == "1"


def write_csv_rowwise(table, path):
    """The parent's ``write_csv``: one ``Table.row()`` per row, one
    ``is_null`` per cell — the reference the columnar writer must match
    byte for byte."""
    if isinstance(table, Table):
        rows = table.rows()
    else:
        rows = (row for chunk in table.chunks() for row in chunk.to_table(table.name).rows())
    strings = {c.name for c in table.schema if c.dtype is DataType.STRING}
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        for row in rows:
            writer.writerow(
                ""
                if is_null(value)
                else _protect_string(value) if name in strings and isinstance(value, str) else value
                for name, value in zip(table.schema.names, row)
            )


class TestWriteCsvColumnar:
    def messy_table(self):
        n = len(MESSY_CELLS)
        return Table.from_dict(
            "messy",
            {
                "text": list(MESSY_CELLS),
                "sparse_text": [NULL if i % 4 == 0 else c for i, c in enumerate(MESSY_CELLS)],
                "i": [NULL if i % 5 == 0 else i - 7 for i in range(n)],
                "x": [NULL if i % 3 == 0 else (i - 9) / 7 for i in range(n)],
                "big": [2**62 + i for i in range(n)],
                "tiny": [NULL if i % 6 == 0 else 10.0 ** (i - 20) for i in range(n)],
                "flag": [NULL if i % 7 == 0 else bool(i % 2) for i in range(n)],
                "all_null": [NULL] * n,
            },
            text={"dtype": DataType.STRING},
            sparse_text={"dtype": DataType.STRING},
        )

    def assert_same_bytes(self, table, tmp_path):
        got, want = tmp_path / "columnar.csv", tmp_path / "rowwise.csv"
        write_csv(table, got)
        write_csv_rowwise(table, want)
        assert got.read_bytes() == want.read_bytes()

    def test_messy_table(self, tmp_path):
        self.assert_same_bytes(self.messy_table(), tmp_path)

    def test_null_bearing_numeric_table(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500).round(4)
        table = Table.from_dict(
            "numeric",
            {
                "id": list(range(500)),
                "x": [NULL if i % 9 == 0 else float(v) for i, v in enumerate(x)],
                "count": [NULL if i % 11 == 0 else int(v * 100) for i, v in enumerate(x)],
                "whole": [float(i) for i in range(500)],
                "inf": [float("inf"), float("-inf")] * 250,
            },
        )
        self.assert_same_bytes(table, tmp_path)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_chunk_stream(self, tmp_path, chunk_rows):
        self.assert_same_bytes(InMemoryTableStream(self.messy_table(), chunk_rows), tmp_path)

    def test_empty_table(self, tmp_path):
        self.assert_same_bytes(self.messy_table().head(0), tmp_path)
