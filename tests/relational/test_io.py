"""Tests for repro.relational.io (CSV round-trips)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.exceptions import TableError
from repro.relational.io import read_csv, write_csv
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, NULL
from repro.streaming.chunks import InMemoryTableStream


class TestReadCsv:
    def test_round_trip(self, tmp_path):
        table = Table.from_dict(
            "t", {"id": [1, 2, 3], "x": [1.5, None, 3.5], "name": ["a", "b", "c"]}
        )
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.name == "t"
        assert loaded.schema["id"].dtype is DataType.INT
        assert loaded.schema["x"].dtype is DataType.FLOAT
        assert loaded.cell(1, "x") is NULL
        assert table.equals(loaded)

    def test_key_and_label_roles(self, tmp_path):
        path = tmp_path / "roles.csv"
        path.write_text("id,m,x\n1,0,2.0\n2,1,3.0\n", encoding="utf-8")
        table = read_csv(path, key_columns=["id"], label_column="m")
        assert table.schema["id"].is_key
        assert table.schema["m"].is_label

    def test_custom_name_and_delimiter(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("a;b\n1;2\n", encoding="utf-8")
        table = read_csv(path, name="custom", delimiter=";")
        assert table.name == "custom"
        assert table.cell(0, "b") == 2

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TableError):
            read_csv(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TableError):
            read_csv(path)

    def test_null_literals(self, tmp_path):
        path = tmp_path / "nulls.csv"
        path.write_text("a,b\nnull,1\nNA,2\n,3\n", encoding="utf-8")
        table = read_csv(path)
        assert all(v is NULL for v in table.column("a"))

    def test_write_creates_parent_directories(self, tmp_path):
        table = Table.from_dict("t", {"a": [1]})
        path = tmp_path / "nested" / "dir" / "t.csv"
        write_csv(table, path)
        assert path.exists()


class TestUtf8:
    """CSV files are UTF-8 whatever the locale, and a byte-order mark is no part of a name."""

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffid,b\n1,2\n".encode("utf-8"))
        table = read_csv(path, key_columns=["id"])
        assert table.schema.names == ["id", "b"]
        assert table.schema["id"].is_key

    def test_non_ascii_round_trips_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "cafe.csv"
        path.write_bytes("name,x\r\ncaf\u00e9,1\r\n".encode("utf-8"))  # csv.writer's line ends
        script = (
            "import sys; from repro.relational.io import read_csv, write_csv; "
            "table = read_csv(sys.argv[1]); write_csv(table, sys.argv[2]); "
            "print(ascii(read_csv(sys.argv[2]).column('name')))"
        )
        env = dict(
            os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
            PYTHONPATH=str(Path(repro.__file__).parents[1]),
        )
        copy = tmp_path / "copy.csv"
        done = subprocess.run(
            [sys.executable, "-c", script, str(path), str(copy)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ascii(["caf\u00e9"])
        assert copy.read_bytes() == path.read_bytes()


class TestStringTypedRoundTrip:
    """STRING values spelled like another type survive write → read intact."""

    @pytest.mark.parametrize(
        "value", ["5", "-3", "+7", "1.5", "1e3", "-2.5e-4", "true", "False", "null", "NA"]
    )
    def test_typed_looking_string_stays_string(self, tmp_path, value):
        schema = Schema([Column("s", DataType.STRING)])
        table = Table.from_rows("t", schema, [[value], ["plain"]])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.schema["s"].dtype is DataType.STRING
        assert loaded.cell(0, "s") == value

    def test_mixed_string_column_round_trip(self, tmp_path):
        schema = Schema([Column("s", DataType.STRING), Column("x", DataType.INT)])
        table = Table.from_rows(
            "t", schema,
            [["5", 1], ["abc", 2], ["true", 3], [NULL, 4], ["\\slash", 5]],
        )
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert table.equals(loaded)
        assert loaded.schema["s"].dtype is DataType.STRING
        assert loaded.schema["x"].dtype is DataType.INT

    def test_numeric_columns_unaffected(self, tmp_path):
        table = Table.from_dict("t", {"a": [5, -3], "b": [1.5, None]})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        text = path.read_text()
        assert "\\" not in text  # only STRING columns get the escape
        loaded = read_csv(path)
        assert loaded.schema["a"].dtype is DataType.INT
        assert loaded.schema["b"].dtype is DataType.FLOAT
        assert table.equals(loaded)


class TestStreamingWriteCsv:
    def test_chunk_stream_write_matches_table_write(self, tmp_path):
        schema = Schema([Column("s", DataType.STRING), Column("x", DataType.FLOAT)])
        table = Table.from_rows(
            "t", schema,
            [["5", 1.0], ["null", 2.5], ["abc", None], [NULL, 4.0], ["true", 5.0]],
        )
        resident_path = tmp_path / "resident.csv"
        streamed_path = tmp_path / "streamed.csv"
        write_csv(table, resident_path)
        write_csv(InMemoryTableStream(table, chunk_rows=2), streamed_path)
        assert streamed_path.read_text() == resident_path.read_text()

    def test_chunk_stream_round_trip(self, tmp_path):
        table = Table.from_dict(
            "t", {"id": list(range(10)), "x": [float(i) / 3 for i in range(10)]}
        )
        path = tmp_path / "t.csv"
        write_csv(InMemoryTableStream(table, chunk_rows=3), path)
        loaded = read_csv(path, name="t")
        assert table.equals(loaded)
