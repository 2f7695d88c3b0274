"""CSV ingest types a numeric column without string kernels.

Work bound (cells, not seconds): ``parse_cell_block`` hands a cell to the
``np.char`` classifier (``ParsedColumnBlock._classify``), to the scalar
``parse_cell`` loop (``_scalar_fallback``) or to ``np.char.lower`` only when
a ``float()`` / ``int()`` sweep rejected it. An all-float or all-int column
sends none; empty and ``NA`` cells in a numeric column are peeled by
literal and cost the other cells nothing; an integral spelling ``int()``
rejects (``"3.0"``) sends itself and no neighbour. One text cell does send
the column down the general path — with the reference's exact buckets.

The C tier (``np.loadtxt`` over a plain block of lines) is bounded the
same way: a NULL-free numeric block calls ``parse_cell_block`` for none of
its columns and splits none of its lines, and an integral spelling in a
float column fetches its own cell's text and no neighbour's. While a
file's integral columns stay integral, each block is one typed
``np.loadtxt``; a column whose type flips costs one rejected typed pass
per file.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.streaming import ingest
from repro.streaming.ingest import ChunkedCsvReader, ParsedColumnBlock, parse_cell_block

N = 2_048


@pytest.fixture
def cells_sent(monkeypatch):
    """Cells handed to each slow kernel while the fixture is live."""
    sent: Counter = Counter()

    def counting_method(name):
        inner = getattr(ParsedColumnBlock, name)

        def method(self, cells, positions):
            sent[name] += int(positions.size)
            return inner(self, cells, positions)

        return method

    for name in ("_classify", "_scalar_fallback"):
        monkeypatch.setattr(ParsedColumnBlock, name, counting_method(name))
    lower = np.char.lower

    def counting_lower(array):
        sent["lower"] += int(np.size(array))
        return lower(array)

    monkeypatch.setattr(np.char, "lower", counting_lower)
    return sent


def float_cells(n: int = N):
    """Four-decimal cells, none of them a whole number."""
    rng = np.random.default_rng(5)
    return [f"{w}.{f:04d}" for w, f in zip(rng.integers(-3, 4, n), rng.integers(1, 10_000, n))]


def test_float_column_is_swept(cells_sent):
    cells = float_cells()
    block = parse_cell_block(cells)
    assert not cells_sent
    assert block.float_pos.size == N and block.float_vals.tolist() == [float(c) for c in cells]


def test_int_column_is_swept(cells_sent):
    cells = [str(v) for v in np.random.default_rng(6).integers(-10**12, 10**12, N)]
    block = parse_cell_block(cells)
    assert not cells_sent
    assert block.int_pos.size == N and block.int_vals.tolist() == [int(c) for c in cells]


def test_null_literals_and_integral_spellings_cost_only_themselves(
    cells_sent, assert_matches_scalar_parser
):
    cells = float_cells()
    empties = range(0, N, 97)         # k NULL cells: "", " NA ", "null"
    integral = range(5, N, 211)       # j spellings float() reads as whole, int() rejects
    for n, pos in enumerate(empties):
        cells[pos] = ("", " NA ", "null")[n % 3]
    for pos in integral:
        cells[pos] = "3.0"
    block = assert_matches_scalar_parser(cells)
    assert cells_sent["_classify"] == len(integral)
    assert cells_sent["_scalar_fallback"] == 0
    short = sum(len(c.strip()) <= 5 for c in cells)
    assert cells_sent["lower"] <= short + len(integral) < N
    assert np.nonzero(block.null_mask)[0].tolist() == list(empties)
    assert block.float_pos.size == N - len(empties) and block.int_pos.size == 0


def test_bool_column_is_peeled(cells_sent, assert_matches_scalar_parser):
    cells = ["true", "FALSE", " True "] * 100
    block = assert_matches_scalar_parser(cells)
    assert not cells_sent
    assert block.bool_vals.tolist() == [True, False, True] * 100


def test_one_text_cell_still_gives_the_reference_buckets(cells_sent, assert_matches_scalar_parser):
    cells = float_cells(64) + ["7", "", "true", "12.0", "1_000"]
    cells[10] = "abc"
    block = assert_matches_scalar_parser(cells)
    # the two literals are peeled; every other cell takes the general path
    assert cells_sent["_classify"] == len(cells) - 2
    assert block.str_pos.tolist() == [10] and block.str_vals == ["abc"]
    assert block.flags.seen_str and block.flags.seen_int and block.flags.seen_bool


@pytest.fixture
def c_tier_work(monkeypatch):
    """Columns handed to ``parse_cell_block`` and lines split for cell text."""
    work: Counter = Counter()

    def counting(name):
        inner = getattr(ingest, name)

        def function(*args):
            work[name] += 1
            return inner(*args)

        return function

    for name in ("parse_cell_block", "_split_line"):
        monkeypatch.setattr(ingest, name, counting(name))
    return work


def numeric_lines(x_cells):
    """A plain block: an int key, the given float column and an int column, CRLF."""
    counts = np.random.default_rng(7).integers(-10**6, 10**6, len(x_cells))
    return [f"{i},{x},{c}\r\n" for i, (x, c) in enumerate(zip(x_cells, counts.tolist()))]


def test_numeric_block_takes_the_c_tier(tmp_path, c_tier_work, cells_sent):
    x = float_cells()
    path = tmp_path / "numeric.csv"
    path.write_text("k,x,n\r\n" + "".join(numeric_lines(x)), encoding="utf-8", newline="")
    table = ChunkedCsvReader(path, chunk_rows=N).read()
    assert not c_tier_work and not cells_sent
    assert [c.dtype.value for c in table.schema] == ["int", "float", "int"]
    assert table.column_values("x").tolist() == [float(c) for c in x]
    assert table.column_values("k").tolist() == list(range(N))


def test_integral_spellings_in_a_float_column_fetch_only_their_text(
    c_tier_work, cells_sent, assert_matches_scalar_parser, assert_same_buckets
):
    x = float_cells()
    integral = range(5, N, 211)  # k spellings float() reads as whole and int() rejects
    for pos in integral:
        x[pos] = "3.0"
    blocks = ingest._parse_plain(numeric_lines(x), 3, ",")
    assert c_tier_work == Counter(_split_line=len(integral))
    assert cells_sent["_classify"] == len(integral) and cells_sent["_scalar_fallback"] == 0
    block = assert_matches_scalar_parser(x, parse=lambda _: blocks[1])
    assert_same_buckets(block, parse_cell_block(x))


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """Every ``np.loadtxt`` call while the fixture is live, as its dtype:
    ``"typed"`` for a record of int64 and float64 fields."""
    calls = []
    loadtxt = np.loadtxt

    def counting(lines, dtype=np.float64, **kwargs):
        calls.append("typed" if np.dtype(dtype).names else np.dtype(dtype).name)
        return loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


def test_numeric_block_is_one_loadtxt(tmp_path, c_tier_work, loadtxt_calls):
    """While its integral columns stay integral, a NULL-free numeric file
    reads each block with one typed ``np.loadtxt`` and splits no line."""
    path = tmp_path / "numeric.csv"
    lines = numeric_lines(float_cells(3 * N))
    path.write_text("k,x,n\r\n" + "".join(lines), encoding="utf-8", newline="")
    reader = ChunkedCsvReader(path, chunk_rows=N)
    reader.scan()
    assert len(loadtxt_calls) == 3
    if ingest._STRICT_INT64:
        assert not c_tier_work
    assert [c.dtype.value for c in reader.schema] == ["int", "float", "int"]
    loadtxt_calls.clear()
    assert ChunkedCsvReader(path, chunk_rows=N).read().equals(reader.read_table())
    assert len(loadtxt_calls) == 3


@pytest.mark.skipif(not ingest._STRICT_INT64, reason="no int64 typed pass on this numpy")
def test_a_type_flip_costs_one_rejected_typed_pass(tmp_path, loadtxt_calls):
    """Column ``n`` is integral, then fractional for one block, then integral
    again: only the block where it flips pays a rejected typed pass."""
    lines = numeric_lines(float_cells(4 * N))
    lines[N + 3] = lines[N + 3].rsplit(",", 1)[0] + ",2.5\r\n"
    path = tmp_path / "flip.csv"
    path.write_text("k,x,n\r\n" + "".join(lines), encoding="utf-8", newline="")
    ChunkedCsvReader(path, chunk_rows=N).scan()
    # block 2: the rejected typed pass, the float64 pass, the int64 pass of k;
    # blocks 3-4: n is no longer guessed, so the typed pass and n's int64 pass
    assert loadtxt_calls == [
        "typed", "typed", "float64", "int64", "typed", "int64", "typed", "int64",
    ]
