"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.hospital import (
    hospital_column_matches,
    hospital_integrated_dataset,
    hospital_row_matches,
    hospital_tables,
)
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_dataset
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.metadata.mappings import ScenarioType
from repro.parallel import pool as parallel_pool
from repro.relational.types import NULL, is_null, parse_cell
from repro.streaming.ingest import ParsedColumnBlock, parse_cell_block


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def fan_out_every_block(monkeypatch):
    """Every block map that may fan out does: the break-even of
    ``repro.parallel.should_parallelize`` drops to 0 priced multiply-adds,
    so worker-count parity suites on small shapes still compare the pool
    with the plain loop (CSR work and one worker still stay inline)."""
    monkeypatch.setattr(parallel_pool, "_break_even", 0.0)


@pytest.fixture
def hospital():
    """The running example's source tables (S1, S2)."""
    return hospital_tables()


@pytest.fixture
def hospital_matches():
    return hospital_column_matches(), hospital_row_matches()


@pytest.fixture
def hospital_dataset():
    """The running example integrated with a full outer join (Figure 4)."""
    return hospital_integrated_dataset(ScenarioType.FULL_OUTER_JOIN)


@pytest.fixture(params=list(ScenarioType), ids=lambda s: s.value)
def scenario_dataset(request):
    """A small integrated dataset for each of the four Table I scenarios."""
    spec = ScenarioSpec(
        scenario=request.param,
        base_rows=25,
        other_rows=18,
        base_features=3,
        other_features=4,
        overlap_rows=9,
        overlap_columns=1,
        seed=7,
    )
    return generate_scenario_dataset(spec)


@pytest.fixture
def synthetic_redundant_dataset():
    """A synthetic two-silo dataset with both redundancy axes enabled."""
    spec = SyntheticSiloSpec(
        base_rows=120,
        base_columns=3,
        other_rows=24,
        other_columns=8,
        redundancy_in_target=True,
        redundancy_in_sources=True,
        seed=3,
    )
    return generate_integrated_pair(spec)


def _block_values(block):
    """Every bucket of a parsed block back as python values, by position."""
    values = [None] * block.n
    for pos in np.nonzero(block.null_mask)[0]:
        values[pos] = NULL
    for pos, val in zip(block.bool_pos.tolist(), block.bool_vals.tolist()):
        values[pos] = bool(val)
    for pos, val in zip(block.int_pos.tolist(), block.int_vals.tolist()):
        values[pos] = int(val)
    for pos, val in zip(block.float_pos.tolist(), block.float_vals.tolist()):
        values[pos] = float(val)
    for pos, val in zip(block.str_pos.tolist(), block.str_vals):
        values[pos] = val
    for pos, val in block.extra:
        values[pos] = val
    return values


def _assert_matches_scalar_parser(cells, parse=parse_cell_block):
    """``parse(cells)`` is ``[parse_cell(c) for c in cells]``, value and type."""
    block = parse(cells)
    for cell, got, want in zip(cells, _block_values(block), map(parse_cell, cells)):
        if is_null(want):
            assert got is NULL, (cell, got)
        else:
            assert got == want and type(got) is type(want), (cell, got, want)
    return block


@pytest.fixture(scope="session")
def assert_matches_scalar_parser():
    """The cell-for-cell parity check of the CSV kernel, shared by the
    ingest, work-bound and property suites."""
    return _assert_matches_scalar_parser


def _assert_same_buckets(got, want):
    """Same positions, dtypes and bits in every bucket, same ``str_vals`` and ``extra``."""
    for name in ParsedColumnBlock.__slots__:
        have, expect = getattr(got, name), getattr(want, name)
        if isinstance(expect, np.ndarray):
            assert have.dtype == expect.dtype and have.tobytes() == expect.tobytes(), name
        else:
            assert have == expect, name


@pytest.fixture(scope="session")
def assert_same_buckets():
    """Bitwise equality of two parsed column blocks, shared by the ingest suites."""
    return _assert_same_buckets
