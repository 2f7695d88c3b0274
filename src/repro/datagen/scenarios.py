"""Generators for the four Table I integration scenarios on relational tables.

These generators produce *small-to-medium* relational tables (they go
through :class:`repro.relational.Table`, so every cell is a Python value)
together with their DI metadata, and are used by tests, examples and the
Table I benchmark. For the large shape sweeps of Table III / Figure 5 use
:mod:`repro.datagen.synthetic`, which builds the factorized representation
directly from numpy arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.matrices.builder import IntegratedDataset, integrate_tables
from repro.metadata.entity_resolution import RowMatch
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.streaming.chunks import DEFAULT_CHUNK_ROWS, TableChunk, TableChunkStream


@dataclass
class ScenarioSpec:
    """Parameters of a two-silo integration scenario.

    ``overlap_rows`` is the number of entities present in both sources;
    ``overlap_columns`` the number of feature columns both sources store
    (besides the key), which creates source redundancy.
    """

    scenario: ScenarioType
    base_rows: int = 100
    other_rows: int = 60
    base_features: int = 4
    other_features: int = 5
    overlap_rows: int = 30
    overlap_columns: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        self.overlap_rows = min(self.overlap_rows, self.base_rows, self.other_rows)
        self.overlap_columns = min(self.overlap_columns, self.base_features, self.other_features)


def _feature_schema(prefix: str, n_features: int, shared: int, label: bool) -> Schema:
    columns = [Column("id", DataType.INT, is_key=True)]
    if label:
        columns.append(Column("label", DataType.INT, is_label=True))
    for i in range(shared):
        columns.append(Column(f"shared_{i}", DataType.FLOAT))
    for i in range(n_features - shared):
        columns.append(Column(f"{prefix}_{i}", DataType.FLOAT))
    return Schema(columns)


def generate_scenario_tables(
    spec: ScenarioSpec,
) -> Tuple[Table, Table, List[ColumnMatch], List[RowMatch], List[str]]:
    """Generate the two source tables plus their DI metadata.

    For union scenarios the two tables share the full feature schema (the
    HFL case); otherwise the base carries the label and ``base_features``
    columns, the other table carries ``other_features`` columns of which
    ``overlap_columns`` duplicate base columns (source redundancy).

    Tables are assembled column-array-at-a-time: entity-level values (label,
    shared features) are drawn once per entity from a dedicated stream and
    indexed by entity id, so overlapping entities carry identical values in
    both sources without per-row RNG construction.

    Returns ``(base, other, column_matches, row_matches, target_columns)``.
    """
    is_union = spec.scenario is ScenarioType.UNION
    shared = spec.base_features if is_union else spec.overlap_columns

    base_schema = _feature_schema("b", spec.base_features, shared, label=True)
    other_features = spec.base_features if is_union else spec.other_features
    other_schema = _feature_schema("o", other_features, shared, label=is_union)

    base_ids = np.arange(spec.base_rows, dtype=np.int64)
    if is_union:
        other_ids = np.arange(
            spec.base_rows, spec.base_rows + spec.other_rows, dtype=np.int64
        )
    else:
        other_ids = np.concatenate(
            [
                np.arange(spec.overlap_rows, dtype=np.int64),
                np.arange(
                    spec.base_rows,
                    spec.base_rows + spec.other_rows - spec.overlap_rows,
                    dtype=np.int64,
                ),
            ]
        )

    # Entity-level value streams, indexed by entity id (shared across tables).
    n_entities = spec.base_rows + spec.other_rows
    entity_rng = np.random.default_rng(spec.seed * 1_000_003 + 1)
    labels_all = entity_rng.integers(0, 2, size=n_entities)
    shared_all = np.round(entity_rng.standard_normal((n_entities, shared)), 4)
    # Table-local feature draws (not shared between sources).
    rng = np.random.default_rng(spec.seed)

    def build_columns(ids: np.ndarray, schema: Schema):
        columns = {}
        for column in schema:
            if column.name == "id":
                columns[column.name] = ids
            elif column.is_label:
                columns[column.name] = labels_all[ids]
            elif column.name.startswith("shared_"):
                columns[column.name] = shared_all[ids, int(column.name[len("shared_"):])]
            else:
                columns[column.name] = np.round(rng.standard_normal(ids.size), 4)
        return columns

    base = Table("S1", base_schema, build_columns(base_ids, base_schema))
    other = Table("S2", other_schema, build_columns(other_ids, other_schema))

    column_matches = [ColumnMatch("S1", "id", "S2", "id", 1.0)]
    for i in range(shared):
        column_matches.append(ColumnMatch("S1", f"shared_{i}", "S2", f"shared_{i}", 1.0))
    if is_union:
        column_matches.append(ColumnMatch("S1", "label", "S2", "label", 1.0))
        for i in range(spec.base_features - shared):
            column_matches.append(ColumnMatch("S1", f"b_{i}", "S2", f"b_{i}", 1.0))

    if is_union:
        row_matches: List[RowMatch] = []
    else:
        # Overlapping entities are ids 0..overlap_rows-1, sitting at the same
        # position in both tables by construction.
        row_matches = [RowMatch(i, i, 1.0) for i in range(spec.overlap_rows)]

    target_columns = ["label"]
    target_columns += [f"shared_{i}" for i in range(shared)]
    target_columns += [f"b_{i}" for i in range(spec.base_features - shared)]
    if not is_union:
        target_columns += [f"o_{i}" for i in range(other_features - shared)]
    return base, other, column_matches, row_matches, target_columns


def generate_scenario_dataset(spec: ScenarioSpec) -> IntegratedDataset:
    """Generate a scenario and integrate it into a factorized dataset."""
    base, other, column_matches, row_matches, target_columns = generate_scenario_tables(spec)
    return integrate_tables(
        base=base,
        other=other,
        column_matches=column_matches,
        row_matches=row_matches,
        target_columns=target_columns,
        scenario=spec.scenario,
        label_column="label",
    )


# ---------------------------------------------------------------------------------
# Streaming scenario generation (out-of-core)
# ---------------------------------------------------------------------------------
#
# The chunked generator never materializes a table: every cell is a pure
# function of (seed, table, column, entity id / row index) via a vectorized
# splitmix64 hash, so any row block can be produced independently — the
# emitted values do not depend on the chunk size, overlapping entities carry
# identical label/shared values in both sources, and materializing the
# stream (``read_table``) equals consuming it chunk-wise bit for bit.

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 (modular arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x + _SPLITMIX_GAMMA).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL2
        return z ^ (z >> np.uint64(31))


def _hash_uniform(indices: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) for (index, salt) pairs."""
    with np.errstate(over="ignore"):
        mixed = _mix64(indices.astype(np.uint64) ^ _mix64(np.uint64(salt & 0xFFFFFFFFFFFFFFFF)))
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _column_salt(seed: int, scope: str, column: str) -> int:
    token = f"{scope}/{column}".encode()
    return (zlib.crc32(token) << 20) ^ (seed * 1_000_003 + 7)


class HashedScenarioStream(TableChunkStream):
    """One scenario source table as a chunk stream of hashed values.

    ``ids`` gives each row's entity id; entity-scoped columns (label,
    shared features) hash the id, table-local feature columns hash the
    absolute row index under a table-specific salt. Every chunk is a pure
    function of ``(index, seed)``, so the stream is randomly accessible
    and the parallel builder can hash chunks on every core at once.
    """

    def __init__(self, name: str, schema: Schema, ids: np.ndarray, seed: int,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS):
        self.name = name
        self._schema = schema
        self._ids = np.asarray(ids, dtype=np.int64)
        self._seed = int(seed)
        self._chunk_rows = max(1, int(chunk_rows))

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return int(self._ids.size)

    @property
    def chunk_rows(self) -> int:
        return self._chunk_rows

    def _column_block(self, column, ids: np.ndarray, start: int) -> np.ndarray:
        if column.name == "id":
            return ids
        if column.is_label:
            return (_hash_uniform(ids, _column_salt(self._seed, "entity", "label")) < 0.5
                    ).astype(np.int64)
        if column.name.startswith("shared_"):
            uniform = _hash_uniform(ids, _column_salt(self._seed, "entity", column.name))
            return np.round(uniform * 2.0 - 1.0, 4)
        rows = np.arange(start, start + ids.size, dtype=np.int64)
        uniform = _hash_uniform(rows, _column_salt(self._seed, self.name, column.name))
        return np.round(uniform * 2.0 - 1.0, 4)

    def chunk_at(self, index: int) -> TableChunk:
        start = index * self._chunk_rows
        if index < 0 or start >= max(self.n_rows, 1):
            raise IndexError(f"chunk index {index} out of range for {self.chunk_count} chunks")
        stop = min(start + self._chunk_rows, self.n_rows)
        ids = self._ids[start:stop]
        data = {}
        valid = {}
        for column in self._schema:
            data[column.name] = self._column_block(column, ids, start)
            valid[column.name] = np.ones(ids.size, dtype=bool)
        return TableChunk(self._schema, data, valid, offset=start)


def generate_scenario_streams(
    spec: ScenarioSpec, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Tuple[
    HashedScenarioStream,
    HashedScenarioStream,
    List[ColumnMatch],
    Tuple[np.ndarray, np.ndarray],
    List[str],
]:
    """The two source tables of a scenario as bounded-memory chunk streams.

    Row structure (entity ids, overlap placement), schemas, column matches
    and target columns mirror :func:`generate_scenario_tables`; values come
    from the hash streams above instead of sequential RNG draws, so a row
    block can be generated without generating its predecessors. Row
    matches are returned as ``(left_rows, right_rows)`` index arrays — the
    builder's vectorized fast path.
    """
    is_union = spec.scenario is ScenarioType.UNION
    shared = spec.base_features if is_union else spec.overlap_columns

    base_schema = _feature_schema("b", spec.base_features, shared, label=True)
    other_features = spec.base_features if is_union else spec.other_features
    other_schema = _feature_schema("o", other_features, shared, label=is_union)

    base_ids = np.arange(spec.base_rows, dtype=np.int64)
    if is_union:
        other_ids = np.arange(
            spec.base_rows, spec.base_rows + spec.other_rows, dtype=np.int64
        )
    else:
        other_ids = np.concatenate(
            [
                np.arange(spec.overlap_rows, dtype=np.int64),
                np.arange(
                    spec.base_rows,
                    spec.base_rows + spec.other_rows - spec.overlap_rows,
                    dtype=np.int64,
                ),
            ]
        )

    base = HashedScenarioStream("S1", base_schema, base_ids, spec.seed, chunk_rows)
    other = HashedScenarioStream("S2", other_schema, other_ids, spec.seed, chunk_rows)

    column_matches = [ColumnMatch("S1", "id", "S2", "id", 1.0)]
    for i in range(shared):
        column_matches.append(ColumnMatch("S1", f"shared_{i}", "S2", f"shared_{i}", 1.0))
    if is_union:
        column_matches.append(ColumnMatch("S1", "label", "S2", "label", 1.0))
        for i in range(spec.base_features - shared):
            column_matches.append(ColumnMatch("S1", f"b_{i}", "S2", f"b_{i}", 1.0))

    if is_union:
        row_matches = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    else:
        overlap = np.arange(spec.overlap_rows, dtype=np.int64)
        row_matches = (overlap, overlap.copy())

    target_columns = ["label"]
    target_columns += [f"shared_{i}" for i in range(shared)]
    target_columns += [f"b_{i}" for i in range(spec.base_features - shared)]
    if not is_union:
        target_columns += [f"o_{i}" for i in range(other_features - shared)]
    return base, other, column_matches, row_matches, target_columns
