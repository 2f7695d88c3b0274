"""The factor build: one loop over chunk streams and n sources.

:func:`integrate_sources` constructs the ``(D_k, M_k, I_k, R_k)``
factorization of every build route — ``integrate_streams``,
``integrate_tables`` (the same call without a store: a resident table is
the in-memory chunk stream it already was) and ``build_integrated_dataset``
— touching each source one chunk at a time:

* ``M_k`` maps the source's numeric columns into the target schema; a
  source *provides* a target column iff its mapping does.
* ``D_k`` is assembled block-wise into a :class:`repro.streaming.spill.
  SpillStore` memmap, with pages released after every chunk so the
  resident set stays one chunk — or, without a store, written in place
  into a resident array. Released pages stay in the page cache and are
  never forced to disk, so a release costs no write-back wait.
* ``CI_k`` comes straight from the row maps — no per-row expansion.
* the redundancy complement is this source's non-NULL cells on rows an
  earlier source already filled, tracked as one ``r_T`` validity bitmap
  per *shared target column*, so nothing target-shaped is ever
  materialized.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.backends import BackendSpec, resolve_backend
from repro.exceptions import MappingError
from repro.reliability import faults as _faults
from repro.matrices.builder import (
    IntegratedDataset,
    RowMatchesLike,
    _numeric_mapped_columns,
    _target_rows_for_scenario,
    overlap_cells,
    source_factor,
    two_source_correspondences,
)
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.streaming.chunks import TableChunkStream, as_chunk_stream, read_chunk
from repro.streaming.spill import SpillStore


def _ingest_stream(
    stream: TableChunkStream,
    source_columns: List[str],
    validity_columns: Sequence[str],
    store: Optional[SpillStore],
    store_key: str,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """One pass over a stream: fill ``D_k`` block-wise, collect validity.

    Returns ``(data, validity)`` where ``data`` is the spilled memmap (or
    resident array) holding ``source_columns`` with NULLs as 0.0 —
    cell-for-cell ``table.to_matrix(source_columns)`` — and ``validity``
    maps each requested source column to its full boolean validity bitmap
    (needed only for overlap columns, so this stays O(rows × shared
    columns)).

    Chunk indices go through the ordered block map: each task reads one
    chunk with ``chunk_at`` (behind the ``ingest.chunk`` fault site) and
    writes its disjoint ``[offset, offset + n)`` row slice of ``D_k`` —
    pure data movement, so the built factors are bit-identical at every
    worker count, and one worker is the plain loop of the same map.
    Completed chunks release their spill pages as they retire, keeping the
    resident set at a bounded window of chunks.
    """
    n_rows = stream.n_rows
    with _telemetry.span(
        "build.ingest_stream", source=stream.name, rows=n_rows,
        columns=len(source_columns), spilled=store is not None,
    ):
        if store is not None:
            data = store.allocate(store_key, n_rows, len(source_columns))
        else:
            data = np.zeros((n_rows, len(source_columns)), dtype=np.float64)
        validity = {c: np.zeros(n_rows, dtype=bool) for c in validity_columns}
        checksums = store is not None and store.checksums
        chunk_index_by_offset: Dict[int, int] = {}

        def _write_block(row_start: int, row_stop: int, block: np.ndarray) -> None:
            """Write one chunk's matrix into the memmap, CRC'd before the write.

            The checksum is computed from the in-memory block *before* it
            touches the memmap, so a torn write — simulated here by the
            ``spill.write`` corrupt fault damaging the written slice — is
            caught by the post-fill validation instead of laundered into
            the recorded CRC.
            """
            if checksums:
                store.record_crc(
                    store_key, row_start, row_stop,
                    zlib.crc32(np.ascontiguousarray(block).tobytes()),
                )
            data[row_start:row_stop] = block
            if _faults.ACTIVE:
                spec = _faults.hit("spill.write")
                if spec is not None and spec.kind == "corrupt":
                    torn = data[row_start:row_stop]
                    torn[torn.shape[0] // 2:] = 0.0

        def _fill(index: int) -> int:
            """Copy chunk ``index`` into its rows ``[offset, offset + n)``."""
            chunk = read_chunk(stream, index)
            row_start = chunk.offset
            stop = row_start + chunk.n_rows
            if stop > n_rows:
                raise MappingError(
                    f"stream {stream.name!r} produced more rows than its declared {n_rows}"
                )
            chunk_index_by_offset[row_start] = index
            if store is None:
                # A resident write cannot tear and has no CRC to check it
                # against: the columns go straight into their rows of D_k.
                chunk.to_matrix(source_columns, out=data[row_start:stop])
            else:
                # One contiguous copy of a finished block beats strided
                # column writes into the memmap.
                _write_block(row_start, stop, chunk.to_matrix(source_columns))
            for column in validity_columns:
                validity[column][row_start:stop] = chunk.column_valid(column)
            return chunk.n_rows

        filled = 0
        for produced in _parallel.imap_ordered(
            _fill, range(stream.chunk_count), label="build.fill"
        ):
            filled += produced
            if store is not None:
                if _telemetry.ENABLED:
                    _telemetry.counter_add(
                        "spill.bytes_written", float(produced * len(source_columns) * 8)
                    )
                store.release()
        if filled != n_rows:
            raise MappingError(
                f"stream {stream.name!r} produced {filled} rows, declared {n_rows}"
            )
        if checksums:
            _validate_spilled(
                store, store_key, stream, source_columns, chunk_index_by_offset
            )
    return data, validity


def _validate_spilled(
    store: SpillStore,
    store_key: str,
    stream: TableChunkStream,
    source_columns: List[str],
    chunk_index_by_offset: Dict[int, int],
) -> None:
    """Seal a just-built spilled matrix: re-read it and repair torn blocks.

    A block whose on-disk bytes no longer match the CRC recorded from the
    in-memory chunk is refilled from its owning chunk, read again with
    ``chunk_at``, then re-validated; a block that still mismatches raises
    :class:`~repro.exceptions.IntegrityError`.
    """

    def _repair(row_start: int, row_stop: int, destination: np.ndarray) -> None:
        chunk = stream.chunk_at(chunk_index_by_offset[row_start])
        destination[...] = chunk.to_matrix(source_columns)

    with _telemetry.span("reliability.spill_validate", matrix=store_key):
        repaired = store.verify(store_key, repair=_repair)
    if repaired and _telemetry.ENABLED:
        _telemetry.counter_add("reliability.spill_rebuilt_blocks", float(repaired))


def integrate_streams(
    base,
    other,
    column_matches: Sequence[ColumnMatch],
    row_matches: RowMatchesLike,
    target_columns: Sequence[str],
    scenario: ScenarioType,
    label_column: Optional[str] = None,
    name: str = "T",
    backend: BackendSpec = None,
    store: Optional[SpillStore] = None,
    chunk_rows: Optional[int] = None,
) -> IntegratedDataset:
    """Build an :class:`IntegratedDataset` for the two-source Table I scenarios.

    The first nine parameters are those of
    :func:`repro.matrices.builder.integrate_tables`, which is this function
    without a store; ``base`` and ``other`` may be
    :class:`TableChunkStream` instances or resident
    :class:`~repro.relational.Table` objects (wrapped with ``chunk_rows``
    rows per chunk). When ``store`` is given, each source's ``D_k`` is
    spilled to a memory-mapped file in the store and the returned factors
    read from disk; otherwise ``D_k`` is resident (still assembled
    chunk-wise). The built factors do not depend on the chunk grid, the
    store or the worker count.
    """
    base = as_chunk_stream(base, chunk_rows)
    other = as_chunk_stream(other, chunk_rows)
    with _telemetry.span(
        "build.integrate_streams",
        scenario=scenario.value,
        base=base.name,
        other=other.name,
        spilled=store is not None,
    ):
        correspondences = two_source_correspondences(
            base.schema.names, other.schema.names, column_matches, target_columns
        )
        row_maps = _target_rows_for_scenario(
            base.n_rows, other.n_rows, row_matches, scenario
        )
        return integrate_sources(
            [base, other], correspondences, row_maps, target_columns,
            int(row_maps[0].size), scenario, label_column, name, backend, store,
        )


def integrate_sources(
    sources: Sequence,
    correspondences: Sequence[Dict[str, str]],
    row_maps: Sequence[Sequence[int]],
    target_columns: Sequence[str],
    n_target_rows: int,
    scenario: Optional[ScenarioType],
    label_column: Optional[str],
    name: str,
    backend: BackendSpec,
    store: Optional[SpillStore] = None,
) -> IntegratedDataset:
    """The factor-build loop every entry point calls.

    ``sources`` are tables or chunk streams; ``correspondences[k]`` maps
    source column → target column and ``row_maps[k]`` gives, per target
    row, the source row (or -1). Redundancy is resolved in source order
    (earlier sources win), cell-wise on non-NULL contributions.
    """
    resolved_backend = resolve_backend(backend) if backend is not None else None
    target_columns = list(target_columns)
    target_shape = (n_target_rows, len(target_columns))
    streams = [as_chunk_stream(source) for source in sources]
    mappings: List[MappingMatrix] = []
    for stream, source_correspondences in zip(streams, correspondences):
        source_columns = _numeric_mapped_columns(
            stream.schema, source_correspondences, target_columns
        )
        if not source_columns:
            raise MappingError(f"source {stream.name!r} maps no numeric target columns")
        mappings.append(
            MappingMatrix(
                stream.name,
                target_columns,
                source_columns,
                {c: source_correspondences[c] for c in source_columns},
            )
        )
    # A cell can only be redundant in a target column that at least two
    # mappings provide; only those columns carry validity bitmaps. Per such
    # column, ``claimed`` marks the target rows an earlier source filled
    # (absent until a first source provides the column).
    compressed = [mapping.compressed for mapping in mappings]
    providers = np.sum([vector >= 0 for vector in compressed], axis=0)
    shared_targets = [int(j) for j in np.nonzero(providers >= 2)[0]]
    claimed: Dict[int, np.ndarray] = {}
    keys = [f"{k}_{stream.name}" for k, stream in enumerate(streams)]
    factors = []
    try:
        for stream, mapping, vector, row_map, key in zip(
            streams, mappings, compressed, row_maps, keys
        ):
            row_map = np.asarray(row_map, dtype=np.int64)
            if row_map.size != n_target_rows:
                raise MappingError(
                    f"row map for {stream.name!r} has length {row_map.size}, "
                    f"expected {n_target_rows}"
                )
            shared = [
                (j, mapping.source_columns[vector[j]])
                for j in shared_targets if vector[j] >= 0
            ]
            data, validity = _ingest_stream(
                stream, mapping.source_columns, [c for _, c in shared], store, key
            )
            fed = np.nonzero(row_map >= 0)[0]
            source_rows = row_map[fed]
            rows, cols = overlap_cells(
                [(j, claimed[j], validity[c]) for j, c in shared if j in claimed],
                fed, fed, source_rows,
            )
            redundancy = RedundancyMatrix.from_complement(
                stream.name,
                target_shape,
                sparse.coo_matrix(
                    (np.ones(rows.size, dtype=np.float64), (rows, cols)), shape=target_shape
                ),
            )
            for j, c in shared:
                if j not in claimed:
                    claimed[j] = np.zeros(n_target_rows, dtype=bool)
                claimed[j][fed] |= validity[c][source_rows]
            factors.append(
                source_factor(data, mapping, row_map, redundancy, resolved_backend)
            )
    except BaseException:
        # A failed build can never hand its memmaps to anyone: drop them
        # from the store and delete the backing files, so an aborted
        # build leaves no orphaned spill files behind.
        if store is not None:
            for key in keys:
                store.discard(key)
        raise
    if store is not None:
        store.release()
    return IntegratedDataset(
        target_columns=target_columns,
        n_target_rows=n_target_rows,
        factors=factors,
        scenario=scenario,
        label_column=label_column,
        name=name,
        backend=resolved_backend,
    )
