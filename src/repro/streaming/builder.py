"""Spillable factor build: ``integrate_tables`` over chunk streams.

:func:`integrate_streams` constructs the same ``(D_k, M_k, I_k, R_k)``
factorization as :func:`repro.matrices.builder.integrate_tables` — identical
``CI_k`` row maps, factor cells and redundancy masks, asserted by the
parity suite — while touching each source one chunk at a time:

* ``D_k`` is assembled block-wise into a :class:`repro.streaming.spill.
  SpillStore` memmap (or a resident array when no store is given), with
  pages released after every chunk so the resident set stays one chunk.
* ``CI_k`` comes straight from the scenario row maps, exactly as in the
  in-memory builder — no per-row expansion.
* the redundancy complement is computed per *shared target column* from
  accumulated validity bitmaps instead of the dense ``r_T × c_T``
  contribution-mask AND, so nothing target-shaped is ever materialized.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.backends import BackendSpec, resolve_backend
from repro.exceptions import IntegrityError, MappingError
from repro.reliability import faults as _faults
from repro.reliability.retry import INGEST_RETRY
from repro.matrices.builder import (
    IntegratedDataset,
    RowMatchesLike,
    SourceFactor,
    _numeric_mapped_columns,
    _target_rows_for_scenario,
    two_source_correspondences,
)
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.streaming.chunks import TableChunkStream, as_chunk_stream
from repro.streaming.spill import SpillStore


def _effective_target_map(
    correspondences: Dict[str, str], target_columns: Sequence[str]
) -> Dict[str, str]:
    """Per target column, the source column that provides it.

    Mirrors the in-memory contribution-mask loop, where a later source
    column mapping the same target column overwrites an earlier one.
    """
    target_set = set(target_columns)
    effective: Dict[str, str] = {}
    for source_column, target_column in correspondences.items():
        if target_column in target_set:
            effective[target_column] = source_column
    return effective


def _ingest_stream(
    stream: TableChunkStream,
    correspondences: Dict[str, str],
    target_columns: Sequence[str],
    validity_columns: Sequence[str],
    store: Optional[SpillStore],
    store_key: str,
) -> Tuple[List[str], np.ndarray, Dict[str, np.ndarray]]:
    """One pass over a stream: fill ``D_k`` block-wise, collect validity.

    Returns ``(source_columns, data, validity)`` where ``data`` is the
    spilled memmap (or resident array) holding the numeric mapped columns
    with NULLs as 0.0 — cell-for-cell ``table.to_matrix(source_columns)``
    — and ``validity`` maps each requested source column to its full
    boolean validity bitmap (needed only for overlap columns, so this
    stays O(rows × shared columns)).

    Only the chunk source depends on the stream. Randomly accessible
    streams (resident tables, synthetic generators) map their chunk indices
    through the ordered block map: each task materializes one chunk and
    writes its disjoint ``[offset, offset + n)`` row slice of ``D_k`` —
    pure data movement, so the built factors are bit-identical at every
    worker count, and one worker is the plain loop of the same map.
    Sequential streams (CSV) fill in arrival order, pulling chunks through
    a background prefetcher so parsing overlaps the memmap copy. Completed
    chunks release their spill pages as they retire either way, keeping
    the resident set at a bounded window of chunks.
    """
    schema = stream.schema
    source_columns = _numeric_mapped_columns(schema, correspondences, target_columns)
    if not source_columns:
        raise MappingError(f"source {stream.name!r} maps no numeric target columns")
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
            """Write one chunk's matrix into ``data``, CRC'd before the write.

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

        def _fill_chunk(chunk, row_start: int) -> int:
            """Copy one chunk into rows ``[row_start, row_start + n)``."""
            stop = row_start + chunk.n_rows
            if stop > n_rows:
                raise MappingError(
                    f"stream {stream.name!r} produced more rows than its declared {n_rows}"
                )
            _write_block(row_start, stop, chunk.to_matrix(source_columns))
            for column in validity_columns:
                validity[column][row_start:stop] = chunk.column_valid(column)
            return chunk.n_rows

        # A sequential stream's chunks may leave ``offset`` at its default,
        # so their position is the running row count.
        if stream.supports_random_access:

            def _read_chunk(index: int):
                _faults.fault_point("ingest.chunk", source=stream.name, chunk=index)
                return stream.chunk_at(index)

            def _fill_at_index(index: int) -> int:
                if _faults.ACTIVE:
                    chunk = INGEST_RETRY.call(_read_chunk, index, site="ingest.chunk")
                else:
                    chunk = stream.chunk_at(index)
                chunk_index_by_offset[chunk.offset] = index
                return _fill_chunk(chunk, chunk.offset)

            fills = _parallel.imap_ordered(
                _fill_at_index, range(stream.chunk_count), label="build.fill"
            )
        else:

            def _fill_in_order():
                position = 0
                for chunk in _parallel.prefetch(stream.chunks(), depth=2, label="build.fill"):
                    produced = _fill_chunk(chunk, position)
                    position += produced
                    yield produced

            fills = _fill_in_order()
        filled = 0
        for produced in fills:
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
    return source_columns, data, validity


def _validate_spilled(
    store: SpillStore,
    store_key: str,
    stream: TableChunkStream,
    source_columns: List[str],
    chunk_index_by_offset: Dict[int, int],
) -> None:
    """Seal a just-built spilled matrix: re-read it and repair torn blocks.

    A block whose on-disk bytes no longer match the CRC recorded from the
    in-memory chunk is refilled from source — random-access streams fetch
    the owning chunk directly, sequential streams re-iterate to it — then
    re-validated; a block that still mismatches raises
    :class:`~repro.exceptions.IntegrityError`.
    """

    def _repair(row_start: int, row_stop: int, destination: np.ndarray) -> None:
        if stream.supports_random_access and row_start in chunk_index_by_offset:
            chunk = stream.chunk_at(chunk_index_by_offset[row_start])
            destination[...] = chunk.to_matrix(source_columns)
            return
        position = 0
        for chunk in stream.chunks():
            stop = position + chunk.n_rows
            if position == row_start:
                destination[...] = chunk.to_matrix(source_columns)
                return
            position = stop
        raise IntegrityError(
            f"cannot rebuild rows [{row_start}, {row_stop}) of spilled matrix "
            f"{store_key!r}: source stream {stream.name!r} no longer covers them"
        )

    with _telemetry.span("reliability.spill_validate", matrix=store_key):
        repaired = store.verify(store_key, repair=_repair)
    if repaired and _telemetry.ENABLED:
        _telemetry.counter_add("reliability.spill_rebuilt_blocks", float(repaired))


def _overlap_complement(
    target_shape: Tuple[int, int],
    target_columns: Sequence[str],
    base_rows: np.ndarray,
    other_rows: np.ndarray,
    base_map: Dict[str, str],
    other_map: Dict[str, str],
    base_validity: Dict[str, np.ndarray],
    other_validity: Dict[str, np.ndarray],
) -> sparse.coo_matrix:
    """Redundant cells of the other source, one shared target column at a time.

    A target cell is redundant for the other source exactly when both
    sources map its column and both contribute a non-NULL value on that
    row — the nonzero set of the in-memory ``base_mask & other_mask``
    without ever building either dense mask.
    """
    both_rows = (base_rows >= 0) & (other_rows >= 0)
    base_gather = np.where(base_rows >= 0, base_rows, 0)
    other_gather = np.where(other_rows >= 0, other_rows, 0)
    row_chunks: List[np.ndarray] = []
    col_chunks: List[np.ndarray] = []
    for j, target_column in enumerate(target_columns):
        base_col = base_map.get(target_column)
        other_col = other_map.get(target_column)
        if base_col is None or other_col is None:
            continue
        base_valid = base_validity[base_col]
        other_valid = other_validity[other_col]
        if base_valid.size == 0 or other_valid.size == 0:
            continue
        hit = both_rows & base_valid[base_gather] & other_valid[other_gather]
        rows = np.nonzero(hit)[0].astype(np.int64)
        if rows.size:
            row_chunks.append(rows)
            col_chunks.append(np.full(rows.size, j, dtype=np.int64))
    if row_chunks:
        rows = np.concatenate(row_chunks)
        cols = np.concatenate(col_chunks)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
    data = np.ones(rows.size, dtype=np.float64)
    return sparse.coo_matrix((data, (rows, cols)), shape=target_shape)


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
    """Out-of-core counterpart of ``integrate_tables`` over chunk streams.

    Parameters mirror :func:`repro.matrices.builder.integrate_tables`;
    ``base`` and ``other`` may be :class:`TableChunkStream` instances or
    resident :class:`~repro.relational.Table` objects (wrapped with
    ``chunk_rows`` rows per chunk). When ``store`` is given, each source's
    ``D_k`` is spilled to a memory-mapped file in the store and the
    returned factors read from disk; otherwise ``D_k`` is resident (still
    assembled chunk-wise). The resulting :class:`IntegratedDataset` is
    identical to the in-memory build — same ``CI_k``, factor cells and
    redundancy masks.
    """
    base = as_chunk_stream(base, chunk_rows)
    other = as_chunk_stream(other, chunk_rows)
    if _telemetry.ENABLED:
        with _telemetry.span(
            "build.integrate_streams",
            scenario=scenario.value,
            base=base.name,
            other=other.name,
            spilled=store is not None,
        ):
            return _integrate_streams(
                base, other, column_matches, row_matches, target_columns,
                scenario, label_column, name, backend, store,
            )
    return _integrate_streams(
        base, other, column_matches, row_matches, target_columns,
        scenario, label_column, name, backend, store,
    )


def _integrate_streams(
    base: TableChunkStream,
    other: TableChunkStream,
    column_matches: Sequence[ColumnMatch],
    row_matches: RowMatchesLike,
    target_columns: Sequence[str],
    scenario: ScenarioType,
    label_column: Optional[str],
    name: str,
    backend: BackendSpec,
    store: Optional[SpillStore],
) -> IntegratedDataset:
    resolved_backend = resolve_backend(backend) if backend is not None else None
    target_columns = list(target_columns)
    base_correspondences, other_correspondences = two_source_correspondences(
        base.schema.names, other.schema.names, column_matches, target_columns
    )
    base_rows, other_rows = _target_rows_for_scenario(
        base.n_rows, other.n_rows, row_matches, scenario
    )
    n_target_rows = int(base_rows.size)
    target_shape = (n_target_rows, len(target_columns))

    # Validity bitmaps are only needed where the redundancy complement can
    # be nonzero: target columns mapped by *both* sources.
    base_map = _effective_target_map(base_correspondences, target_columns)
    other_map = _effective_target_map(other_correspondences, target_columns)
    shared_targets = [t for t in target_columns if t in base_map and t in other_map]
    base_validity_columns = sorted({base_map[t] for t in shared_targets})
    other_validity_columns = sorted({other_map[t] for t in shared_targets})

    base_key = f"0_{base.name}"
    other_key = f"1_{other.name}"
    try:
        base_source_columns, base_data, base_validity = _ingest_stream(
            base, base_correspondences, target_columns, base_validity_columns,
            store, base_key,
        )
        other_source_columns, other_data, other_validity = _ingest_stream(
            other, other_correspondences, target_columns, other_validity_columns,
            store, other_key,
        )

        base_redundancy = RedundancyMatrix.all_ones(base.name, *target_shape)
        other_redundancy = RedundancyMatrix.from_complement(
            other.name,
            target_shape,
            _overlap_complement(
                target_shape, target_columns, base_rows, other_rows,
                base_map, other_map, base_validity, other_validity,
            ),
        )

        factors = []
        for stream, source_columns, data, correspondences, row_map, redundancy in (
            (base, base_source_columns, base_data, base_correspondences, base_rows,
             base_redundancy),
            (other, other_source_columns, other_data, other_correspondences, other_rows,
             other_redundancy),
        ):
            mapping = MappingMatrix(
                stream.name,
                target_columns,
                source_columns,
                {c: correspondences[c] for c in source_columns},
            )
            indicator = IndicatorMatrix(
                stream.name, n_target_rows, stream.n_rows, row_map
            )
            factors.append(
                SourceFactor(
                    stream.name, data, source_columns, mapping, indicator, redundancy,
                    backend=resolved_backend,
                )
            )
    except BaseException:
        # A failed build can never hand its memmaps to anyone: drop them
        # from the store and delete the backing files, so an aborted
        # integrate_streams leaves no orphaned spill files behind.
        if store is not None:
            store.discard(base_key)
            store.discard(other_key)
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
