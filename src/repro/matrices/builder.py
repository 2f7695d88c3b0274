"""The integrated (factorized) representation of a set of silo tables.

Relational tables plus DI metadata (column matches from schema matching,
row matches from entity resolution, a Table I scenario) become one
:class:`SourceFactor` per source — the quadruple ``(D_k, M_k, I_k, R_k)``
of the paper — bundled in an :class:`IntegratedDataset`. The integrated
dataset can reconstruct (materialize) the target table, and is the input
to the factorized linear-algebra layer in :mod:`repro.factorized`.

This module owns the representation and the pieces every build route is
made of: the scenario row maps, the two-source correspondences,
:func:`overlap_cells` (the one statement of which cells are redundant) and
:func:`source_factor`. The factor-build loop itself lives in
:mod:`repro.streaming.builder`; :func:`integrate_tables` and
:func:`build_integrated_dataset` are that loop without a spill store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.backends import Backend, BackendSpec, resolve_backend
from repro.exceptions import MappingError
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.entity_resolution import RowMatch
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import ColumnMatch
from repro.relational.table import Table


@dataclass
class SourceFactor:
    """One source table in factorized form: ``(D_k, M_k, I_k, R_k)``.

    ``data`` holds the mapped numeric columns of the source (the processed
    matrix ``D_k``); ``source_columns`` names its columns in order.
    SciPy sparse input is accepted and kept sparse: reading ``data``
    densifies lazily (only the dense code paths pay for it), while
    :meth:`storage` exposes the backend-prepared physical form (dense or
    CSR) the factorized operators compute with.
    """

    name: str
    data: np.ndarray  # property-backed (attached below); dense or SciPy sparse input
    source_columns: List[str]
    mapping: MappingMatrix
    indicator: IndicatorMatrix
    redundancy: RedundancyMatrix
    backend: Optional[Backend] = None

    def __post_init__(self) -> None:
        rows, cols = self._data_shape()
        if cols != len(self.source_columns):
            raise MappingError(
                f"data for {self.name!r} has {cols} columns but "
                f"{len(self.source_columns)} column names were given"
            )
        if self.mapping.n_source_columns != cols:
            raise MappingError(
                f"mapping matrix for {self.name!r} expects {self.mapping.n_source_columns} "
                f"source columns, data has {cols}"
            )
        if self.indicator.n_source_rows != rows:
            raise MappingError(
                f"indicator matrix for {self.name!r} expects {self.indicator.n_source_rows} "
                f"source rows, data has {rows}"
            )
        expected_shape = (self.indicator.n_target_rows, self.mapping.n_target_columns)
        if self.redundancy.shape != expected_shape:
            raise MappingError(
                f"redundancy matrix for {self.name!r} has shape {self.redundancy.shape}, "
                f"expected {expected_shape}"
            )

    # -- raw storage state (managed by the `data` property below) ---------------------------
    def _raw_data(self):
        """Whatever was provided, without densifying: CSR or dense ndarray."""
        return self._sparse_data if self._dense_data is None else self._dense_data

    def _data_shape(self) -> Tuple[int, int]:
        return self._raw_data().shape

    @property
    def n_rows(self) -> int:
        return self._data_shape()[0]

    @property
    def n_columns(self) -> int:
        return self._data_shape()[1]

    # -- physical storage (compute backends) ----------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of non-zero cells of ``D_k`` (cached; data is immutable)."""
        if self._nnz is None:
            if self._dense_data is None:
                self._nnz = int(self._sparse_data.nnz)
            else:
                self._nnz = int(np.count_nonzero(self._dense_data))
        return self._nnz

    def column_nnz(self, index: int) -> int:
        """Non-zero cells of column ``index`` of ``D_k``; reads that column only."""
        raw = self._raw_data()
        if sparse.issparse(raw):
            return int(raw[:, [index]].nnz)
        return int(np.count_nonzero(raw[:, index]))

    @property
    def density(self) -> float:
        """Fraction of non-zero cells of ``D_k`` (1.0 for an empty matrix)."""
        rows, cols = self._data_shape()
        return self.nnz / (rows * cols) if rows * cols else 1.0

    def storage(self, backend: BackendSpec = None):
        """The backend-prepared physical form of ``D_k`` (cached per backend).

        ``backend`` defaults to the factor's own backend (dense when unset).
        """
        resolved = resolve_backend(backend if backend is not None else self.backend)
        key = resolved.storage_cache_key
        cached = self._storage_cache.get(key)
        if cached is None:
            cached = resolved.prepare(self._raw_data())
            self._storage_cache[key] = cached
        return cached

    def with_backend(self, backend: BackendSpec) -> "SourceFactor":
        """A copy of this factor bound to ``backend`` (data shared, not densified)."""
        return SourceFactor(
            self.name,
            self._raw_data(),
            list(self.source_columns),
            self.mapping,
            self.indicator,
            self.redundancy,
            backend=resolve_backend(backend),
        )

    def cells(self, rows, cols) -> np.ndarray:
        """Gather ``D_k[rows[i], cols[i]]`` without densifying sparse storage."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        raw = self._raw_data()
        if sparse.issparse(raw):
            if rows.size == 0:
                return np.empty(0, dtype=np.float64)
            return np.asarray(raw[rows, cols], dtype=np.float64).ravel()
        return np.asarray(raw[rows, cols], dtype=np.float64)

    def coverage(self) -> np.ndarray:
        """The cells this factor maps at all: mapped row and mapped column."""
        return np.outer(self.indicator._compressed >= 0, self.mapping._compressed >= 0)

    def contribution(self) -> np.ndarray:
        """The raw contribution ``T_k = I_k D_k M_kᵀ`` (dense, target-shaped)."""
        return gather_target([self], masked=False)

    def masked_contribution(self) -> np.ndarray:
        """The deduplicated contribution ``(I_k D_k M_kᵀ) ∘ R_k``."""
        return gather_target([self])


def _source_factor_get_data(self) -> np.ndarray:
    """The canonical dense ``D_k`` (densified lazily from sparse input)."""
    if self._dense_data is None:
        self._dense_data = np.asarray(self._sparse_data.todense(), dtype=np.float64)
    return self._dense_data


def _source_factor_set_data(self, value) -> None:
    # Any (re)assignment invalidates derived state.
    self._storage_cache: Dict[object, object] = {}
    self._nnz: Optional[int] = None
    if sparse.issparse(value):
        csr = value.tocsr().astype(np.float64)
        csr.eliminate_zeros()
        self._sparse_data = csr
        self._dense_data = None
        self._storage_cache["sparse"] = csr  # SparseBackend.storage_cache_key
    else:
        self._dense_data = np.atleast_2d(np.asarray(value, dtype=np.float64))
        self._sparse_data = None


# `data` is property-backed so sparse input stays sparse until a dense code
# path actually reads it. Attached after the dataclass decorator runs, so the
# property object is not mistaken for a field default.
SourceFactor.data = property(_source_factor_get_data, _source_factor_set_data)


#: Output cells one block of :func:`gather_target` covers (2 MiB of float64).
_GATHER_CELLS = 1 << 18


def as_slice(index: np.ndarray):
    """``index`` as a ``slice`` when it is a non-empty ascending run of
    consecutive integers — indexing with it then yields a view instead of
    a copy — and unchanged otherwise."""
    n = index.size
    if n and index[-1] - index[0] == n - 1 and bool((index[1:] - index[:-1] == 1).all()):
        return slice(int(index[0]), int(index[0]) + n)
    return index


def _column_runs(mapping: MappingMatrix) -> list:
    """``CM_k`` as ``(target, source)`` slice pairs, one per run over which
    both column indices count up by one."""
    target, source = mapping.mapped_target_indices(), mapping.mapped_source_indices()
    edges = np.flatnonzero((np.diff(target) != 1) | (np.diff(source) != 1)) + 1
    edges = [0, *edges.tolist(), target.size]
    return [(slice(target[a], target[b - 1] + 1), slice(source[a], source[b - 1] + 1))
            for a, b in zip(edges, edges[1:]) if b > a]


def gather_target(
    factors: Sequence[SourceFactor], rows: Optional[np.ndarray] = None, masked: bool = True
) -> np.ndarray:
    """``T[rows] = Σ_k ((I_k D_k M_kᵀ) ∘ R_k)[rows]``, written straight into the result.

    The one reader of target values: every row when ``rows`` is None, no
    ``R_k`` when not ``masked``. It walks the output in blocks; per block
    and factor, rows come through ``CI_k`` (a slice where they count up by
    one, else into one scratch buffer; a CSR ``D_k`` densifies the block's
    rows only) and columns through ``CM_k``, one slice per run. Values are
    added into zeros in factor order, so ``-0.0`` reads ``0.0``; a redundant
    cell keeps what earlier factors left: read before the add, written back
    after it.
    """
    n_columns = factors[0].mapping.n_target_columns
    n_out = factors[0].indicator.n_target_rows if rows is None else rows.size
    out = np.zeros((n_out, n_columns))
    width = max([n_columns] + [f.n_columns for f in factors])
    step = max(1, _GATHER_CELLS // max(width, 1))
    scratch = np.empty(step * width)
    plans = []
    for f in factors:
        cut = f.redundancy._complement if masked else None
        cut = cut[rows] if cut is not None and rows is not None else cut
        plans.append((f._raw_data(), f.indicator._compressed, _column_runs(f.mapping), cut))
    for start in range(0, n_out, step):
        block = out[start : start + step]
        span = slice(start, start + len(block))
        for data, compressed, runs, cut in plans:
            source = compressed[span if rows is None else rows[span]]
            fed = source >= 0
            if not (runs and fed.any()):
                continue
            local = slice(None)
            if not fed.all():
                local, source = as_slice(np.flatnonzero(fed)), source[fed]
            gathered = as_slice(source)
            values = scratch[: source.size * data.shape[1]].reshape(source.size, -1)
            if sparse.issparse(data):
                data[gathered].toarray(out=values)
            elif isinstance(gathered, slice):
                values = data[gathered]
            else:
                data.take(gathered, axis=0, mode="clip", out=values)
            if cut is not None:
                ptr = cut.indptr[start : span.stop + 1]
                cells = np.repeat(np.arange(0, block.size, n_columns), np.diff(ptr))
                cells += cut.indices[ptr[0] : ptr[-1]]
                kept = block.reshape(-1)[cells]
            for columns, source_columns in runs:
                block[local, columns] += values[:, source_columns]
            if cut is not None:
                block.reshape(-1)[cells] = kept
    return out


@dataclass
class IntegratedDataset:
    """A target table kept in factorized form over its source factors.

    Attributes
    ----------
    target_columns:
        Names of the target (mediated) schema columns, all numeric.
    n_target_rows:
        Number of rows of the (virtual) target table.
    factors:
        One :class:`SourceFactor` per source; the first factor is the base
        table whose redundancy matrix is all ones.
    scenario:
        The Table I scenario the dataset was built under (if known).
    label_column:
        Name of the supervised-learning label column, if any.
    backend:
        The compute backend (``repro.backends``) the factorized operators
        should execute with; ``None`` means dense (the default engine).
    """

    target_columns: List[str]
    n_target_rows: int
    factors: List[SourceFactor]
    scenario: Optional[ScenarioType] = None
    label_column: Optional[str] = None
    name: str = "T"
    backend: Optional[Backend] = None

    def __post_init__(self) -> None:
        if not self.factors:
            raise MappingError("an integrated dataset needs at least one source factor")
        if self.backend is not None:
            self.backend = resolve_backend(self.backend)
        for factor in self.factors:
            if factor.mapping.n_target_columns != len(self.target_columns):
                raise MappingError(
                    f"factor {factor.name!r} maps {factor.mapping.n_target_columns} target "
                    f"columns, dataset has {len(self.target_columns)}"
                )
            if factor.indicator.n_target_rows != self.n_target_rows:
                raise MappingError(
                    f"factor {factor.name!r} indicates {factor.indicator.n_target_rows} target "
                    f"rows, dataset has {self.n_target_rows}"
                )
        if self.label_column is not None and self.label_column not in self.target_columns:
            raise MappingError(f"label column {self.label_column!r} not in target columns")

    # -- shapes ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_target_rows, len(self.target_columns))

    @property
    def n_sources(self) -> int:
        return len(self.factors)

    @property
    def base(self) -> SourceFactor:
        return self.factors[0]

    @property
    def feature_columns(self) -> List[str]:
        return [c for c in self.target_columns if c != self.label_column]

    def factor(self, name: str) -> SourceFactor:
        for factor in self.factors:
            if factor.name == name:
                return factor
        raise MappingError(f"no source factor named {name!r}")

    # -- backends ------------------------------------------------------------------
    def with_backend(self, backend: BackendSpec) -> "IntegratedDataset":
        """A copy of this dataset (factors re-bound) running on ``backend``."""
        resolved = resolve_backend(backend)
        return IntegratedDataset(
            target_columns=list(self.target_columns),
            n_target_rows=self.n_target_rows,
            factors=[f.with_backend(resolved) for f in self.factors],
            scenario=self.scenario,
            label_column=self.label_column,
            name=self.name,
            backend=resolved,
        )

    # -- statistics used by the cost model ------------------------------------------------
    def total_source_cells(self) -> int:
        return sum(f.n_rows * f.n_columns for f in self.factors)

    def total_source_nnz(self) -> int:
        """Non-zero cells across every source — the sparse-plan cost driver."""
        return sum(f.nnz for f in self.factors)

    def source_densities(self) -> List[float]:
        """Per-factor non-zero density, in factor order."""
        return [f.density for f in self.factors]

    def overall_density(self) -> float:
        total = self.total_source_cells()
        return self.total_source_nnz() / total if total else 1.0

    def target_cells(self) -> int:
        return self.n_target_rows * len(self.target_columns)

    def tuple_ratio(self) -> float:
        """r_T / max_k r_Sk — how much the target replicates source rows."""
        largest_source = max(f.n_rows for f in self.factors)
        return self.n_target_rows / largest_source if largest_source else 0.0

    def feature_ratio(self) -> float:
        """c_T / max_k c_Sk — how much wider the target is than any source."""
        widest_source = max(f.n_columns for f in self.factors)
        return len(self.target_columns) / widest_source if widest_source else 0.0

    def redundancy_in_target(self) -> float:
        """Fraction of target cells that are covered by more than one source."""
        coverage = sum(factor.coverage().astype(np.int64) for factor in self.factors)
        return float(np.sum(coverage > 1)) / coverage.size if coverage.size else 0.0

    # -- materialization -------------------------------------------------------------
    def materialize(self) -> np.ndarray:
        """Reconstruct the target table ``T = Σ_k (I_k D_k M_kᵀ) ∘ R_k``."""
        return gather_target(self.factors)

    def materialize_table(self) -> Table:
        """Materialize into a relational :class:`Table` (floats, NULLs as 0)."""
        return Table.from_matrix(
            self.name, self.materialize(), self.target_columns, label_column=self.label_column
        )

    def labels(self) -> np.ndarray:
        """The label column of the materialized target as a 1-D array."""
        if self.label_column is None:
            raise MappingError("dataset has no label column")
        index = self.target_columns.index(self.label_column)
        return self.materialize()[:, index]

    def features(self) -> np.ndarray:
        """The non-label columns of the materialized target."""
        indices = [i for i, c in enumerate(self.target_columns) if c != self.label_column]
        return self.materialize()[:, indices]


# ---------------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------------


RowMatchesLike = Union[Sequence[RowMatch], Tuple[np.ndarray, np.ndarray]]


def _row_match_arrays(row_matches: RowMatchesLike) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize row matches to (left_rows, right_rows) int64 index arrays.

    Accepts either a sequence of :class:`RowMatch` (the resolver's object
    form) or a pre-built pair of index arrays (the vectorized fast path of
    ``KeyBasedResolver.resolve_index``).
    """
    if isinstance(row_matches, tuple) and len(row_matches) == 2:
        left, right = row_matches
        return (
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
        )
    left = np.fromiter((m.left_row for m in row_matches), dtype=np.int64,
                       count=len(row_matches))
    right = np.fromiter((m.right_row for m in row_matches), dtype=np.int64,
                        count=len(row_matches))
    return left, right


def _target_rows_for_scenario(
    n_base_rows: int,
    n_other_rows: int,
    row_matches: RowMatchesLike,
    scenario: ScenarioType,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return, per target row, the originating base row and other row (-1 if none).

    Takes plain row counts (not tables) so the out-of-core streaming
    builder can derive the same row maps from chunk-stream metadata.
    """
    matched_left, matched_right = _row_match_arrays(row_matches)
    # Row matches come from outside (a resolver, a caller's index arrays):
    # numpy would wrap a negative index and broadcast a short side silently.
    if matched_left.shape != matched_right.shape or matched_left.ndim != 1:
        raise MappingError(
            f"row matches pair {matched_left.size} base rows with "
            f"{matched_right.size} other rows"
        )
    for side, rows, n_rows in (
        ("base", matched_left, n_base_rows), ("other", matched_right, n_other_rows)
    ):
        outside = rows[(rows < 0) | (rows >= n_rows)]
        if outside.size:
            raise MappingError(
                f"row match names {side} row {int(outside[0])}, outside [0, {n_rows})"
            )
    # Per base row, its matched other row (-1 when unmatched); for duplicate
    # left rows the last match wins, like the dict the seed implementation
    # built.
    other_of_base = np.full(n_base_rows, -1, dtype=np.int64)
    other_of_base[matched_left] = matched_right

    if scenario is ScenarioType.INNER_JOIN:
        base_rows = np.nonzero(other_of_base >= 0)[0].astype(np.int64)
        other_rows = other_of_base[base_rows]
    elif scenario is ScenarioType.LEFT_JOIN:
        base_rows = np.arange(n_base_rows, dtype=np.int64)
        other_rows = other_of_base
    elif scenario is ScenarioType.FULL_OUTER_JOIN:
        matched_other = np.zeros(n_other_rows, dtype=bool)
        matched_other[other_of_base[other_of_base >= 0]] = True
        other_only = np.nonzero(~matched_other)[0].astype(np.int64)
        base_rows = np.concatenate(
            [np.arange(n_base_rows, dtype=np.int64),
             np.full(other_only.size, -1, dtype=np.int64)]
        )
        other_rows = np.concatenate([other_of_base, other_only])
    elif scenario is ScenarioType.UNION:
        base_rows = np.concatenate(
            [np.arange(n_base_rows, dtype=np.int64),
             np.full(n_other_rows, -1, dtype=np.int64)]
        )
        other_rows = np.concatenate(
            [np.full(n_base_rows, -1, dtype=np.int64),
             np.arange(n_other_rows, dtype=np.int64)]
        )
    else:  # pragma: no cover - exhaustive enum
        raise MappingError(f"unknown scenario {scenario!r}")
    return base_rows, other_rows


def two_source_correspondences(
    base_columns: Sequence[str],
    other_columns: Sequence[str],
    column_matches: Sequence[ColumnMatch],
    target_columns: Sequence[str],
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Source-column → target-column maps for the two-source scenarios.

    The mediated schema names target columns after the base table where the
    base provides them; matched columns of the other table map onto the
    base name, unmatched ones onto their own name (when in the target).
    """
    matched_base_by_other = {m.right_column: m.left_column for m in column_matches}
    target_set = set(target_columns)
    base_correspondences = {
        column: column for column in base_columns if column in target_set
    }
    other_correspondences: Dict[str, str] = {}
    for column in other_columns:
        target = matched_base_by_other.get(column, column)
        if target in target_set:
            other_correspondences[column] = target
    return base_correspondences, other_correspondences


def _numeric_mapped_columns(
    schema, correspondences: Dict[str, str], target_columns: Sequence[str]
) -> List[str]:
    """Source columns that map into the numeric target schema, in source order."""
    wanted = {
        source_column
        for source_column, target_column in correspondences.items()
        if target_column in target_columns
    }
    return [
        column.name
        for column in schema
        if column.name in wanted and column.dtype.is_numeric
    ]


def overlap_cells(
    columns: Sequence[Tuple[int, np.ndarray, np.ndarray]],
    target_rows: np.ndarray,
    left_rows: np.ndarray,
    right_rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Complement coordinates ``(rows, cols)`` of the redundant cells.

    The one place that says which cells are redundant: a cell of a later
    source repeats a value where both providers are non-NULL. ``columns``
    holds, per shared target column, ``(position, left_valid,
    right_valid)`` — the validity bitmap of what came earlier and of the
    source being added; ``left_rows[i]`` / ``right_rows[i]`` index those
    bitmaps for target row ``target_rows[i]``. The full build passes the
    cells earlier sources already claimed (indexed by target row), the
    serving session the two tables' validity on the rows a delta touched.
    """
    target_rows = np.asarray(target_rows, dtype=np.int64)
    left_rows = np.asarray(left_rows, dtype=np.int64)
    right_rows = np.asarray(right_rows, dtype=np.int64)
    rows_out: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    cols_out: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for position, left_valid, right_valid in columns:
        hit = target_rows[left_valid[left_rows] & right_valid[right_rows]]
        rows_out.append(hit)
        cols_out.append(np.full(hit.size, position, dtype=np.int64))
    return np.concatenate(rows_out), np.concatenate(cols_out)


def source_factor(
    data,
    mapping: MappingMatrix,
    row_map: np.ndarray,
    redundancy: RedundancyMatrix,
    backend: Optional[Backend] = None,
) -> SourceFactor:
    """Assemble one factor from its arrays.

    The target-row → source-row map *is* the compressed indicator vector
    ``CI_k`` (no per-row pair expansion), and ``mapping`` carries the
    source's name and column order. ``data`` may be a resident array, a
    spilled memmap or a zero-copy view of a session's growable buffer.
    """
    indicator = IndicatorMatrix(mapping.source_name, len(row_map), data.shape[0], row_map)
    return SourceFactor(
        mapping.source_name, data, list(mapping.source_columns), mapping, indicator,
        redundancy, backend=backend,
    )


def star_schema(
    entity: Tuple[str, Sequence[str], object],
    dimensions: Sequence[Tuple[str, Sequence[str], object, np.ndarray]],
    *,
    label_column: Optional[str] = None,
    name: str = "T",
    backend: BackendSpec = None,
) -> IntegratedDataset:
    """The star-schema inner join ``T = [S, K_1 R_1, ..., K_q R_q]`` as a dataset.

    The Morpheus setting (Chen et al., PVLDB'17, the paper's ref. [27]) is
    the Area-I special case of ``(D_k, M_k, I_k, R_k)``: the entity table
    ``S`` (``entity = (name, columns, data)``) is the base factor with an
    identity indicator, and each dimension ``(name, columns, data,
    foreign_keys)`` is a many-to-one factor whose ``CI_k`` is its foreign-key
    column. Columns are disjoint and every mask is trivial, so the same
    operators run it — Morpheus's Eq. 1 is ``lmm`` on this dataset.
    """
    entity_name, entity_columns, entity_data = entity
    n_rows = entity_data.shape[0]
    sources = [(entity_name, entity_columns, entity_data, np.arange(n_rows, dtype=np.int64))]
    for dimension in dimensions:
        if len(dimension) != 4:
            raise MappingError(
                "a star-schema dimension is (name, columns, data, foreign_keys), "
                f"got {len(dimension)} items"
            )
        dim_name, columns, data, foreign_keys = dimension
        foreign_keys = np.asarray(foreign_keys)
        if foreign_keys.shape != (n_rows,):
            raise MappingError(
                f"dimension {dim_name!r} needs one foreign key per entity row "
                f"({n_rows}), got shape {foreign_keys.shape}"
            )
        if foreign_keys.size and (foreign_keys.min() < 0 or foreign_keys.max() >= data.shape[0]):
            raise MappingError(
                f"dimension {dim_name!r}: an inner join needs 0 <= foreign key < "
                f"{data.shape[0]}"
            )
        sources.append((dim_name, columns, data, foreign_keys))
    target_columns = [column for _, columns, _, _ in sources for column in columns]
    if len(set(target_columns)) != len(target_columns):
        raise MappingError("star-schema sources must have disjoint column names")
    resolved = resolve_backend(backend) if backend is not None else None
    factors = [
        source_factor(
            data,
            MappingMatrix(source, target_columns, columns, {c: c for c in columns}),
            row_map,
            RedundancyMatrix.all_ones(source, n_rows, len(target_columns)),
            resolved,
        )
        for source, columns, data, row_map in sources
    ]
    return IntegratedDataset(
        target_columns, n_rows, factors, ScenarioType.INNER_JOIN, label_column, name, resolved
    )


def integrate_tables(
    base: Table,
    other: Table,
    column_matches: Sequence[ColumnMatch],
    row_matches: RowMatchesLike,
    target_columns: Sequence[str],
    scenario: ScenarioType,
    label_column: Optional[str] = None,
    name: str = "T",
    backend: BackendSpec = None,
) -> IntegratedDataset:
    """Build an :class:`IntegratedDataset` for the two-source Table I scenarios.

    Parameters
    ----------
    base, other:
        The base table ``S_1`` and the discovered table ``S_2``.
    column_matches:
        Column correspondences *between the two sources* (left = base).
    row_matches:
        Row correspondences between the two sources (left = base row index):
        either a sequence of :class:`RowMatch` or a pre-built
        ``(left_rows, right_rows)`` pair of index arrays.
    target_columns:
        The mediated schema: numeric columns named after the base table's
        columns where the base provides them, otherwise after the other
        table's columns.
    scenario:
        One of the four Table I scenarios.
    label_column:
        Optional label column name (must appear in ``target_columns``).
    backend:
        Compute backend for the factorized operators (name, instance, or
        ``None`` for dense).
    """
    from repro.streaming.builder import integrate_streams

    return integrate_streams(
        base, other, column_matches, row_matches, target_columns, scenario,
        label_column=label_column, name=name, backend=backend,
    )


# ---------------------------------------------------------------------------------
# Delta-aware entry points (online serving)
# ---------------------------------------------------------------------------------


def target_row_values(dataset: IntegratedDataset, rows: np.ndarray) -> np.ndarray:
    """``T[rows, :]``, gathered from the selected rows only: the serving
    layer's rank-k Gram updates read these instead of O(r_T · c_T)
    :meth:`IntegratedDataset.materialize`."""
    return gather_target(dataset.factors, np.asarray(rows, dtype=np.int64))


def build_integrated_dataset(
    sources: Sequence[Table],
    correspondences: Dict[str, Dict[str, str]],
    row_maps: Dict[str, Sequence[int]],
    target_columns: Sequence[str],
    n_target_rows: int,
    scenario: Optional[ScenarioType] = None,
    label_column: Optional[str] = None,
    name: str = "T",
    backend: BackendSpec = None,
) -> IntegratedDataset:
    """General n-source builder from explicit correspondences and row maps.

    ``correspondences[source_name]`` maps source column → target column;
    ``row_maps[source_name]`` gives, per target row, the source row index
    (or -1). The first source is the base; redundancy is resolved in source
    order (earlier sources win), cell-wise on non-null contributions.
    """
    from repro.streaming.builder import integrate_sources

    if not sources:
        raise MappingError("need at least one source table")
    return integrate_sources(
        sources,
        [correspondences.get(table.name, {}) for table in sources],
        [row_maps.get(table.name, []) for table in sources],
        target_columns, n_target_rows, scenario, label_column, name, backend,
    )
