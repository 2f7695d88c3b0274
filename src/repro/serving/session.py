"""Long-lived dataset sessions: resident factors, incremental maintenance.

A :class:`DatasetSession` keeps one :class:`IntegratedDataset` resident
together with its compiled :class:`~repro.factorized.AmalurMatrix` (operator
plans, Gram cache) and serves predict/train requests against it while the
underlying source tables receive :class:`~repro.system.requests.DeltaBatch`
mutations.

Incremental maintenance
-----------------------
Deltas are folded into the factorized representation without re-running
schema matching / entity resolution / ``integrate_tables`` whenever the
scenario's target-row ordering allows it:

* appended source rows extend ``D_k`` and ``CI_k`` through growable
  buffers, with new target rows appended at the end of the target order
  and join fill-ins flipping ``CI_k`` entries from ``-1`` to the matched
  source row;
* the redundancy complement grows by exactly the overlap cells the new
  rows introduce;
* the Gram matrix ``TᵀT`` and the column sums are maintained by rank-k
  updates (``Gram += VᵀV`` for appended target rows, ``Gram += V_newᵀV_new
  − V_oldᵀV_old`` for filled/updated ones) and seeded into the published
  matrix's :class:`~repro.factorized.operator_plan.GramCache`, so the next
  normal-equation solve is a cache hit.

Appended rows are matched by the resolver the rebuild calls:
``KeyBasedResolver.resolve_index`` over the grown table, read off at the
appended row indices. Its greedy 1:1 rule pairs the k-th occurrence of a
key on one side with the k-th on the other (NULL keys never match), and
rows appended at the end are the last occurrences of their keys, so they
can never disturb an existing pair on either side — the maintained row
matches are the rebuild's by construction, and the parity tests assert
≤1e-8 agreement of everything derived from them.

Deltas the incremental rules cannot express (deletes, key/validity
changes, target-order-breaking appends) and sessions past their staleness
threshold fall back to a full rebuild (or raise
:class:`~repro.exceptions.StaleDatasetError` when ``auto_rebuild`` is
off).

Concurrency
-----------
Mutations serialize on one lock and publish a fresh immutable
``_SessionState`` (dataset, matrix, blocked feature view, version) with a
single attribute store; readers (``predict``) grab the current state once
and never lock. Published states stay internally consistent because the
growable buffers never mutate cells a published view can see: appends
write beyond every published length and in-place updates copy-on-write
the whole buffer first.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.exceptions import ServiceError, StaleDatasetError
from repro.telemetry import flight as _flight
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.learning.gd import centred_statistics, normal_solve, sigmoid
from repro.matrices.builder import (
    IntegratedDataset,
    integrate_tables,
    overlap_cells,
    source_factor,
    target_row_values,
)
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.entity_resolution import (
    KeyBasedResolver,
    declared_key_pairs,
    resolve_entities,
)
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import match_schemas
from repro.relational.table import Table
from repro.serving.deltas import append_rows, delete_rows, update_rows
from repro.system.executor import supervised_learner
from repro.system.plan import ModelHandle, ModelSpec
from repro.system.requests import (
    DeltaBatch,
    IntegrationConfig,
    PredictRequest,
    TrainRequest,
)


class _GrowBuffer:
    """A growable array whose published views never observe later writes.

    ``view()`` returns the live prefix; consumers (published factors)
    keep such views across delta batches. Safety invariants:

    * ``append`` writes past every published length (and reallocates when
      capacity runs out, leaving old allocations to the old views);
    * ``set_rows`` copy-on-writes the backing allocation before touching
      rows a published view can see.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, initial: np.ndarray):
        self._buf = np.array(initial)  # own writable copy
        self._n = int(initial.shape[0])

    def __len__(self) -> int:
        return self._n

    def view(self) -> np.ndarray:
        return self._buf[: self._n]

    def append(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=self._buf.dtype)
        need = self._n + rows.shape[0]
        if need > self._buf.shape[0]:
            capacity = max(need, 2 * self._buf.shape[0], 8)
            grown = np.empty((capacity,) + self._buf.shape[1:], dtype=self._buf.dtype)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : need] = rows
        self._n = need

    def set_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        fresh = self._buf.copy()
        fresh[np.asarray(indices, dtype=np.int64)] = rows
        self._buf = fresh


@dataclass
class SessionModel:
    """A model trained inside a session: weights plus provenance."""

    handle: ModelHandle
    task: str
    coef_: np.ndarray
    intercept_: float
    version: int
    solver: str = "normal"
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.handle.name


class _SessionState:
    """One immutable published snapshot of the session's dataset."""

    __slots__ = ("dataset", "matrix", "features", "colsums", "version")

    def __init__(self, dataset, matrix, features, colsums, version):
        self.dataset = dataset
        self.matrix = matrix
        self.features = features  # BlockedMatrixView over the feature columns
        self.colsums = colsums  # per-target-column sums, label included
        self.version = version


class DatasetSession:
    """A resident integrated dataset served under delta maintenance.

    Parameters
    ----------
    base, other:
        The two source tables (``config.base`` / ``config.other`` must name
        them).
    config:
        The :class:`~repro.system.requests.IntegrationConfig` describing
        the mediated schema and scenario.
    column_matches:
        Column correspondences between the sources; matched automatically
        when omitted.
    staleness_threshold:
        Fraction of target rows that may be touched by incremental deltas
        before the session forces a rebuild (factor buffers and complement
        coordinates accrete; a rebuild re-compacts them).
    auto_rebuild:
        When ``False``, deltas that need a rebuild (unsupported forms or
        staleness overflow) raise :class:`StaleDatasetError` instead.
    serve_stale_on_failure:
        Graceful degradation: when a delta-driven rebuild *fails*, the
        session rolls its tables back, keeps serving the last good
        published snapshot (predict is lock-free on that state), marks
        itself ``degraded``, and rejects the delta with
        :class:`StaleDatasetError` chained from the rebuild error. With
        ``False`` the rebuild error propagates as-is (tables still
        rolled back).
    """

    def __init__(
        self,
        base: Table,
        other: Table,
        config: IntegrationConfig,
        column_matches=None,
        matcher=None,
        staleness_threshold: float = 0.25,
        auto_rebuild: bool = True,
        serve_stale_on_failure: bool = True,
    ):
        if base.name != config.base or other.name != config.other:
            raise ServiceError(
                f"config names sources {config.base!r}/{config.other!r}, "
                f"got tables {base.name!r}/{other.name!r}"
            )
        self.config = config
        self.column_matches = (
            list(column_matches)
            if column_matches is not None
            else match_schemas(base, other, matcher=matcher)
        )
        self.staleness_threshold = float(staleness_threshold)
        self.auto_rebuild = bool(auto_rebuild)
        self.serve_stale_on_failure = bool(serve_stale_on_failure)
        self._degraded = False
        self._base_name = base.name
        self._other_name = other.name
        self._tables: Dict[str, Table] = {base.name: base, other.name: other}
        self._key_pairs: List[Tuple[str, str]] = declared_key_pairs(base, other)
        self._lock = threading.RLock()
        self._models: Dict[str, SessionModel] = {}
        self._version = 0
        self._changed_rows = 0
        self.deltas_applied = 0
        self.incremental_applied = 0
        self.rebuilds = 0
        self._rebuild()
        self.rebuilds = 0  # the initial build is not a delta-driven rebuild

    # -- public surface -----------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._state.version

    @property
    def n_target_rows(self) -> int:
        return self._state.dataset.n_target_rows

    @property
    def dataset(self) -> IntegratedDataset:
        return self._state.dataset

    @property
    def matrix(self) -> AmalurMatrix:
        return self._state.matrix

    @property
    def staleness(self) -> float:
        """Fraction of target rows touched since the last (re)build."""
        n = self._state.dataset.n_target_rows
        return self._changed_rows / n if n else 0.0

    @property
    def degraded(self) -> bool:
        """True while the session serves a stale snapshot because its last
        rebuild failed; cleared by the next successful rebuild."""
        return self._degraded

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise ServiceError(f"session holds no table named {name!r}")
        return self._tables[name]

    def model(self, name: str = "default") -> SessionModel:
        model = self._models.get(name)
        if model is None:
            raise ServiceError(f"session has no model named {name!r}")
        return model

    def stats(self) -> Dict[str, float]:
        return {
            "version": self._state.version,
            "n_target_rows": self._state.dataset.n_target_rows,
            "deltas_applied": self.deltas_applied,
            "incremental_applied": self.incremental_applied,
            "rebuilds": self.rebuilds,
            "staleness": self.staleness,
            "degraded": self._degraded,
        }

    def rebuild(self) -> None:
        """Force a full from-scratch rebuild of the resident dataset."""
        with self._lock:
            self._rebuild()

    # -- delta application -----------------------------------------------------------------
    def apply_delta(self, batch: DeltaBatch) -> Dict[str, object]:
        """Fold one delta batch into the resident dataset.

        Returns a summary dict with ``mode`` (``"incremental"`` /
        ``"rebuild"``), the new ``version`` and the row counts involved.
        """
        if batch.table not in self._tables:
            raise ServiceError(
                f"delta targets table {batch.table!r}; session holds "
                f"{sorted(self._tables)}"
            )
        with self._lock:
            with _telemetry.span(
                "serving.delta", table=batch.table, kind=batch.kind, rows=batch.n_rows
            ):
                self.deltas_applied += 1
                if batch.kind == "append":
                    return self._apply_append(batch)
                if batch.kind == "update":
                    return self._apply_update(batch)
                return self._apply_delete(batch)

    # -- training -------------------------------------------------------------------------
    def train(self, request: Optional[TrainRequest] = None) -> SessionModel:
        """Train a model on the resident dataset; weights cached per name."""
        request = request or TrainRequest()
        with self._lock:
            state = self._state
            spec = request.model
            name = request.model_name or "default"
            with _telemetry.span(
                "serving.train", task=spec.task, model=name, version=state.version
            ):
                model = self._fit(state, spec, request, name)
            self._models[name] = model
            return model

    # -- prediction (lock-free readers) ----------------------------------------------------
    def predict(self, request: Optional[PredictRequest] = None) -> np.ndarray:
        """Predict over target rows of the current (or pinned) snapshot."""
        request = request or PredictRequest()
        state = self._state  # one atomic read; the snapshot stays consistent
        if request.version is not None and request.version != state.version:
            raise StaleDatasetError(
                f"request pinned dataset version {request.version}, "
                f"session is at {state.version}"
            )
        model = self.model(request.model_name or "default")
        n_rows = state.dataset.n_target_rows
        start, stop = request.row_range if request.row_range is not None else (0, n_rows)
        if not (0 <= start <= stop <= n_rows):
            raise ServiceError(
                f"row range [{start}, {stop}) outside target rows [0, {n_rows})"
            )
        scores = (
            state.features.lmm_block(model.coef_[:, None], int(start), int(stop))[:, 0]
            + model.intercept_
        )
        if model.task == "classification":
            return sigmoid(scores)
        return scores

    # =====================================================================================
    # internals
    # =====================================================================================

    # -- build / publish -------------------------------------------------------------------
    def _rebuild(self) -> None:
        base = self._tables[self._base_name]
        other = self._tables[self._other_name]
        config = self.config
        with _telemetry.span(
            "serving.rebuild", dataset=config.name, base_rows=base.n_rows,
            other_rows=other.n_rows,
        ):
            if self._key_pairs:
                row_matches = KeyBasedResolver(self._key_pairs).resolve_index(base, other)
            else:
                row_matches = resolve_entities(
                    base, other, column_matches=self.column_matches
                )
            dataset = integrate_tables(
                base=base,
                other=other,
                column_matches=self.column_matches,
                row_matches=row_matches,
                target_columns=config.target_columns,
                scenario=config.scenario,
                label_column=config.label_column,
                name=config.name,
                backend=config.backend,
            )
            self._adopt(dataset)
        self.rebuilds += 1
        self._changed_rows = 0
        self._degraded = False
        if _telemetry.ENABLED:
            _telemetry.counter_add("serving.rebuilds")

    def _adopt(self, dataset: IntegratedDataset) -> None:
        """Reset every maintenance structure from a freshly built dataset."""
        base_factor, other_factor = dataset.factors
        self._base_template = base_factor
        self._other_template = other_factor
        self._base_data = _GrowBuffer(np.array(base_factor.data))
        self._other_data = _GrowBuffer(np.array(other_factor.data))
        self._base_ci = _GrowBuffer(np.asarray(base_factor.indicator.compressed))
        self._other_ci = _GrowBuffer(np.asarray(other_factor.indicator.compressed))
        complement = other_factor.redundancy.to_sparse_complement().tocoo()
        self._comp_rows = _GrowBuffer(np.asarray(complement.row, dtype=np.int64))
        self._comp_cols = _GrowBuffer(np.asarray(complement.col, dtype=np.int64))
        self._precompute_overlap()
        matrix = AmalurMatrix(dataset)
        self._gram = np.array(matrix.crossprod())  # writable maintained copy
        colsums = matrix.column_sums()
        self._publish(dataset, matrix, colsums)

    def _publish(self, dataset, matrix, colsums) -> _SessionState:
        self._version += 1
        state = _SessionState(
            dataset,
            matrix,
            matrix.blocked(columns=dataset.feature_columns),
            np.array(colsums),
            self._version,
        )
        self._state = state
        if _telemetry.ENABLED:
            _telemetry.gauge_set("serving.dataset_version", float(self._version))
        return state

    def _assemble_incremental(self, n_target: int) -> IntegratedDataset:
        """A new dataset over the current buffer views (zero-copy factors)."""
        shape = (n_target, len(self.config.target_columns))
        base_factor = source_factor(
            self._base_data.view(),
            self._base_template.mapping,
            self._base_ci.view(),
            RedundancyMatrix.all_ones(self._base_name, *shape),
            self._base_template.backend,
        )
        comp_rows = self._comp_rows.view()
        complement = sparse.csr_matrix(
            (
                np.ones(comp_rows.size, dtype=np.float64),
                (comp_rows, self._comp_cols.view()),
            ),
            shape=shape,
        )
        other_factor = source_factor(
            self._other_data.view(),
            self._other_template.mapping,
            self._other_ci.view(),
            RedundancyMatrix.from_complement(self._other_name, shape, complement),
            self._other_template.backend,
        )
        return IntegratedDataset(
            target_columns=list(self.config.target_columns),
            n_target_rows=n_target,
            factors=[base_factor, other_factor],
            scenario=self.config.scenario,
            label_column=self.config.label_column,
            name=self.config.name,
            backend=self._state.dataset.backend,
        )

    # -- overlap (redundancy) bookkeeping ---------------------------------------------------
    def _precompute_overlap(self) -> None:
        """Target positions both sources map, with their source columns."""
        base, other = self._base_template, self._other_template
        base_cm, other_cm = base.mapping.compressed, other.mapping.compressed
        self._overlap: List[Tuple[int, str, str]] = [
            (int(j), base.source_columns[base_cm[j]], other.source_columns[other_cm[j]])
            for j in np.nonzero((base_cm >= 0) & (other_cm >= 0))[0]
        ]

    def _overlap_cells(
        self, target_rows: np.ndarray, base_rows: np.ndarray, other_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complement coordinates for target rows fed by BOTH sources."""
        base = self._tables[self._base_name]
        other = self._tables[self._other_name]
        columns = [
            (position, base.column_valid(base_column), other.column_valid(other_column))
            for position, base_column, other_column in self._overlap
        ]
        return overlap_cells(columns, target_rows, base_rows, other_rows)

    @staticmethod
    def _matrix_rows(table: Table, columns: Sequence[str], rows: np.ndarray) -> np.ndarray:
        """The ``to_matrix`` encoding (NULL → 0.0) of a subset of rows."""
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros((rows.size, len(columns)))
        for index, column in enumerate(columns):
            values = np.asarray(table.column_values(column), dtype=np.float64)
            out[:, index] = np.where(table.column_valid(column)[rows], values[rows], 0.0)
        return out

    # -- fallback --------------------------------------------------------------------------
    def _fallback_rebuild(
        self, new_tables: Dict[str, Table], reason: str
    ) -> Dict[str, object]:
        if not self.auto_rebuild:
            raise StaleDatasetError(
                f"delta requires a full rebuild ({reason}) and auto_rebuild is off"
            )
        previous_tables = dict(self._tables)
        self._tables.update(new_tables)
        try:
            self._rebuild()
        except Exception as error:
            # Roll the tables back so they stay consistent with the still-
            # published snapshot; predict keeps serving the last good state.
            self._tables = previous_tables
            if _telemetry.ENABLED:
                _telemetry.counter_add("serving.rebuild_failures")
            if _flight.ACTIVE:
                # A failed rebuild flips the session into degraded serving —
                # capture the post-mortem while the cause is still in the rings.
                _flight.trigger(
                    "rebuild_failed",
                    dataset=self.config.name,
                    reason=reason,
                    error=f"{type(error).__name__}: {error}",
                    serving_version=self._state.version,
                )
            if not self.serve_stale_on_failure:
                raise
            self._degraded = True
            if _telemetry.ENABLED:
                _telemetry.counter_add("serving.degraded")
            raise StaleDatasetError(
                f"rebuild failed ({reason}): {error}; the delta was rejected "
                f"and the session is serving version {self._state.version} stale"
            ) from error
        return {
            "mode": "rebuild",
            "reason": reason,
            "version": self._version,
            "n_target_rows": self._state.dataset.n_target_rows,
        }

    def _over_staleness(self, n_changed: int) -> bool:
        n_target = self._state.dataset.n_target_rows
        return self._changed_rows + n_changed > self.staleness_threshold * max(n_target, 1)

    # -- appends ---------------------------------------------------------------------------
    def _apply_append(self, batch: DeltaBatch) -> Dict[str, object]:
        table = self._tables[batch.table]
        is_base = batch.table == self._base_name
        new_table = append_rows(table, batch)
        new_rows = np.arange(table.n_rows, new_table.n_rows, dtype=np.int64)
        scenario = self.config.scenario

        if not self._key_pairs:
            # Similarity-resolved sessions: row matches can appear anywhere,
            # so incremental target maintenance is never sound.
            return self._fallback_rebuild(
                {batch.table: new_table}, "similarity-based resolution"
            )

        # The rebuild's resolver over the grown table: appended rows are the
        # last occurrences of their keys, so every existing pair is unchanged
        # and the pairs at index >= the old row count are the new matches.
        grown = {**self._tables, batch.table: new_table}
        pairs = KeyBasedResolver(self._key_pairs).resolve_index(
            grown[self._base_name], grown[self._other_name]
        )
        own_rows, partner_rows = pairs if is_base else pairs[::-1]
        appended = own_rows >= table.n_rows
        matches = np.full(new_rows.size, -1, dtype=np.int64)
        matches[own_rows[appended] - table.n_rows] = partner_rows[appended]

        # -- decide whether the scenario's target order survives an append --
        reason = None
        if is_base:
            if scenario is ScenarioType.UNION:
                reason = "base append inserts before the union's other-rows section"
            elif scenario is ScenarioType.FULL_OUTER_JOIN and bool(
                (self._base_ci.view() < 0).any()
            ):
                reason = "base append behind existing other-only target rows"
        else:
            if scenario is ScenarioType.INNER_JOIN and bool((matches >= 0).any()):
                reason = "inner-join match would insert target rows mid-order"
        if reason is not None:
            return self._fallback_rebuild({batch.table: new_table}, reason)

        # -- derive appended target rows and fill-ins -----------------------
        fill_targets = np.empty(0, dtype=np.int64)
        fill_other = np.empty(0, dtype=np.int64)
        if is_base:
            if scenario is ScenarioType.INNER_JOIN:
                kept = matches >= 0
                append_base, append_other = new_rows[kept], matches[kept]
            else:  # LEFT / FULL_OUTER: every base row becomes a target row
                append_base, append_other = new_rows, matches
        else:
            if scenario is ScenarioType.UNION:
                append_base = np.full(new_rows.size, -1, dtype=np.int64)
                append_other = new_rows
            else:
                matched = matches >= 0
                # Base target rows are the identity prefix under LEFT /
                # FULL_OUTER (rebuilds restore it; incremental appends keep
                # it), so a matched base row *is* its target row.
                fill_targets = matches[matched]
                fill_other = new_rows[matched]
                if scenario is ScenarioType.FULL_OUTER_JOIN:
                    append_base = np.full(
                        int((~matched).sum()), -1, dtype=np.int64
                    )
                    append_other = new_rows[~matched]
                else:  # LEFT: unmatched other rows never reach the target
                    append_base = np.empty(0, dtype=np.int64)
                    append_other = np.empty(0, dtype=np.int64)

        n_appended = int(max(append_base.size, append_other.size))
        n_changed = n_appended + int(fill_targets.size)
        if self._over_staleness(n_changed):
            return self._fallback_rebuild(
                {batch.table: new_table}, "staleness threshold exceeded"
            )

        # -- commit ----------------------------------------------------------
        old_n_target = self._state.dataset.n_target_rows
        values_before = target_row_values(self._state.dataset, fill_targets)

        self._tables[batch.table] = new_table
        template = self._base_template if is_base else self._other_template
        data_buffer = self._base_data if is_base else self._other_data
        data_buffer.append(
            self._matrix_rows(new_table, template.source_columns, new_rows)
        )

        if fill_targets.size:
            self._other_ci.set_rows(fill_targets, fill_other)
        if n_appended:
            self._base_ci.append(append_base)
            self._other_ci.append(append_other)
        new_targets = np.arange(old_n_target, old_n_target + n_appended, dtype=np.int64)

        # Complement growth: appended target rows fed by both sources, plus
        # every fill-in (the other source now shadows base-provided cells).
        if is_base and n_appended:
            covered = append_other >= 0
            rows, cols = self._overlap_cells(
                new_targets[covered], append_base[covered], append_other[covered]
            )
            if rows.size:
                self._comp_rows.append(rows)
                self._comp_cols.append(cols)
        if fill_targets.size:
            rows, cols = self._overlap_cells(fill_targets, fill_targets, fill_other)
            if rows.size:
                self._comp_rows.append(rows)
                self._comp_cols.append(cols)

        return self._commit_incremental(
            old_n_target + n_appended, fill_targets, values_before, new_targets, n_changed
        )

    def _commit_incremental(
        self,
        n_target: int,
        replaced_rows: np.ndarray,
        values_before: np.ndarray,
        appended_rows: np.ndarray,
        n_changed: int,
    ) -> Dict[str, object]:
        """Publish the buffers' current contents as the next version.

        ``replaced_rows`` are the existing target rows whose values changed
        (``values_before`` holds them as last published), ``appended_rows``
        the new ones at the end of the target order; the Gram and the column
        sums follow by rank-k updates and seed the new matrix's Gram cache.
        """
        colsums = self._state.colsums
        dataset = self._assemble_incremental(n_target)
        if replaced_rows.size:
            after = target_row_values(dataset, replaced_rows)
            self._gram += after.T @ after - values_before.T @ values_before
            colsums = colsums + after.sum(axis=0) - values_before.sum(axis=0)
        if appended_rows.size:
            appended = target_row_values(dataset, appended_rows)
            self._gram += appended.T @ appended
            colsums = colsums + appended.sum(axis=0)
        matrix = AmalurMatrix(dataset)
        matrix.gram_cache.seed(self._gram)
        self._publish(dataset, matrix, colsums)
        self._changed_rows += n_changed
        self.incremental_applied += 1
        if _telemetry.ENABLED:
            _telemetry.counter_add("serving.incremental_deltas")
        return self._incremental_summary(int(appended_rows.size), int(replaced_rows.size))

    def _incremental_summary(self, appended: int, filled: int) -> Dict[str, object]:
        return {
            "mode": "incremental",
            "version": self._version,
            "appended_target_rows": appended,
            "filled_target_rows": filled,
            "n_target_rows": self._state.dataset.n_target_rows,
        }

    # -- updates ---------------------------------------------------------------------------
    def _apply_update(self, batch: DeltaBatch) -> Dict[str, object]:
        table = self._tables[batch.table]
        is_base = batch.table == self._base_name
        new_table, values, valid, validity_changed = update_rows(table, batch)

        if not self._key_pairs:
            return self._fallback_rebuild(
                {batch.table: new_table}, "similarity-based resolution"
            )
        key_columns = {p[0] if is_base else p[1] for p in self._key_pairs}
        if key_columns & set(values):
            return self._fallback_rebuild(
                {batch.table: new_table}, "key column updated"
            )
        if validity_changed:
            return self._fallback_rebuild(
                {batch.table: new_table}, "NULL pattern changed"
            )

        template = self._base_template if is_base else self._other_template
        mapped = [c for c in values if c in template.source_columns]
        if not mapped:
            # Only unmapped (non-target) columns changed: the factorized
            # representation is untouched, no new version to publish.
            self._tables[batch.table] = new_table
            return self._incremental_summary(0, 0)

        indices = np.asarray(batch.row_indices, dtype=np.int64)
        ci = (self._base_ci if is_base else self._other_ci).view()
        affected = np.nonzero(np.isin(ci, indices))[0].astype(np.int64)
        if self._over_staleness(affected.size):
            return self._fallback_rebuild(
                {batch.table: new_table}, "staleness threshold exceeded"
            )

        values_before = target_row_values(self._state.dataset, affected)

        self._tables[batch.table] = new_table
        data_buffer = self._base_data if is_base else self._other_data
        block = data_buffer.view()[indices].copy()
        for column in mapped:
            position = template.source_columns.index(column)
            block[:, position] = np.where(
                valid[column], np.asarray(values[column], dtype=np.float64), 0.0
            )
        data_buffer.set_rows(indices, block)

        return self._commit_incremental(
            self._state.dataset.n_target_rows, affected, values_before,
            np.empty(0, dtype=np.int64), int(affected.size),
        )

    # -- deletes ---------------------------------------------------------------------------
    def _apply_delete(self, batch: DeltaBatch) -> Dict[str, object]:
        new_table = delete_rows(self._tables[batch.table], batch.row_indices)
        # Deleting source rows shifts every later row index through CI_k;
        # compacting that incrementally is a rebuild in all but name.
        return self._fallback_rebuild({batch.table: new_table}, "row deletion")

    # -- model fitting ---------------------------------------------------------------------
    def _fit(
        self, state: _SessionState, spec: ModelSpec, request: TrainRequest, name: str
    ) -> SessionModel:
        dataset = state.dataset
        if spec.task not in ("regression", "classification"):
            raise ServiceError(
                f"session training supports regression and classification, "
                f"not {spec.task!r}"
            )
        if dataset.label_column is None:
            raise ServiceError(f"{spec.task} training requires a label column")
        solver = str(spec.hyperparameters.get("solver", "normal"))
        if spec.task == "regression" and solver == "normal":
            return self._fit_normal_from_stats(state, spec, name)
        cached = self._models.get(name)
        warm = request.warm_start and cached is not None and cached.task == spec.task
        model = supervised_learner(spec, cached if warm else None)
        try:
            model.fit(state.matrix.feature_matrix_view(), state.matrix.labels())
        except ValueError as error:
            # Learner complaints (non-binary labels, shape mismatches) leave
            # the session as ServiceError, like every other refusal here.
            raise ServiceError(str(error)) from error
        loss_name = "mse_loss" if spec.task == "regression" else "log_loss"
        return SessionModel(
            handle=ModelHandle(name=name, task=spec.task, dataset=dataset.name),
            task=spec.task,
            coef_=np.array(model.coef_),
            intercept_=float(model.intercept_),
            version=state.version,
            solver="gd",
            metrics={
                loss_name: model.loss_history_[-1] if model.loss_history_ else float("nan")
            },
        )

    def _fit_normal_from_stats(
        self, state: _SessionState, spec: ModelSpec, name: str
    ) -> SessionModel:
        """Closed-form normal-equation solve from the maintained statistics.

        Algebraically identical to ``LinearRegression(solver="normal",
        fit_intercept=True)`` on the feature view: the centred moments
        (:func:`repro.learning.gd.centred_statistics`) are read off the
        maintained full-target Gram and column sums, no pass over the data.
        """
        dataset = state.dataset
        gram = state.matrix.crossprod()  # seeded: a cache hit after deltas
        n_rows = dataset.n_target_rows
        if n_rows == 0:
            raise ServiceError("cannot train on an empty target")
        label_index = dataset.target_columns.index(dataset.label_column)
        system, moment, _, y_mean = centred_statistics(
            gram, state.colsums, n_rows, label_index
        )
        weights = normal_solve(system, moment, spec.l2_penalty)
        return SessionModel(
            handle=ModelHandle(name=name, task="regression", dataset=dataset.name),
            task="regression",
            coef_=weights,
            intercept_=float(y_mean),
            version=state.version,
            solver="normal",
            metrics={},
        )
