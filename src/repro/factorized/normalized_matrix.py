"""The Amalur normalized matrix: factorized linear algebra with DI metadata.

Implements the operator rewrites of paper §IV-A over an
:class:`repro.matrices.IntegratedDataset`. Every operator is equivalent to
applying the same operator to the materialized target table
``T = Σ_k (I_k D_k M_kᵀ) ∘ R_k`` — the property tests assert this — but is
computed in the source (silo) dimension:

* ``lmm(X)``        = ``T @ X``            (Eq. 2 of the paper)
* ``rmm(X)``        = ``X @ T``
* ``transpose_lmm`` = ``Tᵀ @ X``
* ``crossprod()``   = ``Tᵀ T``             (needed by normal equations)
* element-wise scalar ops, row/column/total sums

Redundant cells (marked by ``R_k``) are handled with a sparse correction
term instead of a full Hadamard product: the rewrite computes the cheap
``I_k (D_k (M_kᵀ X))`` and subtracts the contribution of the (few)
redundant cells.

One blocked engine runs ``lmm`` / ``transpose_lmm`` / ``crossprod`` (and
``rmm``, which is ``transpose_lmm`` of the transposed operand). A target
with at least ``REPRO_PARALLEL_MIN_ROWS`` rows is cut into the block-size
grid, below that it is one block; :func:`repro.parallel.imap_ordered`
maps the blocks and the partial results reduce on the calling thread in
fixed block order. Each call is priced once, with the charges it books
(:func:`~repro.factorized.ops_counter.charges`), and every block map
hands its per-block share of them to
:func:`repro.parallel.should_parallelize`: the blocks go to the shared
worker pool only when that share pays for the hand-off (a Gram below
the row threshold never fans out, see ``_gram_workers``); otherwise the
map is a plain loop on the calling thread. The work is done in the
source dimension — the FLOP counters' per-factor formulas describe what
runs:

* a **many-to-one** factor multiplies once per call (``D_k (M_kᵀ X)`` /
  ``D_kᵀ (I_kᵀ X)`` over its ``r_Sk`` rows, cut into *source*-row
  blocks only when ``r_Sk`` itself clears the threshold); the target-row
  blocks only lift. ``I_kᵀ X`` is one CSR product on the calling thread
  (two threads ran SciPy 1.17.1's CSR kernel at 1.49–1.93× of one on an
  idle 2-core box, so blocks of it can overlap; it stays serial until a
  re-measure, idle and loaded, says fanning it out pays);
* an **injective** factor's source rows partition with the target rows,
  so each block multiplies its own — a slice *view* of ``D_k`` when the
  row map is contiguous there, never more rows than the block has;
* every Gram term is ``rows_kᵀ (I_kᵀ I_l) rows_l`` over the factors'
  stored rows (their row forms): ``rows_kᵀ diag(multiplicity) rows_k``
  for ``k = l``, and for a cross term the composed indicator segment-sums
  one factor onto the other's rows before the multiply, so no term
  touches a target-sized copy.

The grid depends only on the matrix shape and the two grid settings —
never the worker count — so any worker count, one included, gives the
same bits; different *grids* agree to reassociation (<= 1e-8).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.backends import Backend, BackendSpec, resolve_backend
from repro.backends.base import as_float64 as _as_float64
from repro.exceptions import FactorizationError
from repro.factorized.operator_plan import (
    BlockedMatrixView,
    GramCache,
    OperatorPlan,
    cross_operands,
    gram_terms,
    row_grid,
)
from repro.factorized.ops_counter import FlopCounter, charges
from repro.matrices.builder import IntegratedDataset, SourceFactor, target_row_values
from repro.matrices.mapping_matrix import MappingMatrix


def _workers(work: float, tasks: Sequence) -> Optional[int]:
    """The worker count for a map of ``tasks`` sharing ``work`` priced
    multiply-adds: the calling thread alone when a task's share does not
    pay for the hand-off (:func:`repro.parallel.should_parallelize`),
    else the configured count (``None``; one task never leaves the
    calling thread)."""
    if len(tasks) > 1 and not _parallel.should_parallelize(work / len(tasks)):
        return 1
    return None


class AmalurMatrix:
    """Factorized view of a target table, backed by per-source factors.

    ``backend`` picks the compute engine (:mod:`repro.backends`) the
    per-source kernels run on: dense BLAS, SciPy CSR, or per-factor
    density dispatch. It defaults to the dataset's backend (dense when the
    dataset does not carry one). All operators produce identical results
    on every backend — only storage, wall-clock and the FLOP accounting
    change.
    """

    def __init__(
        self,
        dataset: IntegratedDataset,
        counter: Optional[FlopCounter] = None,
        backend: BackendSpec = None,
    ):
        self.dataset = dataset
        self.counter = counter or FlopCounter()
        self.backend: Backend = resolve_backend(
            backend if backend is not None else dataset.backend
        )
        # Backend-prepared physical form of each D_k (dense ndarray or CSR).
        self._storages = [factor.storage(self.backend) for factor in dataset.factors]
        # Compiled operator plans: per-factor gather/scatter index arrays,
        # many-to-one projectors, and lazily cached corrections and Gram
        # row forms (see repro.factorized.operator_plan). Rebuilt by any
        # operation returning a new AmalurMatrix (with_backend,
        # select_columns, scale, square).
        self._plans: List[OperatorPlan] = [
            OperatorPlan(factor, storage, self.backend)
            for factor, storage in zip(dataset.factors, self._storages)
        ]
        # Gram cache for crossprod(); factors are immutable, so TᵀT never
        # changes for this view unless explicitly invalidated.
        self.gram_cache = GramCache()
        # Composed indicators of the Gram's cross terms, per factor pair
        # (see _cross_operands); they depend on the row maps only.
        self._composed: Dict[Tuple[int, int], Tuple[int, int, sparse.csr_matrix]] = {}
        # Row-block view over all columns — the engine of lmm /
        # transpose_lmm — built lazily on the calling thread by the first
        # operator call (so the plans' correction caches are populated
        # before any fan-out).
        self._blocked_view: Optional[BlockedMatrixView] = None

    # -- shapes ---------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.dataset.shape

    @property
    def n_rows(self) -> int:
        return self.dataset.shape[0]

    @property
    def n_columns(self) -> int:
        return self.dataset.shape[1]

    # -- backend introspection ---------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Stored non-zero cells across every source factor (cached per factor)."""
        return sum(factor.nnz for factor in self.dataset.factors)

    @property
    def density(self) -> float:
        """Overall non-zero density of the source factors."""
        total = sum(s.shape[0] * s.shape[1] for s in self._storages)
        return self.nnz / total if total else 1.0

    def storage_formats(self) -> List[str]:
        """Physical format ("csr"/"dense") chosen per factor, in order."""
        return [
            "csr" if self.backend.is_sparse_storage(s) else "dense"
            for s in self._storages
        ]

    def with_backend(self, backend: BackendSpec) -> "AmalurMatrix":
        """The same factorized view running on a different compute backend."""
        return AmalurMatrix(self.dataset, self.counter, backend=backend)

    # -- helpers --------------------------------------------------------------------
    def _correction(self, index: int) -> sparse.csr_matrix:
        """Sparse matrix with the values of redundant cells of factor ``index``."""
        return self._plans[index].correction()

    def _check_lmm_operand(self, x: np.ndarray) -> np.ndarray:
        x = _as_float64(x)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != self.n_columns:
            raise FactorizationError(
                f"LMM operand has {x.shape[0]} rows, target has {self.n_columns} columns"
            )
        return x

    def _check_rmm_operand(self, x: np.ndarray) -> np.ndarray:
        x = _as_float64(x)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.n_rows:
            raise FactorizationError(
                f"RMM operand has {x.shape[1]} columns, target has {self.n_rows} rows"
            )
        return x

    def _check_transpose_operand(self, x: np.ndarray) -> np.ndarray:
        x = _as_float64(x)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != self.n_rows:
            raise FactorizationError(
                f"Tᵀ X operand has {x.shape[0]} rows, target has {self.n_rows} rows"
            )
        return x

    # -- core operators -----------------------------------------------------------------
    def lmm(self, x: np.ndarray) -> np.ndarray:
        """Left matrix multiplication ``T @ X`` (paper Eq. 2), factorized.

        Runs entirely on the compiled per-factor plans: an operand-row
        gather (``M_kᵀ X``), the backend matmul, and a fancy-indexed
        indicator lift — no Python-level per-element loops.
        """
        x = self._check_lmm_operand(x)
        if _telemetry.ENABLED:
            with _telemetry.span("amalur.lmm", rows=self.n_rows, operand_cols=x.shape[1]):
                return self._lmm(x)
        return self._lmm(x)

    # -- the blocked engine ---------------------------------------------------------------
    @staticmethod
    def _block_rows(n_rows: int) -> int:
        """Block size to cut ``n_rows`` by: the configured one when the
        count clears the row threshold, else everything in one block."""
        if n_rows >= _parallel.get_min_parallel_rows():
            return _parallel.get_block_rows()
        return max(n_rows, 1)

    def _row_grid(self, n_rows: int) -> List[Tuple[int, int]]:
        return row_grid(n_rows, self._block_rows(n_rows)) or [(0, 0)]

    def _target_blocks(self) -> Tuple[BlockedMatrixView, Sequence[Tuple[int, int]]]:
        """The all-columns row-block view and its target-row grid; the
        view keeps the grid's per-block row structure between calls."""
        if self._blocked_view is None:
            self._blocked_view = self.blocked()
        view = self._blocked_view
        return view, view.row_blocks(self._block_rows(self.n_rows))

    def _source_matmul(self, factor, operand: np.ndarray, work: float) -> np.ndarray:
        """``D_k @ operand`` (r_Sk × m), once per call, in the source
        dimension, over *source*-row blocks; ``work`` is its priced
        multiply-adds (``lmm.local``)."""
        n_source_rows = factor.plan.n_source_rows
        local = np.empty((n_source_rows, operand.shape[1]))

        def _fill(bounds: Tuple[int, int]) -> None:
            lo, hi = bounds
            local[lo:hi] = self.backend.matmul(factor.storage_rows(slice(lo, hi)), operand)

        grid = self._row_grid(n_source_rows)
        list(_parallel.imap_ordered(_fill, grid, workers=_workers(work, grid), label="lmm.local"))
        return local

    def _source_transpose_matmul(
        self, factor, projected: np.ndarray, work: float
    ) -> np.ndarray:
        """``D_kᵀ @ projected`` (c_Sk × m) — the transpose twin of
        :meth:`_source_matmul`; source-row partials reduce in block order."""
        def _partial(bounds: Tuple[int, int]) -> np.ndarray:
            lo, hi = bounds
            return self.backend.transpose_matmul(
                factor.storage_rows(slice(lo, hi)), projected[lo:hi]
            )

        grid = self._row_grid(factor.plan.n_source_rows)
        partials = list(_parallel.imap_ordered(
            _partial, grid, workers=_workers(work, grid), label="transpose_lmm.local",
        ))
        local = partials[0]
        for piece in partials[1:]:
            local += piece
        return local

    def _price(self, operator: str, m: int) -> Dict[OperatorPlan, Dict[str, float]]:
        """One call of ``operator`` at the price list's charges (see
        :mod:`repro.factorized.ops_counter`), factor by factor: what the
        call's block maps weigh before it runs and what it books after."""
        return {plan: charges(operator, plan.stats(), m) for plan in self._plans}

    def _book(self, priced: Dict[OperatorPlan, Dict[str, float]]) -> None:
        for price in priced.values():
            for label, flops in price.items():
                self.counter.add(label, flops)

    def _lmm(self, x: np.ndarray) -> np.ndarray:
        """``Σ_k I_k (D_k (M_kᵀ X))`` with every row of ``D_k`` multiplied
        once: a many-to-one factor multiplies up front, in the source
        dimension, and the target-row blocks only lift; an injective
        factor's source rows partition with the target rows, so each block
        multiplies its own. Blocks fill disjoint slices of the result."""
        priced = self._price("lmm", x.shape[1])
        view, blocks = self._target_blocks()
        products = [
            None if factor.plan.rows_injective
            else self._source_matmul(
                factor, factor.operand_rows(x), priced[factor.plan]["lmm.local"]
            )
            for factor in view.factors
        ]
        result = np.zeros((self.n_rows, x.shape[1]))

        def _fill(bounds: Tuple[int, int]) -> None:
            start, stop = bounds
            out = result[start:stop]
            for factor, product in zip(view.factors, products):
                factor.lmm_block_add(x, start, stop, out, product)

        # The blocks run everything but a many-to-one factor's multiply.
        work = sum(
            sum(priced[f.plan].values())
            - (0.0 if f.plan.rows_injective else priced[f.plan]["lmm.local"])
            for f in view.factors
        )
        list(_parallel.imap_ordered(_fill, blocks, workers=_workers(work, blocks), label="lmm"))
        self._book(priced)
        return result

    def rmm(self, x: np.ndarray) -> np.ndarray:
        """Right matrix multiplication ``X @ T = (Tᵀ Xᵀ)ᵀ``, factorized."""
        x = self._check_rmm_operand(x)
        if _telemetry.ENABLED:
            with _telemetry.span("amalur.rmm", rows=self.n_rows, operand_rows=x.shape[0]):
                return self._transpose_lmm(x.T).T
        return self._transpose_lmm(x.T).T

    def transpose_lmm(self, x: np.ndarray) -> np.ndarray:
        """``Tᵀ @ X``, factorized — the workhorse of model gradients."""
        x = self._check_transpose_operand(x)
        if _telemetry.ENABLED:
            with _telemetry.span(
                "amalur.transpose_lmm", rows=self.n_rows, operand_cols=x.shape[1]
            ):
                return self._transpose_lmm(x)
        return self._transpose_lmm(x)

    def _transpose_lmm(self, x: np.ndarray) -> np.ndarray:
        """``Σ_k M_k (D_kᵀ (I_kᵀ X))``, the mirror of :meth:`_lmm`: each
        block multiplies its own rows of the injective factors and the
        partials reduce here, in block order; a many-to-one factor
        projects and multiplies once per call, in the source dimension.
        Its projection stays on this thread: two threads ran SciPy
        1.17.1's CSR kernel at 1.49–1.93× of one on an idle 2-core box,
        but it stays serial until an idle-and-loaded re-measure says
        blocks of it pay for the hand-off."""
        m = x.shape[1]
        priced = self._price("transpose_lmm", m)
        view, blocks = self._target_blocks()
        result = np.zeros((self.n_columns, m))
        injective = [f for f in view.factors if f.plan.rows_injective]
        if injective:

            def _partial(bounds: Tuple[int, int]) -> np.ndarray:
                start, stop = bounds
                out = np.zeros((self.n_columns, m))
                for factor in injective:
                    factor.transpose_lmm_block_add(x[start:stop], start, stop, out)
                return out

            work = sum(sum(priced[f.plan].values()) for f in injective)
            for out in _parallel.imap_ordered(
                _partial, blocks, workers=_workers(work, blocks), label="transpose_lmm"
            ):
                result += out
        for factor in view.factors:
            if factor.plan.rows_injective:
                continue
            projected = factor.plan.project_rows(x)  # (r_Sk × m)
            factor.scatter_add(result, self._source_transpose_matmul(
                factor, projected, priced[factor.plan]["tlmm.local"]
            ))
            if factor.correction is not None:
                result -= factor.correction.T @ x
        self._book(priced)
        return result

    def crossprod(self) -> np.ndarray:
        """``Tᵀ T`` — the Gram matrix needed by normal-equation solvers.

        Computed over the factors, never the join: every term is
        ``rows_kᵀ (I_kᵀ I_l) rows_l`` on the factors' stored rows (see
        :meth:`_compute_gram`).

        The result is cached on this matrix (the factors are immutable),
        so the normal-equation solver and repeated fits reuse one Gram;
        treat the returned array as read-only. Views produced by
        ``with_backend`` / ``select_columns`` / ``scale`` start with a
        fresh cache. ``gram_cache`` exposes hit/miss/evict stats and
        :meth:`invalidate_gram` forces a recompute.
        """
        if _telemetry.ENABLED:
            with _telemetry.span("amalur.crossprod", cols=self.n_columns):
                return self.gram_cache.get_or_compute(self._compute_gram)
        return self.gram_cache.get_or_compute(self._compute_gram)

    def invalidate_gram(self) -> None:
        """Drop the cached Gram matrix; the next ``crossprod`` recomputes."""
        self.gram_cache.invalidate()

    def invalidate(self) -> None:
        """Drop every lazily cached structure that copies factor data: the
        Gram, each plan's correction and row form *and* the row-block view
        (its blocks hold slices of the corrections). Call after mutating
        a factor's data in place; plans' index arrays and the Gram's
        composed indicators stay valid while shapes and row/column maps do."""
        self.gram_cache.invalidate()
        for plan in self._plans:
            plan.invalidate()
        self._blocked_view = None

    def _compute_gram(self) -> np.ndarray:
        """``Tᵀ T`` as row-block partial sums of one term per factor pair,
        reduced in a fixed ``(k, l, block)`` order — one block per term
        unless the target clears the row threshold; whether the partials
        fan out is :meth:`_gram_workers`' call.

        Every term is ``rows_kᵀ C_kl rows_l`` over the plans'
        :meth:`~OperatorPlan.row_form`, with ``C_kl = I_kᵀ I_l``
        (:func:`~repro.factorized.operator_plan.gram_terms`, which a row
        block's statistics sum too). For ``k = l`` that is
        ``diag(multiplicity)``, so the same-source term is
        ``rowsᵀ weighted``. A cross term runs in the order with fewer
        multiply-adds (:meth:`_cross_operands`), blocked over the rows of
        its outer factor, and each term is charged the count of what ran.
        """
        backend = self.backend
        forms = [plan.row_form() for plan in self._plans]
        cols = [plan.target_cols for plan in self._plans]
        # (term, rows of its outer operand), in the deterministic order the
        # reduction below replays.
        tasks: List[Tuple] = []
        work = 0.0
        for term in gram_terms(forms, cols, self._cross_operands):
            tasks.extend((term, rows) for rows in self._row_slices(term.outer.shape[0]))
            if term.composed is None:
                flops = backend.crossprod_flops(term.outer)
                self.counter.add("crossprod.local", flops)
            else:
                width = term.inner.shape[1]
                flops = term.composed.nnz * width + backend.matmul_flops(term.outer, width)
                self.counter.add("crossprod.cross", flops)
            work += flops
        partials = _parallel.imap_ordered(
            lambda task: task[0].compute(backend, task[1]), tasks,
            workers=self._gram_workers(work, tasks), label="crossprod",
        )
        gram = np.zeros((self.n_columns, self.n_columns))
        for (term, _), value in zip(tasks, partials):
            term.add_to(gram, value)
        gram.setflags(write=False)
        return gram

    def _gram_workers(self, work: float, tasks: Sequence) -> Optional[int]:
        """The Gram's fan-out decision: a target below the row threshold
        keeps its terms on the calling thread, a larger one fans them out
        when a task's share of the booked ``work`` pays for the hand-off
        (:func:`_workers`). Below the threshold the tasks are whole terms
        of uneven cost, and their booked counts misjudge them: a cross
        term's ``composed @ inner`` is a SciPy CSR segment sum that runs
        below its booked rate. So the 20 000-row serving Gram, three
        terms booking 1.56 M a task, ran 1.06–1.25 ms on this thread and
        1.19–1.48 ms fanned out. The 80 000-row ``resident_dense_redundant``
        Gram fans out (four tasks) and ran 2.8–3.4 ms on this thread,
        3.0–3.6 ms fanned out (2 cores, BLAS on one thread, medians of
        101 alternated calls in each of two processes; an earlier idle-box
        reading was 3.0 / 2.2 ms)."""
        if self.n_rows < _parallel.get_min_parallel_rows():
            return 1
        return _workers(work, tasks)

    def _row_slices(self, n_rows: int) -> List[slice]:
        return [slice(lo, hi) for lo, hi in self._row_grid(n_rows)]

    def _cross_operands(self, forms, k: int, j: int) -> Tuple[int, int, sparse.csr_matrix]:
        """:func:`~repro.factorized.operator_plan.cross_operands`, cached
        per factor pair for the life of the matrix, :meth:`invalidate`
        included: ``C`` depends on the row maps only."""
        entry = self._composed.get((k, j))
        if entry is None:
            entry = self._composed[(k, j)] = cross_operands(forms, k, j)
        return entry

    # -- element-wise and aggregation operators ----------------------------------------------
    def _map_factors(self, fn, operator: str) -> "AmalurMatrix":
        """A factorized view of ``T`` with ``fn`` applied cell-wise.

        ``fn`` maps one stored ``D_k`` (dense or CSR) to a matrix of the same
        shape and format with ``fn(0) == 0``. Such a map distributes over the
        factorization, because every target cell comes from exactly one
        source once ``R_k`` has zeroed the duplicates. Each factor keeps its
        backend and format, and ``operator`` is charged its price.
        """
        factors = [
            dataclasses.replace(factor, data=fn(storage))
            for factor, storage in zip(self.dataset.factors, self._storages)
        ]
        self._book(self._price(operator, 1))
        dataset = dataclasses.replace(self.dataset, factors=factors)
        return AmalurMatrix(dataset, self.counter, backend=self.backend)

    def scale(self, alpha: float) -> "AmalurMatrix":
        """A factorized view of ``alpha * T`` (scalar multiplication)."""
        return self._map_factors(lambda storage: self.backend.scale(storage, alpha), "scale")

    def square(self) -> "AmalurMatrix":
        """A factorized view of ``T ∘ T`` (element-wise square)."""
        return self._map_factors(
            lambda storage: self.backend.elementwise_multiply(storage, storage), "square"
        )

    def row_sums(self) -> np.ndarray:
        """``T @ 1`` — per-target-row sums, factorized."""
        ones = np.ones((self.n_columns, 1))
        return self.lmm(ones)[:, 0]

    def column_sums(self) -> np.ndarray:
        """``Tᵀ @ 1`` — per-target-column sums, factorized."""
        ones = np.ones((self.n_rows, 1))
        return self.transpose_lmm(ones)[:, 0]

    def total_sum(self) -> float:
        """Sum of every cell of the (virtual) target table."""
        return float(self.column_sums().sum())

    def column_means(self) -> np.ndarray:
        return self.column_sums() / self.n_rows

    # -- materialization ---------------------------------------------------------------
    def materialize(self) -> np.ndarray:
        """Materialize the target table (the alternative execution strategy)."""
        self.counter.add("materialize", float(self.n_rows) * self.n_columns)
        return self.dataset.materialize()

    def row_values(self, rows: np.ndarray) -> np.ndarray:
        """``T[rows]``, gathered from those rows of the factors only
        (:func:`~repro.matrices.builder.target_row_values`): bit for bit
        the rows of :meth:`materialize`."""
        rows = np.asarray(rows, dtype=np.int64)
        self.counter.add("materialize", float(rows.size) * self.n_columns)
        return target_row_values(self.dataset, rows)

    def column(self, name: str) -> np.ndarray:
        """One target column, reconstructed without materializing the rest."""
        if name not in self.dataset.target_columns:
            raise FactorizationError(f"no target column named {name!r}")
        selector = np.zeros((self.n_columns, 1))
        selector[self.dataset.target_columns.index(name), 0] = 1.0
        return self.lmm(selector)[:, 0]

    def labels(self) -> np.ndarray:
        if self.dataset.label_column is None:
            raise FactorizationError("dataset has no label column")
        return self.column(self.dataset.label_column)

    def feature_matrix_view(self) -> "AmalurMatrix":
        """A factorized view restricted to the feature (non-label) columns."""
        if self.dataset.label_column is None:
            return self
        keep = [c for c in self.dataset.target_columns if c != self.dataset.label_column]
        return self.select_columns(keep)

    def blocked(self, columns: Optional[Sequence[str]] = None) -> BlockedMatrixView:
        """A row-block view for bounded-memory (out-of-core) execution.

        ``columns`` optionally restricts the view to a subset of target
        columns *at the plan-index level* — unlike :meth:`select_columns`
        no factor data is sliced or copied, so the view works over spilled
        (memory-mapped) factors without pulling them into RAM. Used by
        :class:`repro.learning.StreamingGD` to train on datasets larger
        than memory.
        """
        keep = None
        if columns is not None:
            missing = [n for n in columns if n not in self.dataset.target_columns]
            if missing:
                raise FactorizationError(f"unknown target columns {missing}")
            keep = np.asarray(
                [self.dataset.target_columns.index(n) for n in columns], dtype=np.intp
            )
        return BlockedMatrixView(self._plans, self.n_rows, self.n_columns, keep)

    def select_columns(self, names: Sequence[str]) -> "AmalurMatrix":
        """Project the factorized target onto a subset of its columns."""
        missing = [n for n in names if n not in self.dataset.target_columns]
        if missing:
            raise FactorizationError(f"unknown target columns {missing}")
        keep_indices = [self.dataset.target_columns.index(n) for n in names]
        factors = []
        for factor in self.dataset.factors:
            correspondences = factor.mapping.correspondences
            kept = [c for c in factor.source_columns if correspondences.get(c) in names]
            if not kept:
                continue
            col_indices = [factor.source_columns.index(c) for c in kept]
            mapping = MappingMatrix(
                factor.name, list(names), kept, {c: correspondences[c] for c in kept}
            )
            factors.append(SourceFactor(
                factor.name, factor._raw_data()[:, col_indices], kept, mapping,
                factor.indicator, factor.redundancy.select_columns(keep_indices),
                backend=factor.backend,
            ))
        if not factors:
            raise FactorizationError("column selection removed every source factor")
        label = self.dataset.label_column if self.dataset.label_column in names else None
        dataset = IntegratedDataset(
            target_columns=list(names),
            n_target_rows=self.dataset.n_target_rows,
            factors=factors,
            scenario=self.dataset.scenario,
            label_column=label,
            name=self.dataset.name,
            backend=self.dataset.backend,
        )
        return AmalurMatrix(dataset, self.counter, backend=self.backend)

    def __repr__(self) -> str:
        return (
            f"AmalurMatrix(shape={self.shape}, "
            f"sources={[f.name for f in self.dataset.factors]}, "
            f"backend={self.backend.name!r})"
        )
