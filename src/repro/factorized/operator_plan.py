"""Compiled per-factor operator plans for the §IV-A rewrites.

An :class:`OperatorPlan` is built once per source factor when an
:class:`~repro.factorized.normalized_matrix.AmalurMatrix` is constructed.
It precomputes every index array the LMM / RMM / transpose-LMM /
cross-product hot loops need from the compressed mapping (``CM_k``) and
indicator (``CI_k``) vectors, so the per-iteration paths of gradient
descent run as pure NumPy fancy indexing and CSR kernels with **zero
Python-level per-element loops**.

What is precomputed
-------------------
* ``target_cols`` / ``source_cols`` — mapped target-column indices and the
  corresponding source-column indices (from ``CM_k``). They drive the
  operand-row gather of LMM (``M_kᵀ X``) and the column/row scatter of
  RMM / transpose-LMM (``M_k`` on the result side). Both index lists are
  duplicate-free by construction (a mapping matrix has at most one ``1``
  per row and per column), so scatters are single fancy-indexed ``+=``.
* ``target_rows`` / ``source_rows`` — mapped target-row indices and the
  corresponding source-row indices (from ``CI_k``). They drive the
  indicator lift of LMM (``I_k ·``) and the row projection of RMM /
  transpose-LMM (``I_kᵀ ·``).
* ``projector`` — only for many-to-one joins (one source row feeding
  several target rows): ``I_kᵀ`` as a CSR matrix, so the row accumulation
  runs as one compiled sparse-times-dense matmul. 1:1 joins skip it and
  use plain fancy indexing.
* the factor's **row form** for ``crossprod`` (:class:`RowForm`), cached
  after the first Gram: ``rows``, the stored rows every Gram term
  multiplies, restricted to the mapped columns; ``codes``, which maps each
  target row to its row of ``rows`` (or ``-1``); and ``weighted``, ``rows``
  times each row's multiplicity, kept only when a multiplicity is not 1.
  Without redundancy ``rows`` is ``D_k`` itself (column-sliced unless every
  column is mapped in order) and ``codes`` is ``CI_k``, so a many-to-one
  factor stays in the source dimension. With redundancy ``R_k`` makes
  cells differ per target row, so ``rows`` holds the covered rows with
  ``R_k`` applied — source-sized for a 1:1 factor — and ``codes`` their
  positions. A cross term multiplies two row forms through their
  **composed indicator** ``C_kl = I_kᵀ I_l`` (see ``AmalurMatrix.crossprod``),
  which depends on the row maps only and so outlives :meth:`invalidate`.
* the sparse **correction matrix** holding the values of the factor's
  redundant cells, cached after first use by any operator.

Row blocks
----------
:class:`BlockedMatrixView` / :class:`BlockedFactorView` execute the same
rewrites one target-row block at a time — for bounded-memory training
over spilled factors, and as the engine of ``AmalurMatrix.lmm`` /
``transpose_lmm`` (one block when serial). They multiply in the source
dimension: a block multiplies its distinct source rows of ``D_k`` — never
more than ``min(block rows, r_Sk)`` — and a contiguous range of them is a
*view* of the storage, not a gather. The per-block row structure (:class:`BlockRows`)
is kept for the blocks of the view's current grid only; see
:class:`BlockedFactorView` for what it holds and costs.

When plans are invalidated
--------------------------
A plan is immutable and tied to one ``(factor, storage, backend)``
triple. Every operation that yields a different factorization —
``AmalurMatrix.with_backend``, ``select_columns``, ``scale`` — returns a
*new* ``AmalurMatrix``, which builds fresh plans (and a fresh Gram cache)
for its own factors; existing plans are never mutated, so stale index
arrays cannot leak across views.
"""

from __future__ import annotations

import threading
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.backends import Backend
from repro.backends.base import Storage
from repro.matrices.builder import SourceFactor
from repro.reliability import faults as _faults
from repro.reliability.retry import SPILL_RETRY


def row_grid(n_rows: int, block_rows: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` bounds of the fewest blocks of at most
    ``block_rows`` rows that cover ``n_rows``, evenly sized — a ragged
    last block would leave its worker idle while the others finish
    (70 000 rows cut 65 536 + 4 464 ran a 20-iteration GD fit at 0.65× of
    one worker on two cores, 35 000 + 35 000 at 0.81×). A pure function
    of the two counts, never of the worker count."""
    n_blocks = -(-n_rows // max(1, int(block_rows)))
    edges = [n_rows * i // n_blocks for i in range(n_blocks + 1)] if n_blocks else [0]
    return list(zip(edges[:-1], edges[1:]))


def as_slice(index: np.ndarray):
    """``index`` as a ``slice`` when it is a non-empty ascending run of
    consecutive integers — indexing with it then yields a view instead of
    a copy — and unchanged otherwise."""
    n = index.size
    if n and index[-1] - index[0] == n - 1 and bool((index[1:] - index[:-1] == 1).all()):
        return slice(int(index[0]), int(index[0]) + n)
    return index


class GramCache:
    """Single-slot cache of a view's Gram matrix with hit/miss/evict stats.

    :meth:`repro.factorized.AmalurMatrix.crossprod` stores ``TᵀT`` here;
    the factors of a view are immutable, so the cache only ever needs
    explicit invalidation (serving-layer refreshes, tests). Hits, misses
    and evictions are counted locally and — when telemetry is enabled —
    mirrored into the session counters ``gram_cache.hit`` / ``.miss`` /
    ``.evict``.

    All mutations happen under one lock, so concurrent serving requests
    (or parallel-engine workers) racing on a cold cache compute the Gram
    once and count exactly one miss.
    """

    __slots__ = ("value", "hits", "misses", "evictions", "_lock")

    def __init__(self):
        self.value: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def get_or_compute(self, compute) -> np.ndarray:
        with self._lock:
            if self.value is not None:
                self.hits += 1
                if _telemetry.ENABLED:
                    _telemetry.counter_add("gram_cache.hit")
                return self.value
            self.misses += 1
            if _telemetry.ENABLED:
                _telemetry.counter_add("gram_cache.miss")
            self.value = compute()
            return self.value

    def invalidate(self) -> None:
        """Drop the cached Gram (the next ``get_or_compute`` recomputes)."""
        with self._lock:
            if self.value is not None:
                self.evictions += 1
                if _telemetry.ENABLED:
                    _telemetry.counter_add("gram_cache.evict")
            self.value = None

    def seed(self, value: np.ndarray) -> None:
        """Install an externally maintained Gram (read-only) without
        counting a miss — the serving layer's incrementally updated
        ``TᵀT`` lands here so the first ``crossprod`` after a delta batch
        is a hit instead of a full recompute."""
        value = np.array(value, dtype=np.float64)  # own copy: caller keeps mutating theirs
        value.setflags(write=False)
        with self._lock:
            self.value = value
        if _telemetry.ENABLED:
            _telemetry.counter_add("gram_cache.seed")

    @property
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cached" if self.value is not None else "empty"
        return f"GramCache({state}, hits={self.hits}, misses={self.misses})"


class RowForm(NamedTuple):
    """One factor's operands of ``TᵀT`` (see the module docstring): the
    same-source term is ``rowsᵀ weighted`` (``rowsᵀ rows`` when
    ``weighted`` is ``None``) and ``codes`` places ``rows`` on the target."""

    rows: Storage
    codes: np.ndarray
    weighted: Optional[Storage]


class OperatorPlan:
    """Precomputed gather/scatter structure of one source factor.

    See the module docstring for what is precomputed and when plans are
    rebuilt. All arrays exposed here are read-only views shared with the
    factor's mapping/indicator caches — cheap to hold, safe to index with.
    """

    __slots__ = (
        "factor",
        "storage",
        "backend",
        "n_source_columns",
        "n_source_rows",
        "target_cols",
        "source_cols",
        "target_rows",
        "source_rows",
        "rows_injective",
        "projector",
        "n_mapped_rows",
        "n_mapped_cols",
        "has_correction",
        "_correction",
        "_row_form",
    )

    def __init__(self, factor: SourceFactor, storage: Storage, backend: Backend):
        self.factor = factor
        self.storage = storage
        self.backend = backend
        mapping = factor.mapping
        indicator = factor.indicator
        self.n_source_columns = mapping.n_source_columns
        self.n_source_rows = indicator.n_source_rows
        # Column maps (CM_k): duplicate-free on both sides.
        self.target_cols = mapping.mapped_target_indices()
        self.source_cols = mapping.mapped_source_indices()
        # Row maps (CI_k): target side duplicate-free, source side only for
        # 1:1 joins.
        self.target_rows = indicator.mapped_target_rows()
        self.source_rows = indicator.mapped_source_rows()
        self.rows_injective = indicator.is_injective
        self.n_mapped_rows = int(self.target_rows.size)
        self.n_mapped_cols = int(self.target_cols.size)
        # I_kᵀ as CSR for the many-to-one accumulation; 1:1 joins scatter
        # with fancy indexing instead (cheaper than a sparse matmul).
        self.projector: Optional[sparse.csr_matrix] = None
        if not self.rows_injective:
            self.projector = sparse.csr_matrix(
                (
                    np.ones(self.n_mapped_rows, dtype=np.float64),
                    (self.source_rows, self.target_rows),
                ),
                shape=(self.n_source_rows, indicator.n_target_rows),
            )
        self.has_correction = not factor.redundancy.is_trivial
        self._correction: Optional[sparse.csr_matrix] = None
        self._row_form: Optional[RowForm] = None

    # -- mapping-side kernels (columns) ----------------------------------------------------
    def scatter_add_columns(self, out: np.ndarray, local: np.ndarray) -> None:
        """``out += local @ M_kᵀ`` — scatter source columns of ``local`` onto
        the mapped target columns of ``out`` (RMM)."""
        out[:, self.target_cols] += local[:, self.source_cols]

    # -- indicator-side kernels (rows) -----------------------------------------------------
    def project_rows(self, x: np.ndarray) -> np.ndarray:
        """``I_kᵀ X`` — accumulate target rows onto source rows (r_Sk × m)."""
        if self.rows_injective:
            out = np.zeros((self.n_source_rows, x.shape[1]))
            out[self.source_rows] = x[self.target_rows]
            return out
        return self.projector @ x

    def invalidate(self) -> None:
        """Drop the lazily cached correction and row form (both copy
        ``D_k``) after the underlying factor's data changed in place; the
        index arrays themselves are still valid as long as the factor's
        shape and maps are unchanged."""
        self._correction = None
        self._row_form = None
        if _telemetry.ENABLED:
            _telemetry.counter_add("plan_cache.invalidate")

    # -- cached heavy structure ------------------------------------------------------------
    def correction(self) -> sparse.csr_matrix:
        """Sparse matrix with the values of this factor's redundant cells.

        Subtracting ``correction @ x`` (or transposes thereof) turns the
        cheap unmasked rewrite into the exact masked result. Cached after
        the first build; only meaningful when ``has_correction``.
        """
        if self._correction is not None:
            if _telemetry.ENABLED:
                _telemetry.counter_add("plan_cache.correction.hit")
            return self._correction
        if _telemetry.ENABLED:
            _telemetry.counter_add("plan_cache.correction.miss")
        if self._correction is None:
            factor = self.factor
            complement = factor.redundancy.to_sparse_complement().tocoo()
            target_rows = np.asarray(complement.row, dtype=np.intp)
            target_cols = np.asarray(complement.col, dtype=np.intp)
            compressed_rows = np.asarray(factor.indicator.compressed)
            compressed_cols = np.asarray(factor.mapping.compressed)
            source_rows = compressed_rows[target_rows]
            source_cols = compressed_cols[target_cols]
            mapped = (source_rows >= 0) & (source_cols >= 0)
            target_rows, target_cols = target_rows[mapped], target_cols[mapped]
            # One vectorized gather over D_k (sparse storage stays sparse).
            values = factor.cells(source_rows[mapped], source_cols[mapped])
            nonzero = values != 0.0
            self._correction = sparse.csr_matrix(
                (values[nonzero], (target_rows[nonzero], target_cols[nonzero])),
                shape=(factor.indicator.n_target_rows, factor.mapping.n_target_columns),
            )
        return self._correction

    def row_form(self) -> RowForm:
        """The rows this factor's Gram terms multiply — see the module
        docstring. Cached until :meth:`invalidate`."""
        if self._row_form is not None:
            if _telemetry.ENABLED:
                _telemetry.counter_add("plan_cache.row_form.hit")
            return self._row_form
        if _telemetry.ENABLED:
            _telemetry.counter_add("plan_cache.row_form.miss")
        backend, weighted = self.backend, None
        if self.has_correction:
            rows = backend.take_columns(
                backend.take_rows(self.storage, self.source_rows), self.source_cols
            )
            # Mask-aware slicing: restrict R_k to the covered rows × mapped
            # columns without densifying, then zero the redundant cells in
            # whatever format the backend stores the rows.
            restricted = self.factor.redundancy.submatrix(self.target_rows, self.target_cols)
            rows = backend.apply_redundancy(rows, restricted)
            codes = np.full(self.factor.indicator.n_target_rows, -1, dtype=np.intp)
            codes[self.target_rows] = np.arange(self.n_mapped_rows)
        else:
            rows = self.storage
            if not np.array_equal(self.source_cols, np.arange(self.n_source_columns)):
                rows = backend.take_columns(rows, self.source_cols)
            codes = self.factor.indicator.compressed
            multiplicity = np.bincount(self.source_rows, minlength=self.n_source_rows)
            if (multiplicity != 1).any():
                weights = multiplicity.astype(np.float64)[:, None]
                weighted = backend.elementwise_multiply(rows, weights)
        self._row_form = RowForm(rows, codes, weighted)
        return self._row_form

    def __repr__(self) -> str:
        return (
            f"OperatorPlan({self.factor.name!r}, mapped_rows={self.n_mapped_rows}, "
            f"mapped_cols={self.n_mapped_cols}, injective={self.rows_injective}, "
            f"correction={self.has_correction})"
        )


class BlockRows:
    """One factor's row structure inside one target-row block.

    ``targets`` holds the block-relative positions of the target rows the
    factor covers and ``rows`` the source rows of ``D_k`` the block
    multiplies — each a ``slice`` when contiguous, so ``D_k[rows]`` and
    ``out[targets]`` are views. ``inverse`` maps every covered target row
    to its position in ``rows``; it is ``None`` when ``rows`` already
    lists one source row per covered target row, in target order (an
    injective factor read through its row map). ``injective`` says no
    position repeats in ``inverse``, so projecting is a plain scatter;
    otherwise the projector ``I_k[block]ᵀ`` is built on the first
    :meth:`project`. ``correction`` holds the block's rows of the
    factor's redundancy correction (``None`` without redundancy).
    """

    __slots__ = (
        "n_block_rows", "targets", "rows", "n_rows", "inverse", "injective", "correction",
        "_projector",
    )

    def __init__(self, n_block_rows: int, targets, rows, inverse, injective, correction):
        self.n_block_rows = n_block_rows
        self.targets = targets
        self.rows = rows
        #: Rows of ``D_k`` the block multiplies.
        self.n_rows = rows.stop - rows.start if isinstance(rows, slice) else int(rows.size)
        self.inverse = inverse
        self.injective = injective
        self.correction = correction
        self._projector: Optional[sparse.csr_matrix] = None

    def lift_add(self, out: np.ndarray, local: np.ndarray) -> None:
        """``out += I_k[block] @ local``, ``local`` holding one row per
        entry of ``rows``."""
        out[self.targets] += local if self.inverse is None else local[self.inverse]

    def project(self, x_block: np.ndarray) -> np.ndarray:
        """``I_k[block]ᵀ @ x_block`` — one row per entry of ``rows``."""
        if self.inverse is None:
            return x_block[self.targets]
        if self.injective:
            projected = np.zeros((self.n_rows, x_block.shape[1]))
            projected[self.inverse] = x_block[self.targets]
            return projected
        if self._projector is None:
            targets = self.targets
            if isinstance(targets, slice):
                targets = np.arange(targets.start, targets.stop)
            self._projector = sparse.csr_matrix(
                (np.ones(targets.size), (self.inverse, targets)),
                shape=(self.n_rows, self.n_block_rows),
            )
        return self._projector @ x_block


class BlockedFactorView:
    """Row-block execution structure of one factor.

    Work bound: a block multiplies at most ``min(block rows, r_Sk)`` rows
    of ``D_k`` — its distinct source rows, handed to the backend as a
    *view* when they are a contiguous run (resident array, ``np.memmap``
    spill and CSR alike), never a copy. Scattered rows are gathered,
    unless they cover at least half of a ``D_k`` no larger than the
    block: then ``D_k`` is multiplied where it lies and the product is
    indexed instead. Injective factors read the source rows behind the
    block's target rows; many-to-one factors multiply the block's
    distinct source rows once and lift / project through the block's
    slice of ``I_k``.

    ``plan.target_rows`` is sorted ascending (it comes from ``np.nonzero``
    over ``CI_k``), so the part of the row maps inside a target-row block
    ``[start, stop)`` is found with two ``searchsorted`` probes. The
    resulting :class:`BlockRows` — index arrays, the many-to-one
    projector, the block's correction rows — is kept for the blocks of
    the grid :meth:`BlockedMatrixView.row_blocks` last handed out; any
    other range (a serving predict window) is derived on the fly and
    dropped. A kept block costs nothing for a contiguous injective
    factor and, per covered target row of a many-to-one factor, one
    ``intp`` (``inverse``) plus one CSR entry (projector) — the order of
    the plan's own ``projector`` and row maps.

    ``keep_targets`` optionally restricts the view to a subset of target
    columns *at the index level* (``CM_k`` re-aimed at the subset's
    positions): unselected source columns meet zero operand rows, so
    ``D_k`` is never column-sliced — unlike ``AmalurMatrix.select_columns``,
    which slices ``D_k`` itself.
    """

    __slots__ = (
        "plan", "backend", "storage",
        "sel_source_cols", "sel_target_pos",
        "correction", "_kept", "_spilled",
    )

    def __init__(self, plan: OperatorPlan, keep_targets: Optional[np.ndarray] = None):
        self.plan = plan
        self.backend = plan.backend
        self.storage = plan.storage
        n_target_columns = plan.factor.mapping.n_target_columns
        if keep_targets is None:
            self.sel_source_cols = plan.source_cols
            self.sel_target_pos = plan.target_cols
        else:
            keep_targets = np.asarray(keep_targets, dtype=np.intp)
            new_position = np.full(n_target_columns, -1, dtype=np.int64)
            new_position[keep_targets] = np.arange(keep_targets.size)
            kept = new_position[plan.target_cols] >= 0
            self.sel_source_cols = plan.source_cols[kept]
            self.sel_target_pos = new_position[plan.target_cols[kept]].astype(np.intp)
        #: The factor's redundancy correction over the view's columns.
        self.correction: Optional[sparse.csr_matrix] = None
        if plan.has_correction:
            correction = plan.correction()
            if keep_targets is None:
                self.correction = correction
            else:
                self.correction = correction[:, keep_targets].tocsr()
        self._kept: dict = {}
        # Backend preparation hands a spilled factor over as a plain
        # ndarray *view* of its np.memmap, so look down the base chain.
        base = self.storage
        while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
            base = base.base
        self._spilled = isinstance(base, np.memmap)

    # -- mapping-side kernels (columns) ----------------------------------------------------
    def operand_rows(self, x: np.ndarray) -> np.ndarray:
        """``M_kᵀ X`` — gather operand rows onto source columns (c_Sk × m)."""
        gathered = np.zeros((self.plan.n_source_columns, x.shape[1]))
        gathered[self.sel_source_cols] = x[self.sel_target_pos]
        return gathered

    def scatter_add(self, out: np.ndarray, local: np.ndarray) -> None:
        """``out += M_k @ local`` — scatter source-column rows of ``local``
        onto the view's target-column rows of ``out`` (transpose-LMM)."""
        self.backend.scatter_add(out, self.sel_target_pos, local[self.sel_source_cols])

    # -- indicator-side structure (rows) ---------------------------------------------------
    def keep_blocks(self, blocks: Sequence[Tuple[int, int]]) -> None:
        """Make ``blocks`` the grid whose :class:`BlockRows` are kept."""
        self._kept = dict.fromkeys(blocks)

    def block(self, start: int, stop: int) -> BlockRows:
        """The factor's row structure inside target rows ``[start, stop)``."""
        kept = self._kept
        spec = kept.get((start, stop))
        if spec is None:
            spec = self._derive_block(start, stop)
            if (start, stop) in kept:
                kept[(start, stop)] = spec
        return spec

    def _derive_block(self, start: int, stop: int) -> BlockRows:
        plan = self.plan
        lo, hi = np.searchsorted(plan.target_rows, (start, stop), side="left")
        targets = plan.target_rows[lo:hi] - start
        source = plan.source_rows[lo:hi]
        if plan.rows_injective:
            rows, inverse, n_touched = as_slice(source), None, source.size
        else:
            distinct, inverse = np.unique(source, return_inverse=True)
            rows, n_touched = as_slice(distinct), distinct.size
        if not isinstance(rows, slice) and plan.n_source_rows <= min(stop - start, 2 * n_touched):
            # Scattered over at least half of a D_k no larger than the
            # block: multiply it where it lies and index the small
            # product. Gathering copies every row before the multiply
            # reads it again — shuffled 1:1 keys, 80 000 × 60, one operand
            # column: 10.3 ms gathered, 2.0 ms whole; the two break even
            # near a quarter of the rows touched (near half at eight
            # operand columns).
            rows, inverse = slice(0, plan.n_source_rows), source
        correction = self.correction
        if correction is not None:
            correction = self.backend.take_rows(correction, slice(start, stop))  # a view
        return BlockRows(
            stop - start, as_slice(targets), rows, inverse, plan.rows_injective, correction
        )

    def storage_rows(self, rows):
        """The rows of ``D_k`` a multiply reads, every column of them.

        This is the spill *refault* site: with a fault plan active, a
        triggered ``spill.read`` fault is retried with backoff — the read
        is pure, so a retried refault returns bit-identical data.
        """
        if _faults.ACTIVE:
            return SPILL_RETRY.call(self._storage_rows_once, rows, site="spill.read")
        return self._storage_rows_once(rows)

    def _storage_rows_once(self, rows):
        _faults.fault_point("spill.read", factor=self.plan.factor.name)
        block = self.backend.take_rows(self.storage, rows)
        if _telemetry.ENABLED and self._spilled:
            # These rows come off the spill file (or its page cache);
            # account them as spill read traffic.
            _telemetry.counter_add("spill.bytes_read", float(block.nbytes))
        return block

    # -- block kernels ---------------------------------------------------------------------
    def lmm_block_add(
        self,
        x: np.ndarray,
        start: int,
        stop: int,
        out: np.ndarray,
        product: Optional[np.ndarray] = None,
    ) -> None:
        """Add this factor's share of ``(T @ X)[start:stop]`` into ``out``,
        multiplying only the block's distinct rows of ``D_k`` — or none at
        all when the caller hands in ``product = D_k (M_kᵀ X)`` over every
        source row, computed once for all blocks."""
        spec = self.block(start, stop)
        if spec.n_rows:
            if product is None:
                local = self.backend.matmul(self.storage_rows(spec.rows), self.operand_rows(x))
            else:
                local = product[spec.rows]
            spec.lift_add(out, local)
        if spec.correction is not None:
            out -= spec.correction @ x

    def transpose_lmm_block_add(
        self, x_block: np.ndarray, start: int, stop: int, out: np.ndarray
    ) -> None:
        """Accumulate this factor's share of ``Tᵀ X`` for rows ``[start, stop)``."""
        spec = self.block(start, stop)
        if spec.n_rows:
            local = self.backend.transpose_matmul(
                self.storage_rows(spec.rows), spec.project(x_block)
            )
            self.scatter_add(out, local)
        if spec.correction is not None:
            out -= spec.correction.T @ x_block


class BlockedMatrixView:
    """Row-block view over a factorized matrix (all factors together).

    The view computes exactly what ``AmalurMatrix.lmm`` /
    ``transpose_lmm`` compute, one target-row block at a time, so
    gradient-descent training can run in bounded memory over factors whose
    backing storage lives on disk. Constructed via
    :meth:`repro.factorized.AmalurMatrix.blocked`.
    """

    def __init__(
        self,
        plans: Sequence,
        n_rows: int,
        n_target_columns: int,
        keep_targets: Optional[np.ndarray] = None,
    ):
        # A factor none of whose columns is selected contributes nothing.
        self.factors = [
            view
            for view in (BlockedFactorView(plan, keep_targets) for plan in plans)
            if view.sel_source_cols.size
        ]
        n_columns = (
            int(np.asarray(keep_targets).size)
            if keep_targets is not None
            else n_target_columns
        )
        self.shape = (int(n_rows), n_columns)
        self._grid_rows = 0
        self._grid: List[Tuple[int, int]] = []

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_columns(self) -> int:
        return self.shape[1]

    def row_blocks(self, block_rows: int) -> Sequence[Tuple[int, int]]:
        """The ``[start, stop)`` block bounds covering every target row.

        The grid handed out last is the one whose per-block row structure
        the factors keep (see :class:`BlockedFactorView`); asking for a
        different block size drops the previous grid's.
        """
        block_rows = max(1, int(block_rows))
        if block_rows != self._grid_rows:
            grid = row_grid(self.shape[0], block_rows)
            for factor in self.factors:
                factor.keep_blocks(grid)
            self._grid, self._grid_rows = grid, block_rows
        return self._grid

    def lmm_block(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        """``(T @ X)[start:stop]`` — one row block of the LMM result."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        out = np.zeros((stop - start, x.shape[1]))
        for factor in self.factors:
            factor.lmm_block_add(x, start, stop, out)
        return out

    def transpose_lmm_add(
        self, x_block: np.ndarray, start: int, stop: int, out: np.ndarray
    ) -> None:
        """Accumulate ``Tᵀ X`` contributions of rows ``[start, stop)`` into
        ``out`` (shape ``n_columns × m``); summing over all blocks yields
        exactly ``transpose_lmm`` of the stacked operand."""
        x_block = np.asarray(x_block, dtype=np.float64)
        if x_block.ndim == 1:
            x_block = x_block[:, None]
        for factor in self.factors:
            factor.transpose_lmm_block_add(x_block, start, stop, out)
