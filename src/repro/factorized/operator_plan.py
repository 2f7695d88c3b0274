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
:class:`BlockedFactorView` for what it holds and costs. A block's row
form (:meth:`BlockedFactorView.row_form`) is the same :class:`RowForm`
the whole-factor Gram uses, restricted to the block's rows, so
:meth:`BlockedMatrixView.statistics` sums the Gram block by block with
the same terms (:func:`gram_terms`).

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
from functools import partial
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.backends import Backend
from repro.backends.base import Storage, stored_cells
from repro.factorized.ops_counter import FactorStats
from repro.matrices.builder import SourceFactor, as_slice
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


def row_form_of(
    backend: Backend,
    stored: Storage,
    targets,
    inverse: Optional[np.ndarray],
    n_targets: int,
    columns: np.ndarray,
    redundancy=None,
) -> RowForm:
    """The :class:`RowForm` of ``stored`` rows placed on ``n_targets``
    target rows: covered target ``targets[i]`` reads row ``inverse[i]`` of
    ``stored`` (row ``i`` when ``inverse`` is ``None``), restricted to the
    stored ``columns``.

    ``redundancy`` is ``R_k`` over the covered target rows × those
    columns, or ``None`` without redundancy. With it, cells differ per
    target row, so the rows are gathered one per covered target row and
    the mask is applied to them; without it the rows stay as stored and
    ``weighted`` carries each row's multiplicity when one is not 1. Both
    the whole-factor form (:meth:`OperatorPlan.row_form`) and a row
    block's (:meth:`BlockedFactorView.row_form`) are built here.
    """
    if inverse is not None and redundancy is not None:
        stored, inverse = backend.take_rows(stored, inverse), None
    rows = stored
    if not np.array_equal(columns, np.arange(stored.shape[1])):
        rows = backend.take_columns(stored, columns)
    codes = np.full(n_targets, -1, dtype=np.intp)
    codes[targets] = np.arange(rows.shape[0]) if inverse is None else inverse
    weighted = None
    if redundancy is not None:
        # Mask-aware slicing: R_k restricted to the covered rows × kept
        # columns zeroes the redundant cells without densifying, in
        # whatever format the backend stores the rows.
        rows = backend.apply_redundancy(rows, redundancy)
    elif inverse is not None:
        multiplicity = np.bincount(inverse, minlength=rows.shape[0])
        if (multiplicity != 1).any():
            weighted = backend.elementwise_multiply(
                rows, multiplicity.astype(np.float64)[:, None]
            )
    return RowForm(rows, codes, weighted)


def cross_operands(forms: Sequence[RowForm], k: int, j: int) -> Tuple[int, int, sparse.csr_matrix]:
    """``(outer, inner, C)`` of the cross term between row forms ``k < j``
    over the same target rows: the term is ``rows_outerᵀ (C rows_inner)``
    with ``C = I_outerᵀ I_inner`` as CSR (one entry per target row both
    cover), in the order with fewer multiply-adds by shape."""
    form_k, form_l = forms[k], forms[j]
    codes_k, codes_l = form_k.codes, form_l.codes
    shared = (codes_k >= 0) & (codes_l >= 0)
    (n_k, c_k), (n_l, c_l) = form_k.rows.shape, form_l.rows.shape
    composed = sparse.csr_matrix(
        (np.ones(np.count_nonzero(shared)), (codes_k[shared], codes_l[shared])),
        shape=(n_k, n_l),
    )
    if composed.nnz * c_l + n_k * c_k * c_l <= composed.nnz * c_k + n_l * c_k * c_l:
        return k, j, composed
    return j, k, composed.T.tocsr()


class GramTerm(NamedTuple):
    """One term of ``TᵀT`` over row forms, ``outerᵀ (composed inner)``,
    placed at ``gram[index]`` and, for a cross term, transposed at
    ``gram[transposed]``. A same-source term has no ``composed``: it is
    ``outerᵀ inner`` with ``inner`` the form's ``weighted`` rows, or
    ``outerᵀ outer`` when ``inner`` is ``None`` (``I_kᵀ I_k`` is the
    diagonal of row multiplicities)."""

    outer: Storage
    composed: Optional[sparse.csr_matrix]
    inner: Optional[Storage]
    index: Tuple[np.ndarray, np.ndarray]
    transposed: Optional[Tuple[np.ndarray, np.ndarray]]

    def compute(self, backend: Backend, rows: Optional[slice] = None) -> np.ndarray:
        """The term, or with ``rows`` its partial over those rows of
        ``outer``: the composed indicator segment-sums ``inner`` onto the
        rows of ``outer`` before the multiply."""
        outer, composed, inner = self.outer, self.composed, self.inner
        if rows is not None:
            outer = backend.take_rows(outer, rows)
            if composed is not None:
                composed = backend.take_rows(composed, rows)
            elif inner is not None:
                inner = backend.take_rows(inner, rows)
        if composed is not None:
            return backend.gram_pair(outer, _segment_sums(composed, inner))
        if inner is None:
            return backend.crossprod(outer)
        return backend.gram_pair(outer, inner)

    def add_to(self, gram: np.ndarray, value: np.ndarray) -> None:
        """Add ``value`` (the term or a partial of it) into ``gram``."""
        gram[self.index] += value
        if self.transposed is not None:
            gram[self.transposed] += value.T


def _segment_sums(composed: sparse.csr_matrix, inner: Storage) -> Storage:
    """``composed @ inner``. SciPy's CSR kernel copies a dense operand into
    C order before it reads it, and the stored rows of a column selection
    are F-ordered: such an operand goes one contiguous column at a time,
    the same sums in the same order without the copy. The cross term of
    ``resident_dense_redundant`` (80 000 × 2 operand) ran 1.39 → 0.67 ms
    and ``resident_onehot_sparse``'s (70 000 × 4) 1.32 → 0.63 ms (2 cores,
    BLAS on one thread, medians of 201 alternated calls)."""
    if isinstance(inner, np.ndarray) and not inner.flags.c_contiguous and inner.flags.f_contiguous:
        out = np.empty((composed.shape[0], inner.shape[1]))
        for j in range(inner.shape[1]):
            out[:, j] = composed @ inner[:, j]
        return out
    return composed @ inner


def gram_terms(
    forms: Sequence[RowForm],
    cols: Sequence[np.ndarray],
    operands: Callable[[Sequence[RowForm], int, int], Tuple] = cross_operands,
) -> Iterator[GramTerm]:
    """The terms of ``TᵀT`` over ``forms``, whose columns sit at target
    positions ``cols``, in a fixed order: factor ``k``'s same-source term,
    then its cross term with every later factor ``j`` whose rows meet its
    own. ``operands(forms, k, j)`` orients a cross term (default
    :func:`cross_operands`; the composed indicator depends on the row maps
    only, so a caller may cache it). Both the whole-matrix Gram
    (``AmalurMatrix.crossprod``) and a row block's
    (:meth:`BlockedMatrixView.statistics`) sum these terms; each chooses
    its blocking and its reduction order."""
    for k, form in enumerate(forms):
        yield GramTerm(form.rows, None, form.weighted, np.ix_(cols[k], cols[k]), None)
        for j in range(k + 1, len(forms)):
            outer, inner, composed = operands(forms, k, j)
            if composed.nnz:
                yield GramTerm(
                    forms[outer].rows, composed, forms[inner].rows,
                    np.ix_(cols[outer], cols[inner]), np.ix_(cols[inner], cols[outer]),
                )


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
            # A redundant cell holding 0 stays an explicit entry, so the
            # correction stores exactly the cells R_k marks (the count the
            # cost model reads from the metadata).
            values = factor.cells(source_rows[mapped], source_cols[mapped])
            self._correction = sparse.csr_matrix(
                (values, (target_rows, target_cols)),
                shape=(factor.indicator.n_target_rows, factor.mapping.n_target_columns),
            )
        return self._correction

    def stats(self) -> FactorStats:
        """What the price list reads of this factor: the stored cells the
        kernels touch, the mapped rows and columns, and the stored entries
        of the correction."""
        return FactorStats(
            stored=stored_cells(self.storage),
            rows=self.n_mapped_rows,
            cols=self.n_mapped_cols,
            correction=int(self.correction().nnz) if self.has_correction else 0,
            csr=sparse.issparse(self.storage),
        )

    def row_form(self) -> RowForm:
        """The rows this factor's Gram terms multiply — see the module
        docstring. Cached until :meth:`invalidate`."""
        if self._row_form is not None:
            if _telemetry.ENABLED:
                _telemetry.counter_add("plan_cache.row_form.hit")
            return self._row_form
        if _telemetry.ENABLED:
            _telemetry.counter_add("plan_cache.row_form.miss")
        redundancy = None
        if self.has_correction:
            redundancy = self.factor.redundancy.submatrix(self.target_rows, self.target_cols)
        self._row_form = row_form_of(
            self.backend, self.storage, self.target_rows, self.source_rows,
            self.factor.indicator.n_target_rows, self.source_cols, redundancy,
        )
        return self._row_form

    def __repr__(self) -> str:
        return (
            f"OperatorPlan({self.factor.name!r}, mapped_rows={self.n_mapped_rows}, "
            f"mapped_cols={self.n_mapped_cols}, injective={self.rows_injective}, "
            f"correction={self.has_correction})"
        )


def _take_rows(array: np.ndarray, rows) -> np.ndarray:
    """``array[rows]``: a view for a ``slice``, else a gather by ``np.take``,
    which copies whole rows where 2-D fancy indexing goes element by
    element (40 000 rows out of 4 000: 111 → 49 µs at one column, 493 →
    58 µs at four)."""
    return array[rows] if isinstance(rows, slice) else np.take(array, rows, axis=0)


def distinct_source_rows(
    source: np.ndarray, n_source_rows: int, n_block_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(source, return_inverse=True)`` for the ``source`` rows a
    block of ``n_block_rows`` target rows reads from a ``D_k`` of
    ``n_source_rows`` rows: the distinct rows ascending, and where each
    entry of ``source`` sits among them.

    Against a ``D_k`` no larger than the block, a mark over its rows finds
    the distinct rows and a cumulative count ranks them, in time linear in
    the block, without the sort (40 000 rows into 4 000: 0.21 ms, where
    ``np.unique`` took 1.21 ms); a larger ``D_k`` keeps ``np.unique``.
    """
    if n_source_rows > n_block_rows:
        return np.unique(source, return_inverse=True)
    touched = np.zeros(n_source_rows, dtype=bool)
    touched[source] = True
    rank = np.cumsum(touched, dtype=np.intp)
    rank -= 1
    return np.flatnonzero(touched), rank[source]


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
        out[self.targets] += local if self.inverse is None else _take_rows(local, self.inverse)

    def project(self, x_block: np.ndarray) -> np.ndarray:
        """``I_k[block]ᵀ @ x_block`` — one row per entry of ``rows``."""
        if self.inverse is None:
            return _take_rows(x_block, self.targets)
        if self.injective:
            projected = np.zeros((self.n_rows, x_block.shape[1]))
            projected[self.inverse] = _take_rows(x_block, self.targets)
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
        "sel_source_cols", "sel_target_cols", "sel_target_pos",
        "correction", "_kept", "_spilled",
    )

    def __init__(self, plan: OperatorPlan, keep_targets: Optional[np.ndarray] = None):
        self.plan = plan
        self.backend = plan.backend
        self.storage = plan.storage
        n_target_columns = plan.factor.mapping.n_target_columns
        if keep_targets is None:
            self.sel_source_cols = plan.source_cols
            self.sel_target_cols = self.sel_target_pos = plan.target_cols
        else:
            keep_targets = np.asarray(keep_targets, dtype=np.intp)
            new_position = np.full(n_target_columns, -1, dtype=np.int64)
            new_position[keep_targets] = np.arange(keep_targets.size)
            kept = new_position[plan.target_cols] >= 0
            self.sel_source_cols = plan.source_cols[kept]
            #: The selected columns' target indices, and their positions in the view.
            self.sel_target_cols = plan.target_cols[kept]
            self.sel_target_pos = new_position[self.sel_target_cols].astype(np.intp)
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
            distinct, inverse = distinct_source_rows(source, plan.n_source_rows, stop - start)
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

    def row_form(self, start: int, stop: int) -> Optional[RowForm]:
        """The block's :class:`RowForm` over the view's columns — the rows
        of ``D_k`` target rows ``[start, stop)`` read, masked by ``R_k`` as
        :meth:`OperatorPlan.row_form` masks them, with ``codes`` relative
        to ``start`` — or ``None`` when the block covers none of the
        factor's rows. Reads the rows through :meth:`storage_rows`."""
        spec = self.block(start, stop)
        if not spec.n_rows:
            return None
        plan = self.plan
        targets = spec.targets
        if isinstance(targets, slice):
            targets = np.arange(targets.start, targets.stop)
        redundancy = None
        if plan.has_correction:
            redundancy = plan.factor.redundancy.submatrix(targets + start, self.sel_target_cols)
        return row_form_of(
            self.backend, self.storage_rows(spec.rows), targets, spec.inverse,
            stop - start, self.sel_source_cols, redundancy,
        )

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
    backing storage lives on disk — logistic GD walks the blocks once per
    iteration. :meth:`statistics` gathers the Gram and column sums of the
    view (and of an explicit label vector) in one pass over the blocks,
    with the Gram kernels of ``AmalurMatrix.crossprod``: least squares
    trains from those alone, reading the spill once. Constructed via
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

    def statistics(
        self,
        block_rows: int,
        labels: Optional[np.ndarray] = None,
        *,
        workers: int = 1,
        on_block: Optional[Callable[[], None]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(AᵀA, Aᵀ1)`` of ``A = [T y]`` in one pass over the rows: the
        Gram and the column sums of the view, with the explicit ``labels``
        vector ``y`` as one more, last column when given (a label column
        of the dataset is selected into the view instead).

        Each block of the ``block_rows`` grid reads its rows of every
        ``D_k`` once (:meth:`BlockedFactorView.row_form`) and adds the
        Gram terms over them — ``rows_kᵀ (I_kᵀ I_l) rows_l``, the kernels
        of ``AmalurMatrix.crossprod`` — and ``rows_kᵀ (I_kᵀ [1 y])``. The
        blocks map through ``imap_ordered`` over ``workers`` and their
        partials reduce in block order, so the bits depend on the grid
        only; ``on_block`` runs on the calling thread as each block
        retires. The result takes ``(c+1)² × 8`` bytes, a partial per
        block in flight; while a block runs, a masked row form (a copy)
        and a cross term's ``composed @ inner`` are block-sized.
        """
        blocks = self.row_blocks(block_rows)
        width = self.n_columns + (labels is not None)
        gram, sums = np.zeros((width, width)), np.zeros(width)
        for block_gram, block_sums in _parallel.imap_ordered(
            partial(self._block_statistics, labels=labels), blocks, workers=workers,
            label="statistics",
        ):
            gram += block_gram
            sums += block_sums
            if on_block is not None:
                on_block()
        return gram, sums

    def _block_statistics(
        self, bounds: Tuple[int, int], labels: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One block's partial of :meth:`statistics`."""
        start, stop = bounds
        width = self.n_columns + (labels is not None)
        gram, sums = np.zeros((width, width)), np.zeros(width)
        present = [
            (factor.sel_target_pos, form) for factor in self.factors
            if (form := factor.row_form(start, stop)) is not None
        ]
        backend = self.factors[0].backend if self.factors else None
        # The vectors every factor's rows meet: 1 (column sums) and y.
        vectors = [np.ones(stop - start)]
        if labels is not None:
            y = np.asarray(labels[start:stop], dtype=np.float64)
            vectors.append(y)
            gram[-1, -1] += y @ y
            sums[-1] += y.sum()
        for cols, form in present:
            covered = form.codes >= 0
            projected = np.column_stack([
                np.bincount(form.codes[covered], weights=v[covered], minlength=form.rows.shape[0])
                for v in vectors
            ])
            local = backend.transpose_matmul(form.rows, projected)
            sums[cols] += local[:, 0]
            if labels is not None:
                gram[cols, -1] += local[:, 1]
                gram[-1, cols] += local[:, 1]
        for term in gram_terms([form for _, form in present], [cols for cols, _ in present]):
            term.add_to(gram, term.compute(backend))
        return gram, sums
