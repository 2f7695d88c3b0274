"""The compute-backend protocol: storage-engine-agnostic linear algebra.

A :class:`Backend` decides *how* a source factor's data matrix ``D_k`` is
physically stored (dense ``numpy.ndarray`` vs. SciPy CSR) and executes the
linear-algebra primitives the factorized operator rewrites of paper §IV-A
need — matmul, transpose-matmul, cross-product, element-wise ops, sums —
over that storage. The structured factorized representation
``(D_k, M_k, I_k, R_k)`` stays identical across backends; only the storage
and kernels change, mirroring how the paper separates the logical
representation (§III-A..C) from the physical one (§III-D).

With telemetry on, each kernel call records its time and multiply-adds
(``backend.<kernel>.flops``), counted over the cells the kernel touches:
``nnz`` for CSR storage, every cell for dense storage.

Operand matrices (model weights, gradients) are always dense — only the
factor data is candidate for sparse storage — so every operation returns a
dense ``numpy.ndarray`` unless documented otherwise.
"""

from __future__ import annotations

import abc
import time
from typing import Union

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.exceptions import BackendError

#: A backend-prepared data matrix: dense ndarray or any SciPy sparse matrix.
Storage = Union[np.ndarray, sparse.spmatrix]


def is_sparse(storage: Storage) -> bool:
    """True when ``storage`` is a SciPy sparse matrix."""
    return sparse.issparse(storage)


def storage_nnz(storage: Storage) -> int:
    """Number of stored non-zero cells of a storage matrix."""
    if sparse.issparse(storage):
        return int(storage.nnz)
    return int(np.count_nonzero(storage))


def stored_cells(storage: Storage) -> int:
    """Cells a kernel over ``storage`` touches: the stored entries of a
    sparse matrix, every cell of a dense one."""
    return int(storage.nnz) if sparse.issparse(storage) else int(storage.size)


def storage_density(storage: Storage) -> float:
    """Fraction of non-zero cells (1.0 for an empty matrix)."""
    rows, cols = storage.shape
    total = rows * cols
    return storage_nnz(storage) / total if total else 1.0


def as_float64(x) -> np.ndarray:
    """``x`` as a float64 ndarray, without copying float64 ndarray input.

    The operand-validation fast path of the factorized operators: model
    weights and residuals are float64 already, so per-iteration calls must
    not re-copy (or even re-inspect dtype via ``np.asarray``) on the way
    in.
    """
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


def to_dense(storage: Storage) -> np.ndarray:
    """Densify a storage matrix into a 2-D float ndarray."""
    if sparse.issparse(storage):
        return np.asarray(storage.todense(), dtype=np.float64)
    return np.atleast_2d(np.asarray(storage, dtype=np.float64))


def _as_dense_result(result) -> np.ndarray:
    """Normalize a matmul result (ndarray, matrix, or sparse) to an ndarray."""
    if sparse.issparse(result):
        return np.asarray(result.todense(), dtype=np.float64)
    return np.asarray(result, dtype=np.float64)


def _kernel(name: str, compute, flops) -> np.ndarray:
    """``compute()`` as a dense result; with telemetry on, record its time
    and ``flops()`` multiply-adds under ``name``."""
    if not _telemetry.ENABLED:
        return _as_dense_result(compute())
    start = time.perf_counter()
    result = _as_dense_result(compute())
    _telemetry.record_op(name, time.perf_counter() - start, flops())
    return result


class Backend(abc.ABC):
    """Physical compute engine for factor data matrices.

    Subclasses choose a storage format in :meth:`prepare`; all the generic
    operations dispatch on the storage type, so a backend that mixes
    formats per factor (:class:`repro.backends.AutoBackend`) works through
    the same code paths.
    """

    #: Registry/display name ("dense", "sparse", "auto").
    name: str = "backend"

    # -- storage ---------------------------------------------------------------------
    @abc.abstractmethod
    def prepare(self, data: Storage) -> Storage:
        """Convert raw factor data into this backend's preferred storage."""

    @property
    def storage_cache_key(self):
        """Hashable token identifying what :meth:`prepare` produces.

        Two backends with the same key must prepare identical storage, so
        prepared matrices can be shared between them. The conservative
        default keys by instance identity; stateless built-ins override it
        with their name so separately-resolved instances share a cache.
        """
        return self

    def is_sparse_storage(self, storage: Storage) -> bool:
        return is_sparse(storage)

    # -- introspection ---------------------------------------------------------------
    def nnz(self, storage: Storage) -> int:
        return storage_nnz(storage)

    def density(self, storage: Storage) -> float:
        return storage_density(storage)

    def to_dense(self, storage: Storage) -> np.ndarray:
        return to_dense(storage)

    # -- core linear algebra ---------------------------------------------------------
    def matmul(self, storage: Storage, operand: np.ndarray) -> np.ndarray:
        """``D @ X`` for a dense operand ``X``; always returns dense."""
        operand = np.asarray(operand, dtype=np.float64)
        if storage.shape[1] != operand.shape[0]:
            raise BackendError(
                f"matmul shape mismatch: {storage.shape} @ {operand.shape}"
            )
        return _kernel("backend.matmul", lambda: storage @ operand,
                       lambda: self.matmul_flops(storage, operand.shape[1]))

    def transpose_matmul(self, storage: Storage, operand: np.ndarray) -> np.ndarray:
        """``Dᵀ @ X`` for a dense operand ``X``; always returns dense."""
        operand = np.asarray(operand, dtype=np.float64)
        if storage.shape[0] != operand.shape[0]:
            raise BackendError(
                f"transpose-matmul shape mismatch: {storage.shape}ᵀ @ {operand.shape}"
            )
        return _kernel("backend.transpose_matmul", lambda: storage.T @ operand,
                       lambda: self.matmul_flops(storage, operand.shape[1]))

    def crossprod(self, storage: Storage) -> np.ndarray:
        """The Gram matrix ``Dᵀ D`` (dense result)."""
        return _kernel("backend.crossprod", lambda: storage.T @ storage,
                       lambda: self.crossprod_flops(storage))

    def gram_pair(self, left: Storage, right: Storage) -> np.ndarray:
        """The cross term ``Lᵀ R`` between two storages (dense result)."""
        if left.shape[0] != right.shape[0]:
            raise BackendError(
                f"gram-pair shape mismatch: {left.shape}ᵀ @ {right.shape}"
            )
        return _kernel("backend.gram_pair", lambda: left.T @ right,
                       lambda: self.gram_pair_flops(left, right))

    # -- element-wise ----------------------------------------------------------------
    def scale(self, storage: Storage, alpha: float) -> Storage:
        """``alpha * D`` in the same storage format."""
        return storage * alpha

    def elementwise_multiply(self, storage: Storage, mask) -> Storage:
        """Hadamard product ``D ∘ mask`` in the same storage format.

        ``mask`` is an array (broadcast against ``D``) or, for a CSR ``D``,
        a sparse matrix of its shape — ``D`` itself for ``D ∘ D``.
        """
        if sparse.issparse(storage):
            if not sparse.issparse(mask):
                mask = np.asarray(mask, dtype=np.float64)
            return storage.multiply(mask).tocsr()
        return storage * np.asarray(mask, dtype=np.float64)

    def apply_redundancy(self, storage: Storage, redundancy) -> Storage:
        """Zero the redundant cells marked by a ``RedundancyMatrix``.

        Dispatches to ``RedundancyMatrix.apply``, which preserves the
        storage format (a CSR storage stays CSR, dense stays dense) and
        never materializes a dense ``r × c`` mask.
        """
        return redundancy.apply(storage)

    # -- aggregations ----------------------------------------------------------------
    def row_sums(self, storage: Storage) -> np.ndarray:
        return np.asarray(storage.sum(axis=1), dtype=np.float64).reshape(-1)

    def column_sums(self, storage: Storage) -> np.ndarray:
        return np.asarray(storage.sum(axis=0), dtype=np.float64).reshape(-1)

    def total_sum(self, storage: Storage) -> float:
        return float(storage.sum())

    # -- row/column extraction -----------------------------------------------------------
    def take_rows(self, storage: Storage, rows) -> Storage:
        """A subset of rows, preserving the storage format.

        An index array gathers (copies) the rows. A unit-step ``slice``
        copies no cell: dense storage (resident or ``np.memmap``) is
        basic-sliced into a view, and a CSR storage gets a new header
        over views of its ``data`` / ``indices`` with a rebased
        ``indptr`` (the full range returns ``storage`` itself).
        """
        if not isinstance(rows, slice):
            return storage[np.asarray(rows, dtype=np.intp)]
        if not sparse.issparse(storage):
            return storage[rows]
        start, stop, _ = rows.indices(storage.shape[0])
        if (start, stop) == (0, storage.shape[0]):
            return storage
        storage = storage.tocsr()  # no copy when already CSR
        lo, hi = storage.indptr[start], storage.indptr[stop]
        return sparse.csr_matrix(
            (storage.data[lo:hi], storage.indices[lo:hi], storage.indptr[start:stop + 1] - lo),
            shape=(stop - start, storage.shape[1]),
            copy=False,
        )

    def take_columns(self, storage: Storage, columns) -> Storage:
        """Gather a subset of columns, preserving the storage format.

        ``columns`` may be any integer sequence or ndarray; a CSR storage
        is sliced through CSC so it never densifies.
        """
        columns = np.asarray(columns, dtype=np.intp)
        if sparse.issparse(storage):
            return storage.tocsc()[:, columns].tocsr()
        return storage[:, columns]

    # -- scatter/gather kernels (operator plans) -----------------------------------------
    def scatter_add(
        self,
        out: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        unique: bool = True,
    ) -> np.ndarray:
        """Accumulate ``values`` onto the ``indices`` rows of dense ``out``.

        With ``unique=True`` (no index appears twice — the mapping/indicator
        compressed vectors guarantee this for target rows and columns) the
        accumulation is a single fancy-indexed ``+=``; duplicate-tolerant
        callers get the unbuffered ``np.add.at`` instead. ``out`` is
        modified in place and returned.
        """
        if unique:
            out[indices] += values
        else:
            np.add.at(out, indices, values)
        return out

    # -- FLOP accounting hooks ---------------------------------------------------------
    def matmul_flops(self, storage: Storage, m: int) -> float:
        """Multiply-adds of ``D @ X`` with ``X`` having ``m`` columns."""
        return float(stored_cells(storage)) * m

    def crossprod_flops(self, storage: Storage) -> float:
        """Multiply-adds of ``Dᵀ D``: each stored cell meets at most every
        column of its row (the exact count for dense storage)."""
        return float(stored_cells(storage)) * storage.shape[1]

    def gram_pair_flops(self, left: Storage, right: Storage) -> float:
        """Multiply-adds of ``Lᵀ R``: the stored cells of the sparse side
        (of ``L`` when neither is) times the other side's width."""
        if sparse.issparse(right) and not sparse.issparse(left):
            return float(right.nnz) * left.shape[1]
        return float(stored_cells(left)) * right.shape[1]

    # -- misc ------------------------------------------------------------------------
    def describe(self, storage: Storage) -> str:
        kind = "csr" if sparse.issparse(storage) else "dense"
        return (
            f"{self.name}[{kind} {storage.shape[0]}x{storage.shape[1]}, "
            f"nnz={self.nnz(storage)}]"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
