"""Redundancy matrices ``R_k`` (paper §III-C), stored as their redundant cells.

``R_k`` has the shape of the target table ``(r_T, c_T)``; ``R_k[i, j] = 0``
when the cell ``T_k[i, j]`` of the contribution ``T_k = I_k D_k M_kᵀ``
repeats a value already provided by an earlier source (typically the base
table), and ``1`` otherwise.

:class:`RedundancyMatrix` keeps only the *complement* of that mask — the
redundant (zero) cells — as one canonical CSR matrix (float64 ones, sorted
indices, no duplicates), or ``None`` when nothing is redundant. That is the
form every consumer reads: an operator plan gathers its correction from the
complement's coordinates, and a row form restricts it with
:meth:`~RedundancyMatrix.submatrix` before :meth:`~RedundancyMatrix.apply`.
``apply`` preserves the contribution's storage format: a CSR contribution
stays CSR.

Bytes. A base table's ``R_k`` holds its shape only: 0 B of payload at any
target size. Any other ``R_k`` holds
``nbytes ≤ 12·n_redundant + 8·(r_T + 1)``: 8 B of data and 4 B of column
index per redundant cell, plus the row pointer. The explicit float64 mask
costs ``8·r_T·c_T`` and is smaller only above 2/3 redundancy; the heaviest
``R_k`` the end-to-end workloads build sits at 1/3 (``serving_mixed``) and
13 % (``csv_facade_train``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import MappingError

#: Cells one validation pass over a dense mask touches at once. Bounds every
#: temporary to ~1 MiB of bools instead of full-mask copies.
_SCAN_CHUNK_CELLS = 1 << 20


def _complement_from_mask(mask: np.ndarray) -> sparse.csr_matrix:
    """CSR of the zero cells of a dense mask, checked binary (NaN rejected
    explicitly) and built one row block at a time, row pointer and column
    indices directly: no coordinate arrays."""
    n_rows, n_columns = mask.shape
    rows_per_block = max(1, _SCAN_CHUNK_CELLS // max(n_columns, 1))
    row_counts = np.zeros(n_rows + 1, dtype=np.int64)
    col_chunks = [np.empty(0, dtype=np.int32)]
    for start in range(0, n_rows, rows_per_block):
        block = mask[start : start + rows_per_block]
        if block.dtype.kind == "f" and np.isnan(block).any():
            raise MappingError("redundancy matrix must not contain NaN")
        zeros = block == 0
        if not np.logical_or(zeros, block == 1).all():
            raise MappingError("redundancy matrix must be binary")
        row_counts[start + 1 : start + 1 + block.shape[0]] = zeros.sum(axis=1)
        col_chunks.append(np.nonzero(zeros)[1].astype(np.int32))
    indices = np.concatenate(col_chunks)
    indptr = np.cumsum(row_counts)
    return sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=mask.shape)


class RedundancyMatrix:
    """Marks the redundant cells of a source's contribution to the target.

    ``RedundancyMatrix(source_name, shape, complement)`` takes the
    redundant cells as anything SciPy reads as a matrix whose *non-zero*
    cells are the redundant ones (a boolean overlap mask, a COO/CSR of
    rectangle coordinates, ...), or ``None`` for nothing redundant. The
    complement is copied into canonical CSR, so the caller keeps its
    matrix. Named constructors:

    * :meth:`all_ones` — the base table's matrix (nothing redundant);
    * :meth:`from_complement` — the constructor under the name the
      builders call;
    * :meth:`from_rectangle` — an overlap rectangle's row × column sets;
    * :meth:`from_mask` — an explicit dense 0/1 mask from outside the
      engine (tests, benchmarks), validated.

    Equality is semantic: two matrices compare equal iff they have one
    shape and mask the same cells.
    """

    def __init__(self, source_name: str, shape: Tuple[int, int], complement=None):
        n_rows, n_columns = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_columns < 0:
            raise MappingError(f"invalid redundancy matrix shape {tuple(shape)!r}")
        self.source_name = source_name
        self._shape = (n_rows, n_columns)
        self._complement: Optional[sparse.csr_matrix] = None
        if complement is None:
            return
        if sparse.issparse(complement):
            comp = complement.tocsr()
        else:
            comp = sparse.csr_matrix(np.asarray(complement))
        if comp.shape != self._shape:
            raise MappingError(
                f"complement shape {comp.shape} does not match target shape {self._shape}"
            )
        comp = comp.astype(np.float64)  # always a copy
        comp.sum_duplicates()
        comp.eliminate_zeros()
        if comp.nnz:
            comp.data[:] = 1.0
            self._complement = comp

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def all_ones(
        cls, source_name: str, n_target_rows: int, n_target_columns: int
    ) -> "RedundancyMatrix":
        """The base table's redundancy matrix: nothing is redundant, O(1)
        memory regardless of the target shape."""
        return cls(source_name, (n_target_rows, n_target_columns))

    @classmethod
    def from_complement(
        cls, source_name: str, shape: Tuple[int, int], complement
    ) -> "RedundancyMatrix":
        """The matrix whose redundant cells are ``complement``'s non-zeros;
        the dense ``r_T × c_T`` mask is never materialized."""
        return cls(source_name, shape, complement)

    @classmethod
    def from_rectangle(
        cls,
        source_name: str,
        shape: Tuple[int, int],
        redundant_rows,
        redundant_columns,
    ) -> "RedundancyMatrix":
        """The matrix of an overlap rectangle ``rows × columns`` — the
        builder's common case — built from the two index sets."""
        shape = (int(shape[0]), int(shape[1]))
        rows = np.unique(np.asarray(redundant_rows, dtype=np.int64).ravel())
        cols = np.unique(np.asarray(redundant_columns, dtype=np.int64).ravel())
        if rows.size and (rows[0] < 0 or rows[-1] >= shape[0]):
            raise MappingError("redundant row index out of range")
        if cols.size and (cols[0] < 0 or cols[-1] >= shape[1]):
            raise MappingError("redundant column index out of range")
        if not (rows.size and cols.size):
            return cls(source_name, shape)
        cells = (np.repeat(rows, cols.size), np.tile(cols, rows.size))
        complement = sparse.csr_matrix((np.ones(cells[0].size), cells), shape=shape)
        return cls(source_name, shape, complement)

    @classmethod
    def from_mask(cls, source_name: str, mask) -> "RedundancyMatrix":
        """The matrix of an explicit dense 0/1 mask (zeros are redundant).

        For input from outside the engine: the mask must be 2-D and binary,
        NaN is rejected, and the caller keeps its array.
        """
        if sparse.issparse(mask):
            mask = mask.toarray()
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise MappingError("redundancy matrix must be 2-D")
        return cls(source_name, mask.shape, _complement_from_mask(mask))

    # -- shapes ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def size(self) -> int:
        return self._shape[0] * self._shape[1]

    @property
    def n_redundant(self) -> int:
        return 0 if self._complement is None else int(self._complement.nnz)

    @property
    def redundancy_ratio(self) -> float:
        return self.n_redundant / self.size if self.size else 0.0

    @property
    def is_trivial(self) -> bool:
        """True when nothing is redundant (all-ones matrix)."""
        return self._complement is None

    @property
    def nbytes(self) -> int:
        """Bytes of the complement actually allocated (0 when trivial)."""
        comp = self._complement
        if comp is None:
            return 0
        return int(comp.data.nbytes + comp.indices.nbytes + comp.indptr.nbytes)

    @property
    def dense_nbytes(self) -> int:
        """Bytes the dense ``r_T × c_T`` float64 encoding would allocate."""
        return self.size * np.dtype(np.float64).itemsize

    # -- representations ------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The explicit ``r_T × c_T`` 0/1 mask (allocates; escape hatch only)."""
        mask = np.ones(self._shape, dtype=np.float64)
        if self._complement is not None:
            mask[self._complement.nonzero()] = 0.0
        return mask

    def to_sparse_complement(self) -> sparse.csr_matrix:
        """A copy of the redundant (zero) cells as CSR — usually tiny."""
        if self._complement is None:
            return sparse.csr_matrix(self._shape, dtype=np.float64)
        return self._complement.copy()

    # -- application ----------------------------------------------------------------
    def apply(self, contribution):
        """Zero the redundant cells of a contribution ``T_k`` (Hadamard with
        the mask), preserving the contribution's storage format: dense in →
        dense out, CSR in → CSR out. A trivial matrix returns the
        (float64, target-shaped) contribution itself."""
        if sparse.issparse(contribution):
            coerced = contribution.tocsr()
            if coerced.dtype != np.float64:
                coerced = coerced.astype(np.float64)
        else:
            coerced = np.asarray(contribution, dtype=np.float64)
        if coerced.shape != self._shape:
            raise MappingError(
                f"contribution shape {coerced.shape} does not match redundancy "
                f"matrix shape {self._shape}"
            )
        if self._complement is None:
            return coerced
        if sparse.issparse(coerced):
            masked = (coerced - coerced.multiply(self._complement)).tocsr()
            masked.eliminate_zeros()
            return masked
        out = coerced.copy()
        out[self._complement.nonzero()] = 0.0
        return out

    # -- slicing --------------------------------------------------------------------
    def select_columns(self, indices: Sequence[int]) -> "RedundancyMatrix":
        """The redundancy matrix of a column projection of the target."""
        indices = list(indices)
        shape = (self._shape[0], len(indices))
        if self._complement is None:
            return RedundancyMatrix(self.source_name, shape)
        return RedundancyMatrix(self.source_name, shape, self._complement[:, indices])

    def submatrix(self, rows, columns) -> "RedundancyMatrix":
        """The redundancy matrix restricted to given target rows × columns."""
        rows = np.asarray(rows, dtype=int)
        columns = list(columns)
        shape = (rows.size, len(columns))
        if self._complement is None:
            return RedundancyMatrix(self.source_name, shape)
        return RedundancyMatrix(self.source_name, shape, self._complement[rows][:, columns])

    # -- aggregate masks -------------------------------------------------------------
    def column_mask(self) -> np.ndarray:
        """Per-target-column redundancy: fraction of redundant rows per column."""
        if self._complement is None:
            return np.zeros(self._shape[1])
        return np.asarray(self._complement.sum(axis=0)).ravel() / self._shape[0]

    def row_mask(self) -> np.ndarray:
        """Per-target-row redundancy: fraction of redundant columns per row."""
        if self._complement is None:
            return np.zeros(self._shape[0])
        return np.asarray(self._complement.sum(axis=1)).ravel() / self._shape[1]

    # -- comparison -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RedundancyMatrix):
            return NotImplemented
        if self._shape != other._shape or self.n_redundant != other.n_redundant:
            return False
        return self._complement is None or (self._complement != other._complement).nnz == 0

    def __repr__(self) -> str:
        return (
            f"RedundancyMatrix({self.source_name!r}, shape={self._shape}, "
            f"redundant={self.n_redundant})"
        )
