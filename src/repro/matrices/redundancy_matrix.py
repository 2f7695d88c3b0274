"""Redundancy matrices ``R_k`` (paper §III-C), stored by what they cost.

``R_k`` has the shape of the target table ``(r_T, c_T)``; ``R_k[i, j] = 0``
when the cell ``T_k[i, j]`` of the contribution ``T_k = I_k D_k M_kᵀ``
repeats a value already provided by an earlier source (typically the base
table), and ``1`` otherwise.

A dense ``r_T × c_T`` float mask is the natural textbook encoding but a
terrible physical one: the base table's mask is *always* all ones, and a
non-base mask usually zeroes only a small overlap rectangle. At the scales
the sparse compute backends unlock (a 1M×10k one-hot factor is ~12 MB as
CSR) an all-ones mask would still allocate 80 GB. This module therefore
keeps the *logical* redundancy matrix behind one interface with three
physical representations:

* :class:`TrivialRedundancy` — the all-ones matrix stored lazily (shape
  only, O(1) memory); ``apply()`` is a no-op.
* :class:`SparseComplementRedundancy` — only the redundant (zero) cells,
  as a CSR "complement"; the common overlapping-rectangle case.
* :class:`DenseRedundancy` — the explicit mask, kept as the fallback for
  heavily redundant masks where CSR bookkeeping stops paying off.

Calling ``RedundancyMatrix(name, mask)`` auto-picks the representation
from the redundancy ratio, using the same
:data:`repro.costmodel.parameters.SPARSE_DENSITY_THRESHOLD` the compute
backends and the analytical cost model dispatch on — storage of ``R_k``
and storage of ``D_k`` reason from one constant. All representations are
semantically interchangeable: ``apply``, ``column_mask``, ``row_mask``,
``redundancy_ratio`` and ``__eq__`` agree cell-for-cell (the parity tests
assert this), and ``apply()`` preserves the contribution's storage format
— a CSR contribution stays CSR.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import MappingError

#: Cells a validation / complement-extraction pass may touch at once. Bounds
#: every temporary to ~1 MiB of bools instead of the full-mask copies
#: ``np.isin`` used to allocate.
_SCAN_CHUNK_CELLS = 1 << 20


def _mask_sparsity_threshold() -> float:
    """The shared sparse-dispatch threshold (lazy import: costmodel pulls in
    the factorized layer, which imports this module)."""
    from repro.costmodel.parameters import SPARSE_DENSITY_THRESHOLD

    return SPARSE_DENSITY_THRESHOLD


def _iter_row_blocks(mask: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start_row, block)`` views covering ``mask`` chunk by chunk."""
    n_rows, n_columns = mask.shape
    rows_per_block = max(1, _SCAN_CHUNK_CELLS // max(n_columns, 1))
    for start in range(0, n_rows, rows_per_block):
        yield start, mask[start : start + rows_per_block]


def _validate_and_count_redundant(mask: np.ndarray) -> int:
    """Check a mask is binary (NaN rejected explicitly) and count its zeros.

    Runs in bounded memory: temporaries never exceed one row block, unlike
    the former ``np.isin(mask, (0, 1))`` which allocated several full-size
    copies of the mask.
    """
    n_redundant = 0
    for _, block in _iter_row_blocks(mask):
        if block.dtype.kind == "f" and np.isnan(block).any():
            raise MappingError("redundancy matrix must not contain NaN")
        zeros = block == 0
        if not np.logical_or(zeros, block == 1).all():
            raise MappingError("redundancy matrix must be binary")
        n_redundant += int(np.count_nonzero(zeros))
    return n_redundant


def _complement_from_mask(mask: np.ndarray) -> sparse.csr_matrix:
    """CSR matrix of the redundant (zero) cells of a dense 0/1 mask."""
    row_chunks = []
    col_chunks = []
    for start, block in _iter_row_blocks(mask):
        rows, cols = np.nonzero(block == 0)
        row_chunks.append(rows + start)
        col_chunks.append(cols)
    rows = np.concatenate(row_chunks) if row_chunks else np.empty(0, dtype=np.intp)
    cols = np.concatenate(col_chunks) if col_chunks else np.empty(0, dtype=np.intp)
    data = np.ones(rows.size, dtype=np.float64)
    return sparse.csr_matrix((data, (rows, cols)), shape=mask.shape)


class RedundancyMatrix:
    """Marks redundant cells in a source's contribution to the target.

    This is the polymorphic interface; instantiating it directly is the
    *auto constructor*: ``RedundancyMatrix(name, mask)`` validates the
    dense 0/1 mask and returns the representation its redundancy ratio
    warrants (see module docstring). Use the classmethods to construct
    without ever materializing a dense mask:

    * :meth:`all_ones` — the base table's matrix (nothing redundant);
    * :meth:`from_complement` — from a (sparse) matrix of redundant cells;
    * :meth:`from_rectangle` — from an overlap rectangle's row/column
      index sets.

    Equality is semantic: two representations compare equal iff they mask
    the same cells, regardless of physical storage.
    """

    source_name: str
    _shape: Tuple[int, int]

    def __new__(cls, *args, **kwargs):
        if cls is not RedundancyMatrix:
            return super().__new__(cls)
        return cls.auto(*args, **kwargs)

    # NOTE on the dispatching constructor: after ``__new__`` returns a
    # subclass instance, Python re-invokes ``type(obj).__init__`` with the
    # original ``(source_name, mask)`` arguments. Every subclass
    # ``__init__`` therefore starts with a ``_built`` guard (and absorbs
    # surplus ``*_args``/``**_kwargs``) making that second call a no-op.

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def auto(cls, source_name: str, mask) -> "RedundancyMatrix":
        """Pick the cheapest representation for a dense 0/1 mask.

        Trivial when nothing is redundant; a CSR complement while the
        redundancy ratio stays at or below the shared
        ``SPARSE_DENSITY_THRESHOLD``; the dense mask otherwise.
        """
        if sparse.issparse(mask):
            mask = np.asarray(mask.todense())
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise MappingError("redundancy matrix must be 2-D")
        n_redundant = _validate_and_count_redundant(mask)
        if n_redundant == 0:
            return TrivialRedundancy(source_name, mask.shape)
        if n_redundant <= _mask_sparsity_threshold() * mask.size:
            complement = _complement_from_mask(mask)
            return SparseComplementRedundancy._prevalidated(source_name, complement)
        # Defensive copy: the caller keeps ownership of its mask array.
        return DenseRedundancy._prevalidated(source_name, mask.astype(np.float64), n_redundant)

    @classmethod
    def all_ones(
        cls, source_name: str, n_target_rows: int, n_target_columns: int
    ) -> "TrivialRedundancy":
        """The base table's redundancy matrix: nothing is redundant.

        Stored lazily — O(1) memory regardless of the target shape.
        """
        return TrivialRedundancy(source_name, (n_target_rows, n_target_columns))

    @classmethod
    def from_complement(
        cls,
        source_name: str,
        shape: Tuple[int, int],
        complement,
    ) -> "RedundancyMatrix":
        """Auto-pick a representation from the redundant cells themselves.

        ``complement`` is anything SciPy can read as a matrix whose
        *non-zero* cells are the redundant ones (a boolean overlap mask, a
        COO/CSR of rectangle coordinates, ...). The dense ``r_T × c_T``
        mask is only materialized if the redundancy ratio exceeds
        ``SPARSE_DENSITY_THRESHOLD`` and the dense fallback is selected.
        """
        shape = (int(shape[0]), int(shape[1]))
        if sparse.issparse(complement):
            comp = complement.tocsr()
        else:
            comp = sparse.csr_matrix(np.asarray(complement))
        if comp.shape != shape:
            raise MappingError(f"complement shape {comp.shape} does not match target shape {shape}")
        comp = comp.astype(np.float64)
        comp.sum_duplicates()
        comp.eliminate_zeros()
        if comp.nnz == 0:
            return TrivialRedundancy(source_name, shape)
        comp.data = np.ones_like(comp.data)
        if comp.nnz <= _mask_sparsity_threshold() * shape[0] * shape[1]:
            return SparseComplementRedundancy._prevalidated(source_name, comp)
        mask = np.ones(shape, dtype=np.float64)
        coo = comp.tocoo()
        mask[coo.row, coo.col] = 0.0
        return DenseRedundancy._prevalidated(source_name, mask, int(comp.nnz))

    @classmethod
    def from_rectangle(
        cls,
        source_name: str,
        shape: Tuple[int, int],
        redundant_rows,
        redundant_columns,
    ) -> "RedundancyMatrix":
        """Representation for an overlap rectangle ``rows × columns``.

        Builds the CSR complement directly from the two index sets — the
        builder's common case — without a dense intermediate.
        """
        shape = (int(shape[0]), int(shape[1]))
        rows = np.unique(np.asarray(redundant_rows, dtype=np.int64).ravel())
        cols = np.unique(np.asarray(redundant_columns, dtype=np.int64).ravel())
        if rows.size and (rows[0] < 0 or rows[-1] >= shape[0]):
            raise MappingError("redundant row index out of range")
        if cols.size and (cols[0] < 0 or cols[-1] >= shape[1]):
            raise MappingError("redundant column index out of range")
        n_redundant = rows.size * cols.size
        if n_redundant == 0:
            return TrivialRedundancy(source_name, shape)
        if n_redundant > _mask_sparsity_threshold() * shape[0] * shape[1]:
            # Heavy rectangle: fill the dense mask directly — the coordinate
            # arrays a CSR detour would allocate cost several times more.
            mask = np.ones(shape, dtype=np.float64)
            mask[np.ix_(rows, cols)] = 0.0
            return DenseRedundancy._prevalidated(source_name, mask, n_redundant)
        row_idx = np.repeat(rows, cols.size)
        col_idx = np.tile(cols, rows.size)
        comp = sparse.csr_matrix(
            (np.ones(n_redundant, dtype=np.float64), (row_idx, col_idx)), shape=shape
        )
        return SparseComplementRedundancy._prevalidated(source_name, comp)

    # -- shapes ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def size(self) -> int:
        return self._shape[0] * self._shape[1]

    @property
    def n_redundant(self) -> int:
        raise NotImplementedError

    @property
    def redundancy_ratio(self) -> float:
        return self.n_redundant / self.size if self.size else 0.0

    @property
    def is_trivial(self) -> bool:
        """True when nothing is redundant (all-ones matrix)."""
        return self.n_redundant == 0

    @property
    def nbytes(self) -> int:
        """Bytes of the mask payload actually allocated by this representation."""
        raise NotImplementedError

    @property
    def dense_nbytes(self) -> int:
        """Bytes the dense ``r_T × c_T`` float64 encoding would allocate."""
        return self.size * np.dtype(np.float64).itemsize

    # -- representations ------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The explicit ``r_T × c_T`` 0/1 mask (allocates; escape hatch only)."""
        raise NotImplementedError

    def to_sparse_complement(self) -> sparse.csr_matrix:
        """Sparse matrix of the redundant (zero) cells — usually tiny."""
        raise NotImplementedError

    # -- application ----------------------------------------------------------------
    def apply(self, contribution):
        """Zero the redundant cells of a contribution ``T_k`` (Hadamard with
        the mask), preserving the contribution's storage format: dense in →
        dense out, CSR in → CSR out."""
        raise NotImplementedError

    def _coerce_contribution(self, contribution):
        """Normalize a contribution (array-like or SciPy sparse) to float64
        CSR / ndarray and check it is target-shaped."""
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
        return coerced

    # -- slicing --------------------------------------------------------------------
    def select_columns(self, indices: Sequence[int]) -> "RedundancyMatrix":
        """The redundancy matrix of a column projection of the target."""
        raise NotImplementedError

    def submatrix(self, rows, columns) -> "RedundancyMatrix":
        """The redundancy matrix restricted to given target rows × columns."""
        raise NotImplementedError

    # -- aggregate masks -------------------------------------------------------------
    def column_mask(self) -> np.ndarray:
        """Per-target-column redundancy: fraction of redundant rows per column."""
        counts = np.asarray(self.to_sparse_complement().sum(axis=0)).ravel()
        return counts / self._shape[0] if self._shape[0] else counts

    def row_mask(self) -> np.ndarray:
        """Per-target-row redundancy: fraction of redundant columns per row."""
        counts = np.asarray(self.to_sparse_complement().sum(axis=1)).ravel()
        return counts / self._shape[1] if self._shape[1] else counts

    # -- comparison -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RedundancyMatrix):
            return NotImplemented
        if self._shape != other._shape:
            return False
        if self.n_redundant != other.n_redundant:
            return False
        if self.n_redundant == 0:
            return True
        difference = self.to_sparse_complement() != other.to_sparse_complement()
        return difference.nnz == 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.source_name!r}, shape={self._shape}, "
            f"redundant={self.n_redundant})"
        )


class TrivialRedundancy(RedundancyMatrix):
    """The all-ones redundancy matrix, stored lazily (shape only).

    ``apply()`` is a no-op: the contribution is returned unchanged (after a
    shape check), whatever its storage format. This is the base table's
    matrix and the common case for disjoint-column star joins, so the
    representation that used to dominate memory now costs O(1).
    """

    def __init__(self, source_name: str = "", shape: Tuple[int, int] = (0, 0), *_args, **_kwargs):
        if getattr(self, "_built", False):
            return  # re-init after the dispatching __new__; already constructed
        n_rows, n_columns = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_columns < 0:
            raise MappingError(f"invalid redundancy matrix shape {shape!r}")
        self.source_name = source_name
        self._shape = (n_rows, n_columns)
        self._built = True

    @property
    def n_redundant(self) -> int:
        return 0

    @property
    def nbytes(self) -> int:
        return 0

    def to_dense(self) -> np.ndarray:
        return np.ones(self._shape, dtype=np.float64)

    def to_sparse_complement(self) -> sparse.csr_matrix:
        return sparse.csr_matrix(self._shape, dtype=np.float64)

    def apply(self, contribution):
        return self._coerce_contribution(contribution)

    def select_columns(self, indices: Sequence[int]) -> "TrivialRedundancy":
        return TrivialRedundancy(self.source_name, (self._shape[0], len(list(indices))))

    def submatrix(self, rows, columns) -> "TrivialRedundancy":
        return TrivialRedundancy(self.source_name, (len(list(rows)), len(list(columns))))

    def column_mask(self) -> np.ndarray:
        return np.zeros(self._shape[1], dtype=np.float64)

    def row_mask(self) -> np.ndarray:
        return np.zeros(self._shape[0], dtype=np.float64)


class SparseComplementRedundancy(RedundancyMatrix):
    """Stores only the redundant cells, as a CSR complement.

    The usual non-trivial case: redundancy is an overlap rectangle
    (overlapping rows × overlapping columns), a vanishing fraction of the
    target. Memory is O(nnz) of the complement instead of O(r_T · c_T).
    """

    def __init__(self, source_name: str = "", complement=None, shape=None, *_args, **_kwargs):
        if getattr(self, "_built", False):
            return  # re-init after the dispatching __new__; already constructed
        if sparse.issparse(complement):
            comp = complement.tocsr()
        else:
            comp = sparse.csr_matrix(np.asarray(complement))
        comp = comp.astype(np.float64)
        comp.sum_duplicates()
        comp.eliminate_zeros()
        if comp.nnz:
            comp.data = np.ones_like(comp.data)
        if shape is not None and (int(shape[0]), int(shape[1])) != comp.shape:
            raise MappingError(
                f"complement shape {comp.shape} does not match target shape {tuple(shape)}"
            )
        self._setup(source_name, comp)

    @classmethod
    def _prevalidated(cls, source_name: str, complement: sparse.csr_matrix):
        """Internal constructor for complements this module built itself
        (canonical CSR, float64, all-ones data): skips re-normalization."""
        instance = cls.__new__(cls)
        instance._setup(source_name, complement)
        return instance

    def _setup(self, source_name: str, complement: sparse.csr_matrix) -> None:
        self.source_name = source_name
        self._shape = (int(complement.shape[0]), int(complement.shape[1]))
        self._complement = complement
        self._coordinates = None
        self._built = True

    @property
    def n_redundant(self) -> int:
        return int(self._complement.nnz)

    @property
    def nbytes(self) -> int:
        comp = self._complement
        return int(comp.data.nbytes + comp.indices.nbytes + comp.indptr.nbytes)

    def _coords(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._coordinates is None:
            coo = self._complement.tocoo()
            self._coordinates = (coo.row, coo.col)
        return self._coordinates

    def to_dense(self) -> np.ndarray:
        mask = np.ones(self._shape, dtype=np.float64)
        rows, cols = self._coords()
        mask[rows, cols] = 0.0
        return mask

    def to_sparse_complement(self) -> sparse.csr_matrix:
        return self._complement.copy()

    def apply(self, contribution):
        coerced = self._coerce_contribution(contribution)
        if sparse.issparse(coerced):
            masked = (coerced - coerced.multiply(self._complement)).tocsr()
            masked.eliminate_zeros()
            return masked
        out = coerced.copy()
        rows, cols = self._coords()
        out[rows, cols] = 0.0
        return out

    def select_columns(self, indices: Sequence[int]) -> RedundancyMatrix:
        indices = list(indices)
        sliced = self._complement.tocsc()[:, indices].tocsr()
        return RedundancyMatrix.from_complement(
            self.source_name, (self._shape[0], len(indices)), sliced
        )

    def submatrix(self, rows, columns) -> RedundancyMatrix:
        rows = np.asarray(rows, dtype=int)
        columns = list(columns)
        sliced = self._complement[rows][:, columns]
        return RedundancyMatrix.from_complement(self.source_name, (rows.size, len(columns)), sliced)


class DenseRedundancy(RedundancyMatrix):
    """The explicit dense 0/1 mask — the fallback representation.

    Appropriate only when redundancy is heavy (ratio above the dispatch
    threshold), where per-cell CSR bookkeeping would cost more than the
    mask itself. The constructor copies the caller's mask; masks built by
    this module take the no-copy :meth:`_prevalidated` path.
    """

    def __init__(self, source_name: str = "", mask=None, *_args, **_kwargs):
        if getattr(self, "_built", False):
            return  # re-init after the dispatching __new__; already constructed
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise MappingError("redundancy matrix must be 2-D")
        n_redundant = _validate_and_count_redundant(mask)
        # astype always copies, so the caller keeps ownership of its array.
        self._setup(source_name, mask.astype(np.float64), n_redundant)

    @classmethod
    def _prevalidated(cls, source_name: str, mask: np.ndarray, n_redundant: int):
        """Internal constructor for masks this module built (or already
        scanned) itself: takes ownership without re-validating or copying."""
        instance = cls.__new__(cls)
        instance._setup(source_name, mask, n_redundant)
        return instance

    def _setup(self, source_name: str, mask: np.ndarray, n_redundant: int) -> None:
        self.source_name = source_name
        self._mask = mask
        self._shape = (int(mask.shape[0]), int(mask.shape[1]))
        self._n_redundant = n_redundant
        self._built = True

    @property
    def n_redundant(self) -> int:
        return self._n_redundant

    @property
    def nbytes(self) -> int:
        return int(self._mask.nbytes)

    def to_dense(self) -> np.ndarray:
        return self._mask.copy()

    def to_sparse_complement(self) -> sparse.csr_matrix:
        return _complement_from_mask(self._mask)

    def apply(self, contribution):
        coerced = self._coerce_contribution(contribution)
        if sparse.issparse(coerced):
            row_idx = np.repeat(np.arange(coerced.shape[0]), np.diff(coerced.indptr))
            data = coerced.data * self._mask[row_idx, coerced.indices]
            masked = sparse.csr_matrix(
                (data, coerced.indices.copy(), coerced.indptr.copy()), shape=coerced.shape
            )
            masked.eliminate_zeros()
            return masked
        return coerced * self._mask

    def _sliced(self, mask_slice: np.ndarray) -> RedundancyMatrix:
        """Re-dispatch a (freshly copied, known-valid) slice of the mask:
        projecting away the redundant region should drop back to the trivial
        or sparse representation instead of staying dense forever."""
        n_redundant = int(mask_slice.size - np.count_nonzero(mask_slice))
        if n_redundant == 0:
            return TrivialRedundancy(self.source_name, mask_slice.shape)
        if n_redundant <= _mask_sparsity_threshold() * mask_slice.size:
            complement = _complement_from_mask(mask_slice)
            return SparseComplementRedundancy._prevalidated(self.source_name, complement)
        return DenseRedundancy._prevalidated(self.source_name, mask_slice, n_redundant)

    def select_columns(self, indices: Sequence[int]) -> RedundancyMatrix:
        return self._sliced(self._mask[:, list(indices)])

    def submatrix(self, rows, columns) -> RedundancyMatrix:
        rows = np.asarray(rows, dtype=int)
        columns = np.asarray(list(columns), dtype=int)
        return self._sliced(self._mask[np.ix_(rows, columns)])

    def column_mask(self) -> np.ndarray:
        return 1.0 - self._mask.mean(axis=0)

    def row_mask(self) -> np.ndarray:
        return 1.0 - self._mask.mean(axis=1)
