"""Indicator matrices ``I_k`` and their compressed form ``CI_k`` (paper §III-B)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import MappingError


class IndicatorMatrix:
    """Row correspondences between a source table and the target table.

    ``I_k`` has shape ``(r_T, r_Sk)`` with ``I_k[i, j] = 1`` iff the ``j``-th
    source row maps to the ``i``-th target row. The compressed form
    ``CI_k`` is a vector of length ``r_T`` whose ``i``-th entry is the
    mapped source row index (or ``-1``).

    Unlike mapping matrices, a source row may map to *several* target rows
    (a many-to-one join expands source tuples), so columns of ``I_k`` may
    contain more than one ``1``; each target row still has at most one
    source row per source.
    """

    def __init__(self, source_name: str, n_target_rows: int, n_source_rows: int,
                 compressed: Sequence[int]):
        if len(compressed) != n_target_rows:
            raise MappingError(
                f"compressed vector length {len(compressed)} != r_T {n_target_rows}"
            )
        compressed = np.asarray(compressed, dtype=np.int64)
        if compressed.size and compressed.max(initial=-1) >= n_source_rows:
            raise MappingError("compressed indicator refers to a source row out of range")
        if compressed.size and compressed.min(initial=0) < -1:
            raise MappingError("compressed indicator entries must be >= -1")
        self.source_name = source_name
        self.n_target_rows = n_target_rows
        self.n_source_rows = n_source_rows
        self._compressed = compressed
        # Cached index arrays for the fast gather/scatter paths in apply()
        # and the compiled operator plans; read-only because they are
        # shared with callers (mapped_target_rows / mapped_source_rows).
        self._mapped_mask = compressed >= 0
        self._mapped_target_indices = np.nonzero(self._mapped_mask)[0].astype(np.intp)
        self._mapped_source_indices = compressed[self._mapped_mask].astype(np.intp)
        self._mapped_target_indices.setflags(write=False)
        self._mapped_source_indices.setflags(write=False)
        self._fully_mapped = bool(self._mapped_mask.all()) if compressed.size else True
        # Injective = no source row is referenced by two target rows (a 1:1
        # join); enables the fast scatter path in apply_transpose().
        self._injective = bool(
            (np.bincount(self._mapped_source_indices, minlength=n_source_rows) <= 1).all()
        )

    # -- shapes ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return (self.n_target_rows, self.n_source_rows)

    @property
    def n_mapped(self) -> int:
        """Number of target rows this source contributes to (r_Sk mapped)."""
        return int(self._mapped_target_indices.size)

    @property
    def is_injective(self) -> bool:
        """True when no source row feeds two target rows (a 1:1 join)."""
        return self._injective

    @property
    def density(self) -> float:
        total = self.n_target_rows * self.n_source_rows
        return self.n_mapped / total if total else 0.0

    # -- representations ------------------------------------------------------------
    @property
    def compressed(self) -> np.ndarray:
        """The compressed indicator vector ``CI_k`` (copy)."""
        return self._compressed.copy()

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self._mapped_target_indices, self._mapped_source_indices] = 1.0
        return dense

    def to_sparse(self) -> sparse.csr_matrix:
        data = np.ones(self._mapped_target_indices.size, dtype=np.float64)
        return sparse.csr_matrix(
            (data, (self._mapped_target_indices, self._mapped_source_indices)),
            shape=self.shape,
        )

    def mapped_target_rows(self) -> np.ndarray:
        """Target-row indices this source covers (cached, read-only)."""
        return self._mapped_target_indices

    def mapped_source_rows(self) -> np.ndarray:
        """Source-row indices in mapped-target order (cached, read-only)."""
        return self._mapped_source_indices

    def source_row_of(self, target_row: int) -> Optional[int]:
        j = int(self._compressed[target_row])
        return j if j >= 0 else None

    # -- fast application -------------------------------------------------------------
    def apply(self, source_matrix: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Compute ``I_k @ source_matrix`` without materializing ``I_k``.

        Rows of the result corresponding to unmapped target rows are
        ``fill`` (0 by default, matching the zero contribution in Figure 4c).
        """
        source_matrix = np.atleast_2d(np.asarray(source_matrix, dtype=np.float64))
        if source_matrix.shape[0] != self.n_source_rows:
            raise MappingError(
                f"matrix with {source_matrix.shape[0]} rows cannot be lifted by indicator "
                f"expecting {self.n_source_rows} source rows"
            )
        if self._fully_mapped and fill == 0.0:
            return source_matrix[self._compressed]
        out = np.full((self.n_target_rows, source_matrix.shape[1]), fill, dtype=np.float64)
        out[self._mapped_target_indices] = source_matrix[self._mapped_source_indices]
        return out

    def apply_transpose(self, target_matrix: np.ndarray) -> np.ndarray:
        """Compute ``I_kᵀ @ target_matrix`` without materializing ``I_k``.

        This scatters/accumulates target rows back onto source rows — the
        operation needed by gradients and cross-products in factorized form.
        """
        target_matrix = np.atleast_2d(np.asarray(target_matrix, dtype=np.float64))
        if target_matrix.shape[0] != self.n_target_rows:
            raise MappingError(
                f"matrix with {target_matrix.shape[0]} rows cannot be projected by indicator "
                f"expecting {self.n_target_rows} target rows"
            )
        out = np.zeros((self.n_source_rows, target_matrix.shape[1]), dtype=np.float64)
        gathered = target_matrix[self._mapped_target_indices]
        if self._injective:
            out[self._mapped_source_indices] = gathered
        else:
            # Group-by-source-row accumulation; bincount per operand column is
            # far faster than np.add.at for the many-to-one (join) case.
            for column in range(gathered.shape[1]):
                out[:, column] = np.bincount(
                    self._mapped_source_indices,
                    weights=gathered[:, column],
                    minlength=self.n_source_rows,
                )
        return out

    # -- round-trips ----------------------------------------------------------------
    @classmethod
    def from_row_pairs(
        cls,
        source_name: str,
        n_target_rows: int,
        n_source_rows: int,
        pairs: Sequence[tuple],
    ) -> "IndicatorMatrix":
        """Build from (target_row, source_row) pairs."""
        compressed = np.full(n_target_rows, -1, dtype=np.int64)
        for target_row, source_row in pairs:
            if not 0 <= target_row < n_target_rows:
                raise MappingError(f"target row {target_row} out of range")
            if not 0 <= source_row < n_source_rows:
                raise MappingError(f"source row {source_row} out of range")
            if compressed[target_row] != -1:
                raise MappingError(f"target row {target_row} mapped twice for {source_name!r}")
            compressed[target_row] = source_row
        return cls(source_name, n_target_rows, n_source_rows, compressed)

    @classmethod
    def from_dense(
        cls, source_name: str, dense: np.ndarray
    ) -> "IndicatorMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise MappingError("indicator matrix must be 2-D")
        if not np.array_equal(dense, dense.astype(bool).astype(dense.dtype)):
            raise MappingError("indicator matrix must be binary")
        if (dense.sum(axis=1) > 1).any():
            raise MappingError("each target row maps to at most one source row")
        n_target_rows, n_source_rows = dense.shape
        compressed = np.full(n_target_rows, -1, dtype=np.int64)
        rows, cols = np.nonzero(dense)
        compressed[rows] = cols
        return cls(source_name, n_target_rows, n_source_rows, compressed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndicatorMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._compressed, other._compressed)
        )

    def __repr__(self) -> str:
        return (
            f"IndicatorMatrix({self.source_name!r}, shape={self.shape}, "
            f"mapped={self.n_mapped})"
        )
