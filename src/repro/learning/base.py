"""Common interface shared by dense and factorized data matrices.

Estimators in :mod:`repro.learning` interact with their input only through
the operations defined here (LMM, transpose-LMM, cross-product, shapes),
so the same training code runs unchanged over a dense numpy array or an
:class:`repro.factorized.AmalurMatrix` (over any integrated dataset, the
star-schema joins of :func:`repro.matrices.builder.star_schema` included).
"""

from __future__ import annotations

from typing import Protocol, Tuple, Union, runtime_checkable

import numpy as np

from repro.exceptions import FactorizationError


@runtime_checkable
class LinearOperand(Protocol):
    """Anything that supports the matrix operations estimators need."""

    @property
    def shape(self) -> Tuple[int, int]: ...

    def lmm(self, x: np.ndarray) -> np.ndarray: ...

    def transpose_lmm(self, x: np.ndarray) -> np.ndarray: ...

    def crossprod(self) -> np.ndarray: ...

    def materialize(self) -> np.ndarray: ...


class DenseMatrix:
    """Adapter giving a plain numpy array the :class:`LinearOperand` interface."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise FactorizationError(f"expected a 2-D matrix, got shape {data.shape}")
        self._data = data

    @property
    def shape(self) -> Tuple[int, int]:
        return self._data.shape

    @property
    def n_rows(self) -> int:
        return self._data.shape[0]

    @property
    def n_columns(self) -> int:
        return self._data.shape[1]

    def lmm(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        return self._data @ x

    def rmm(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        return x @ self._data

    def transpose_lmm(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        return self._data.T @ x

    def crossprod(self) -> np.ndarray:
        return self._data.T @ self._data

    def square(self) -> "DenseMatrix":
        return DenseMatrix(self._data * self._data)

    def row_sums(self) -> np.ndarray:
        return self._data.sum(axis=1)

    def column_sums(self) -> np.ndarray:
        return self._data.sum(axis=0)

    def total_sum(self) -> float:
        return float(self._data.sum())

    def materialize(self) -> np.ndarray:
        return self._data.copy()

    def row_values(self, rows: np.ndarray) -> np.ndarray:
        return self._data[rows]

    def __repr__(self) -> str:
        return f"DenseMatrix(shape={self.shape})"


OperandLike = Union[np.ndarray, LinearOperand]


def as_linop(data: OperandLike) -> LinearOperand:
    """Wrap a numpy array in :class:`DenseMatrix`; pass operands through."""
    if isinstance(data, np.ndarray):
        return DenseMatrix(data)
    if isinstance(data, LinearOperand):
        return data
    raise FactorizationError(
        f"cannot use object of type {type(data).__name__} as a data matrix"
    )
