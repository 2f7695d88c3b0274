"""Linear regression over dense or factorized feature matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.learning import gd
from repro.learning.base import OperandLike, as_linop


@dataclass
class LinearRegression:
    """Least-squares linear regression.

    Two solvers are available:

    * ``solver="gd"`` — full-batch gradient descent; every iteration needs
      one LMM (predictions) and one transpose-LMM (gradient), the two
      operators the paper's factorization rewrite targets.
    * ``solver="normal"`` — the normal equations ``(XᵀX + λI) w = Xᵀ y``,
      which exercises the factorized cross-product.

    Attributes set after :meth:`fit`: ``coef_`` (weights), ``intercept_``,
    ``loss_history_`` (for gd).
    """

    solver: str = "gd"
    learning_rate: float = 0.01
    n_iterations: int = 200
    l2_penalty: float = 0.0
    fit_intercept: bool = True
    tolerance: float = 0.0
    warm_start: bool = False
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    intercept_: float = field(default=0.0, init=False)
    loss_history_: List[float] = field(default_factory=list, init=False)

    def fit(self, features: OperandLike, targets: np.ndarray) -> "LinearRegression":
        operand = as_linop(features)
        targets = np.asarray(targets, dtype=float).ravel()
        n_rows, n_columns = operand.shape
        if targets.shape[0] != n_rows:
            raise ValueError(
                f"target vector has {targets.shape[0]} rows, features have {n_rows}"
            )
        centered_targets, target_offset = gd.centre(targets, self.fit_intercept)
        if self.solver == "normal":
            self.coef_ = self._fit_normal(operand, centered_targets)
        elif self.solver == "gd":
            self.coef_ = self._fit_gd(operand, centered_targets, n_columns)
        else:
            raise ValueError(f"unknown solver {self.solver!r}")
        self.intercept_ = target_offset
        return self

    def _fit_normal(self, operand, targets: np.ndarray) -> np.ndarray:
        # Factorized operands cache the Gram matrix, so repeated fits (and
        # the silo orchestrator's retries) pay for crossprod once.
        gram = operand.crossprod()
        moment = operand.transpose_lmm(targets[:, None])[:, 0]
        return gd.normal_solve(gram, moment, self.l2_penalty)

    def _fit_gd(self, operand, targets: np.ndarray, n_columns: int) -> np.ndarray:
        if self.warm_start and self.coef_ is not None and self.coef_.size == n_columns:
            weights = np.asarray(self.coef_, dtype=np.float64).reshape(n_columns, 1).copy()
        else:
            weights = np.zeros((n_columns, 1))
        view = gd.OneBlock(operand)
        self.loss_history_ = []
        with _telemetry.span(
            "train.linear_gd", rows=operand.shape[0], columns=n_columns,
            iterations=self.n_iterations,
        ):
            # The intercept is the target mean taken out by ``fit``; the
            # descent itself learns none.
            weights, _ = gd.descend(
                view, view.blocks, gd.squared_error_link, targets, weights, 0.0,
                learning_rate=self.learning_rate, n_iterations=self.n_iterations,
                l2_penalty=self.l2_penalty, learn_intercept=False,
                tolerance=self.tolerance, loss_history=self.loss_history_,
                loss_metric="gd.linear.loss",
            )
        return weights[:, 0]

    def predict(self, features: OperandLike) -> np.ndarray:
        if self.coef_ is None:
            raise ValueError("model is not fitted")
        operand = as_linop(features)
        return operand.lmm(self.coef_[:, None])[:, 0] + self.intercept_

    def score(self, features: OperandLike, targets: np.ndarray) -> float:
        """Return the R² score on the given data."""
        from repro.learning.metrics import r2_score

        return r2_score(targets, self.predict(features))
