"""Binary logistic regression over dense or factorized feature matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.learning import gd
from repro.learning.base import OperandLike, as_linop


@dataclass
class LogisticRegression:
    """Binary logistic regression trained with full-batch gradient descent.

    The mortality-prediction task of the paper's running example (Figure 2)
    is exactly this model. Per iteration the data is touched through one
    LMM and one transpose-LMM, so factorized and materialized training are
    numerically identical.
    """

    learning_rate: float = 0.1
    n_iterations: int = 300
    l2_penalty: float = 0.0
    fit_intercept: bool = True
    tolerance: float = 0.0
    warm_start: bool = False
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    intercept_: float = field(default=0.0, init=False)
    loss_history_: List[float] = field(default_factory=list, init=False)

    def fit(self, features: OperandLike, labels: np.ndarray) -> "LogisticRegression":
        operand = as_linop(features)
        labels = np.asarray(labels, dtype=float).ravel()
        n_rows, n_columns = operand.shape
        if labels.shape[0] != n_rows:
            raise ValueError(f"label vector has {labels.shape[0]} rows, features have {n_rows}")
        gd.check_binary(labels)

        if self.warm_start and self.coef_ is not None and self.coef_.size == n_columns:
            weights = np.asarray(self.coef_, dtype=np.float64).reshape(n_columns, 1).copy()
            intercept = float(self.intercept_)
        else:
            weights = np.zeros((n_columns, 1))
            intercept = 0.0
        view = gd.OneBlock(operand)
        self.loss_history_ = []
        with _telemetry.span(
            "train.logistic_gd", rows=n_rows, columns=n_columns,
            iterations=self.n_iterations,
        ):
            weights, self.intercept_ = gd.descend(
                view, view.blocks, gd.log_loss_link, labels, weights, intercept,
                learning_rate=self.learning_rate, n_iterations=self.n_iterations,
                l2_penalty=self.l2_penalty, learn_intercept=self.fit_intercept,
                tolerance=self.tolerance, loss_history=self.loss_history_,
                loss_metric="gd.logistic.loss",
            )
        self.coef_ = weights[:, 0]
        return self

    def predict_proba(self, features: OperandLike) -> np.ndarray:
        if self.coef_ is None:
            raise ValueError("model is not fitted")
        operand = as_linop(features)
        logits = operand.lmm(self.coef_[:, None])[:, 0] + self.intercept_
        return gd.sigmoid(logits)

    def predict(self, features: OperandLike, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(features) >= threshold).astype(int)

    def score(self, features: OperandLike, labels: np.ndarray) -> float:
        from repro.learning.metrics import accuracy_score

        return accuracy_score(np.asarray(labels).ravel(), self.predict(features))
