"""Evaluation metrics for the reproduction's ML models."""

from __future__ import annotations

import numpy as np

LOG_LOSS_EPS = 1e-12  # probabilities are clipped to [eps, 1 - eps] before the log


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.mean((y_true - y_pred) ** 2))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    residual = np.sum((y_true - y_pred) ** 2)
    total = np.sum((y_true - y_true.mean()) ** 2)
    if total == 0:
        return 0.0 if residual > 0 else 1.0
    return float(1.0 - residual / total)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def log_loss(y_true: np.ndarray, probabilities: np.ndarray, eps: float = LOG_LOSS_EPS) -> float:
    y_true = np.asarray(y_true, dtype=float).ravel()
    probabilities = np.clip(np.asarray(probabilities, dtype=float).ravel(), eps, 1 - eps)
    return float(
        -np.mean(y_true * np.log(probabilities) + (1 - y_true) * np.log(1 - probabilities))
    )
