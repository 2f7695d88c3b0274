"""Machine-learning algorithms that run over materialized or factorized data.

Every estimator accepts either a dense ``numpy`` feature matrix or a
factorized :class:`repro.factorized.AmalurMatrix`. The algorithms only
touch the data through left/transpose matrix multiplications (plus an
element-wise ``square()`` for KMeans and GNMF), so factorized and
materialized training produce identical parameters — the equivalence the
paper's §IV relies on ("factorized learning does not affect model
training accuracy"). The gradient-descent learners state it once: they
share the loop in :mod:`repro.learning.gd`, which touches the data
through one LMM and one transpose-LMM per row block.
"""

from repro.learning.base import DenseMatrix, as_linop, LinearOperand
from repro.learning.linear_regression import LinearRegression
from repro.learning.logistic_regression import LogisticRegression
from repro.learning.streaming_gd import StreamingGD
from repro.learning.kmeans import KMeans
from repro.learning.gaussian_nmf import GaussianNMF
from repro.learning.metrics import (
    mean_squared_error,
    r2_score,
    accuracy_score,
    log_loss,
)

__all__ = [
    "DenseMatrix",
    "as_linop",
    "LinearOperand",
    "LinearRegression",
    "LogisticRegression",
    "StreamingGD",
    "KMeans",
    "GaussianNMF",
    "mean_squared_error",
    "r2_score",
    "accuracy_score",
    "log_loss",
]
