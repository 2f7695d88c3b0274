"""The one gradient-descent loop behind every GD learner, federated ones included.

A GD iteration touches the data through one LMM and one transpose-LMM
(paper §IV), so :class:`~repro.learning.LinearRegression` (``solver="gd"``),
:class:`~repro.learning.LogisticRegression`,
:class:`~repro.learning.StreamingGD`, a vertical-FL round (§V-A: the block
view puts the network between the parties' factors) and FedAvg's local
epochs differ only in the *link* that turns scores into errors and in the
block grid they walk: :func:`descend` maps one block piece over that grid
with ``parallel.imap_ordered`` and reduces the partials in block order on
the calling thread. One worker is the plain loop of the same map and a
resident operand is the one-block grid (:class:`OneBlock`), so the weights
depend on the grid only — any worker count, one included, gives the same bits.

Least squares needs the rows only through the Gram: a linear
:class:`~repro.learning.StreamingGD` gathers ``[X y]ᵀ[X y]`` in one pass,
centres it (:func:`centred_statistics`, which the serving session's
normal-equation solve :func:`normal_solve` shares) and descends over its
``d + 1``-row square root (:class:`GramRoot`) — the same loop, each
iteration a ``d × d`` step.
Logistic GD walks the row blocks every iteration.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.learning.metrics import LOG_LOSS_EPS

#: ``(scores, targets) -> (loss_sum, errors)`` over the rows of one block.
Link = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, evaluated without overflow at either tail."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def squared_error_link(scores: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Least squares: residuals and the sum of their squares."""
    errors = scores - targets
    return float(np.sum(errors * errors)), errors


def log_loss_link(scores: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Binary logistic: ``sigmoid(scores) - targets`` and the summed log-loss,
    clipped like :func:`repro.learning.metrics.log_loss`."""
    probabilities = sigmoid(scores)
    clipped = np.clip(probabilities, LOG_LOSS_EPS, 1 - LOG_LOSS_EPS)
    loss = -np.sum(targets * np.log(clipped) + (1 - targets) * np.log(1 - clipped))
    return float(loss), probabilities - targets


def check_binary(targets: np.ndarray) -> None:
    """Reject targets :func:`log_loss_link` is not defined on."""
    invalid = sorted(set(np.unique(targets).tolist()) - {0.0, 1.0})
    if invalid:
        raise ValueError(f"labels must be binary 0/1, found {invalid}")


#: The link of each task name the learners accept.
LINKS = {"linear": squared_error_link, "logistic": log_loss_link}


def centre(targets: np.ndarray, fit_intercept: bool) -> Tuple[np.ndarray, float]:
    """``(targets - mean, mean)`` — the linear learners' intercept is the
    target mean (features stay uncentred: centring them would break the
    factorized representation) — or ``(targets, 0.0)`` without an
    intercept. Empty targets have no mean; :func:`descend` rejects them."""
    if not (fit_intercept and targets.size):
        return targets, 0.0
    offset = float(targets.mean())
    return targets - offset, offset


def centred_statistics(
    gram: np.ndarray, sums: np.ndarray, n_rows: int, label: int, fit_intercept: bool = True
) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """``(XᵀX, Xᵀ(y − ȳ), (y − ȳ)ᵀ(y − ȳ), ȳ)`` from the augmented Gram
    ``[X y]ᵀ[X y]`` and column sums ``[X y]ᵀ1`` of ``n_rows`` rows, ``y``
    being column ``label`` and ``X`` every other column, in order.

    The least-squares learners' sufficient statistics, centred the way
    :func:`centre` centres the targets (``ȳ = 0`` without an intercept or
    rows): ``Xᵀ(y − ȳ) = Xᵀy − ȳ·Xᵀ1`` and ``(y − ȳ)ᵀ(y − ȳ) = yᵀy −
    ȳ·1ᵀy``, so no pass over the rows is needed."""
    features = np.asarray([i for i in range(gram.shape[0]) if i != label], dtype=np.intp)
    offset = float(sums[label] / n_rows) if fit_intercept and n_rows else 0.0
    moment = gram[features, label] - offset * sums[features]
    residual = float(gram[label, label] - offset * sums[label])
    return gram[np.ix_(features, features)], moment, residual, offset


def normal_solve(xtx: np.ndarray, xty: np.ndarray, l2_penalty: float = 0.0) -> np.ndarray:
    """The least-squares weights ``(XᵀX + λI)⁻¹ Xᵀy``: the one
    normal-equation solve behind ``LinearRegression(solver="normal")`` and
    the serving session. A ``1e-12·I`` ridge keeps a rank-deficient
    ``XᵀX`` solvable."""
    identity = np.eye(xtx.shape[0])
    if l2_penalty:
        xtx = xtx + l2_penalty * identity
    return np.linalg.solve(xtx + 1e-12 * identity, xty)


class GramRoot:
    """A least-squares problem over ``n_rows`` rows, carried by ``d + 1``.

    ``R`` is a square root of the augmented Gram ``A = [X y]ᵀ[X y]``
    (``RᵀR = A``, from ``eigh`` with eigenvalues clipped at 0, so a
    rank-deficient ``A`` has one). Its first ``d`` columns play ``X`` and
    its last plays ``y``: ``‖R[:, :d] w − R[:, d]‖² = ‖Xw − y‖²`` and the
    gradients agree too, so :func:`descend` over this one-block view with
    :func:`squared_error_link` and ``targets`` steps exactly as over the
    ``n_rows`` rows, each iteration a ``(d+1) × d`` product. ``shape`` is
    ``(n_rows, d)``, so losses and gradients are still means over the rows.
    """

    def __init__(self, xtx: np.ndarray, xty: np.ndarray, yty: float, n_rows: int):
        d = xtx.shape[0]
        augmented = np.empty((d + 1, d + 1))
        augmented[:d, :d] = xtx
        augmented[:d, d] = augmented[d, :d] = xty
        augmented[d, d] = yty
        values, vectors = np.linalg.eigh(augmented)
        root = np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors.T
        self.rows = np.ascontiguousarray(root[:, :d])
        self.targets = np.ascontiguousarray(root[:, d])
        self.shape = (int(n_rows), d)
        self.blocks = [(0, d + 1)]

    def lmm_block(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        return self.rows[start:stop] @ x

    def transpose_lmm_add(self, x: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
        out += self.rows[start:stop].T @ x


class OneBlock:
    """Any :class:`~repro.learning.base.LinearOperand` as the block view
    whose grid is the single block of all its rows."""

    def __init__(self, operand):
        self.operand = operand
        self.shape = operand.shape
        self.blocks = [(0, self.shape[0])]

    def lmm_block(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        return self.operand.lmm(x)

    def transpose_lmm_add(self, x: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
        out += self.operand.transpose_lmm(x)


def descend(
    view,
    blocks: Sequence[Tuple[int, int]],
    link: Link,
    targets: np.ndarray,
    weights: np.ndarray,
    intercept: float,
    *,
    learning_rate: float,
    n_iterations: int,
    l2_penalty: float,
    learn_intercept: bool,
    tolerance: float,
    loss_history: List[float],
    loss_metric: str,
    start_iteration: int = 0,
    workers: int = 1,
    on_block: Optional[Callable[[], None]] = None,
    on_epoch: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> Tuple[np.ndarray, float]:
    """Full-batch GD from ``(weights, intercept)``; returns where it ended.

    ``view`` offers ``shape``, ``lmm_block`` and ``transpose_lmm_add`` over
    the ``[start, stop)`` row ``blocks`` (a
    :class:`~repro.factorized.operator_plan.BlockedMatrixView`,
    :class:`OneBlock` or :class:`GramRoot`); ``weights`` is a
    ``(columns, 1)`` float64 column.
    Every epoch appends its mean loss to ``loss_history``; ``on_block``
    runs on the calling thread as each block retires, ``on_epoch(completed
    epochs, weights, intercept)`` after each step.
    """
    n_rows, n_columns = view.shape
    if n_rows == 0:
        raise ValueError(
            f"cannot run gradient descent on a matrix of shape {view.shape}: it has no rows"
        )

    def block_piece(bounds: Tuple[int, int]) -> Tuple[float, float, np.ndarray]:
        start, stop = bounds
        scores = view.lmm_block(weights, start, stop)[:, 0] + intercept
        loss_sum, errors = link(scores, targets[start:stop])
        partial = np.zeros((n_columns, 1))
        view.transpose_lmm_add(errors[:, None], start, stop, partial)
        error_sum = float(errors.sum()) if learn_intercept else 0.0
        return loss_sum, error_sum, partial

    for iteration in range(start_iteration, n_iterations):
        loss_sum = error_sum = 0.0
        gradient = np.zeros((n_columns, 1))
        for loss_piece, error_piece, partial in _parallel.imap_ordered(
            block_piece, blocks, workers=workers
        ):
            loss_sum += loss_piece
            error_sum += error_piece
            gradient += partial
            if on_block is not None:
                on_block()
        loss_history.append(loss_sum / n_rows)
        if _telemetry.ENABLED:
            _telemetry.counter_add("gd.iterations")
            _telemetry.observe(loss_metric, loss_history[-1])
        gradient /= n_rows
        if l2_penalty:
            gradient = gradient + l2_penalty * weights / n_rows
        step = learning_rate * gradient
        weights = weights - step
        if learn_intercept:
            intercept -= learning_rate * (error_sum / n_rows)
        if on_epoch is not None:
            on_epoch(iteration + 1, weights, intercept)
        if tolerance and np.linalg.norm(step) < tolerance:
            break
    return weights, intercept
