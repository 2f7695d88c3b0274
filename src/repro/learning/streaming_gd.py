"""Mini-batch (row-block) gradient descent over factorized matrices.

:class:`StreamingGD` trains linear or logistic regression over an
:class:`~repro.factorized.AmalurMatrix` by accumulating each full-batch
gradient over fixed target-row blocks instead of whole-matrix operands.
The iteration *mathematics* is identical to the full-batch solvers
(:class:`~repro.learning.LinearRegression` with ``solver="gd"`` and
:class:`~repro.learning.LogisticRegression`): every block contributes its
exact share of the same LMM / transpose-LMM, so the learned weights match
full-batch training to floating-point reassociation (≤ 1e-8 in the parity
suite) — while the working set stays one row block per factor. Combined
with factors spilled to a :class:`~repro.streaming.SpillStore`, models
train on datasets whose materialized form exceeds RAM.

Each iteration maps the row blocks through ``repro.parallel``'s ordered
bounded-window pipeline (the shared loop in :mod:`repro.learning.gd`):
workers pull spilled blocks off the memmap and compute their loss/gradient
partials — overlapping spill I/O with the current matmuls — while the
calling thread reduces the partials in block order and releases pages as
blocks retire. With one worker (``num_workers``, or the global
``repro.parallel`` configuration below its row threshold) the same map is a
plain loop on the calling thread. Results depend on the ``block_rows`` grid
only: any worker count, one included, gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.exceptions import CheckpointError, FactorizationError
from repro.factorized.operator_plan import BlockedMatrixView
from repro.learning import gd
from repro.reliability.checkpoint import CheckpointManager

_LINEAR_DEFAULTS = {"learning_rate": 0.01, "n_iterations": 200}
_LOGISTIC_DEFAULTS = {"learning_rate": 0.1, "n_iterations": 300}


@dataclass
class StreamingGD:
    """Row-block full-batch gradient descent for out-of-core training.

    ``task`` is ``"linear"`` (least squares, mirroring
    ``LinearRegression(solver="gd")``) or ``"logistic"`` (mirroring
    ``LogisticRegression``). ``learning_rate`` / ``n_iterations`` default
    to the corresponding full-batch model's defaults when left ``None``.

    ``release_pages`` is invoked after every processed block (when given):
    with spilled factors, pass ``SpillStore.release`` so memory-mapped
    pages leave the process RSS as soon as a block is consumed.

    ``num_workers`` overrides the global ``repro.parallel`` worker count
    for this model: ``None`` inherits it (gated by the global row
    threshold so small fits stay on the calling thread), ``1`` runs the
    block map as a plain loop, and any larger value fans blocks over the
    shared pool — with the same bits at every count.

    With a ``checkpoint`` manager, training state — weights, intercept,
    loss history, completed-iteration counter, block cursor — is saved
    atomically every ``checkpoint_every`` completed epochs, and ``fit``
    resumes from the newest valid checkpoint. Each epoch is a pure
    function of the restored state (full-batch gradient over a fixed
    block grid), so an interrupted run resumed from its last checkpoint
    produces **bit-identical** weights to an uninterrupted run.
    Checkpointing defaults off and costs nothing when off.
    """

    task: str = "linear"
    block_rows: int = 65_536
    learning_rate: Optional[float] = None
    n_iterations: Optional[int] = None
    l2_penalty: float = 0.0
    fit_intercept: bool = True
    tolerance: float = 0.0
    release_pages: Optional[Callable[[], None]] = None
    num_workers: Optional[int] = None
    checkpoint: Optional[CheckpointManager] = None
    checkpoint_every: int = 1
    coef_: Optional[np.ndarray] = field(default=None, init=False)
    intercept_: float = field(default=0.0, init=False)
    loss_history_: List[float] = field(default_factory=list, init=False)
    resumed_from_: Optional[int] = field(default=None, init=False)

    def _hyper(self, name: str) -> float:
        explicit = getattr(self, name)
        if explicit is not None:
            return explicit
        defaults = _LINEAR_DEFAULTS if self.task == "linear" else _LOGISTIC_DEFAULTS
        return defaults[name]

    def _workers_for(self, n_rows: int) -> int:
        if self.num_workers is not None:
            return max(1, int(self.num_workers))
        if _parallel.should_parallelize(n_rows):
            return _parallel.get_num_workers()
        return 1

    # -- checkpointing ----------------------------------------------------------------
    def _restore_state(self, n_columns: int):
        """``(weights, intercept, loss_history, start_iteration)`` from the
        newest valid checkpoint, or ``None`` for a fresh start."""
        if self.checkpoint is None:
            return None
        restored = self.checkpoint.latest()
        if restored is None:
            return None
        if restored.metadata.get("task") != self.task:
            raise CheckpointError(
                f"checkpoint at {restored.path} was written by a "
                f"{restored.metadata.get('task')!r} model, not {self.task!r}"
            )
        weights = restored.arrays["weights"]
        if weights.shape != (n_columns, 1):
            raise CheckpointError(
                f"checkpoint at {restored.path} holds weights of shape "
                f"{weights.shape}, expected {(n_columns, 1)}"
            )
        self.resumed_from_ = restored.step
        if _telemetry.ENABLED:
            _telemetry.counter_add("checkpoint.resumes")
        return (
            weights.copy(),
            float(restored.metadata.get("intercept", 0.0)),
            restored.arrays["loss_history"].tolist(),
            restored.step,
        )

    def _save_state(self, iteration: int, weights: np.ndarray, intercept: float) -> None:
        """Persist epoch-boundary state: ``iteration`` epochs are complete,
        so the block cursor is always 0 — the next epoch starts clean."""
        if self.checkpoint is None:
            return
        every = max(1, int(self.checkpoint_every))
        if iteration % every != 0:
            return
        self.checkpoint.save(
            iteration,
            {
                "weights": weights,
                "loss_history": np.asarray(self.loss_history_, dtype=np.float64),
            },
            {
                "task": self.task,
                "intercept": float(intercept),
                "iteration": int(iteration),
                "block_cursor": 0,
            },
        )

    # -- block-wise column products ---------------------------------------------------
    def _lmm_column(self, view: BlockedMatrixView, x: np.ndarray) -> np.ndarray:
        """``(view @ x)[:, 0]``, filled block by block on the fit's block map."""
        out = np.empty(view.n_rows, dtype=np.float64)

        def _fill(bounds: Tuple[int, int]) -> None:
            start, stop = bounds
            out[start:stop] = view.lmm_block(x, start, stop)[:, 0]

        for _ in _parallel.imap_ordered(
            _fill, view.row_blocks(self.block_rows),
            workers=self._workers_for(view.n_rows),
        ):
            if self.release_pages is not None:
                self.release_pages()
        return out

    # -- fitting ---------------------------------------------------------------------
    def fit(self, matrix, labels: Optional[np.ndarray] = None) -> "StreamingGD":
        """Train on a factorized matrix, block by block.

        With ``labels=None`` the dataset's label column provides the
        targets (extracted block-wise) and the features are the remaining
        target columns; with explicit ``labels`` every column of ``matrix``
        is a feature — the same contract as the full-batch estimators.
        """
        if self.task not in gd.LINKS:
            raise ValueError(f"unknown task {self.task!r}")
        if labels is None:
            label_column = matrix.dataset.label_column
            if label_column is None:
                raise FactorizationError(
                    "StreamingGD needs explicit labels or a dataset label column"
                )
            targets = self._lmm_column(
                matrix.blocked(columns=[label_column]), np.ones((1, 1))
            )
            feature_columns = [
                c for c in matrix.dataset.target_columns if c != label_column
            ]
            view = matrix.blocked(columns=feature_columns)
        else:
            targets = np.asarray(labels, dtype=float).ravel()
            view = matrix.blocked()
        if targets.shape[0] != view.n_rows:
            raise ValueError(
                f"target vector has {targets.shape[0]} rows, features have {view.n_rows}"
            )
        with _telemetry.span(
            "train.streaming_gd", task=self.task, rows=view.n_rows,
            block_rows=self.block_rows,
        ):
            self._descend(view, targets)
        return self

    def _descend(self, view: BlockedMatrixView, targets: np.ndarray) -> None:
        n_rows, n_columns = view.shape
        # The model intercept is ``target_offset`` plus what the descent
        # learns. Linear: the target mean (a pure function of the targets,
        # so a resume recomputes it) and nothing learned. Logistic: no
        # offset, the intercept is learned.
        target_offset = 0.0
        if self.task == "linear":
            targets, target_offset = gd.centre(targets, self.fit_intercept)
        else:
            gd.check_binary(targets)
        weights = np.zeros((n_columns, 1))
        intercept = 0.0
        self.loss_history_ = []
        start_iteration = 0
        restored = self._restore_state(n_columns)
        if restored is not None:
            weights, intercept, self.loss_history_, start_iteration = restored
            intercept -= target_offset
        weights, intercept = gd.descend(
            view, view.row_blocks(self.block_rows), gd.LINKS[self.task], targets,
            weights, intercept,
            learning_rate=self._hyper("learning_rate"),
            n_iterations=int(self._hyper("n_iterations")),
            l2_penalty=self.l2_penalty,
            learn_intercept=self.fit_intercept and self.task == "logistic",
            tolerance=self.tolerance, loss_history=self.loss_history_,
            loss_metric="gd.streaming.loss", start_iteration=start_iteration,
            workers=self._workers_for(n_rows),
            on_block=self.release_pages,
            on_epoch=lambda iteration, stepped, learned: self._save_state(
                iteration, stepped, learned + target_offset
            ),
        )
        self.coef_ = weights[:, 0]
        self.intercept_ = intercept + target_offset

    # -- inference --------------------------------------------------------------------
    def decision_function(self, matrix, columns: Optional[List[str]] = None) -> np.ndarray:
        """``X @ coef_ + intercept_`` computed block-wise."""
        if self.coef_ is None:
            raise ValueError("model is not fitted")
        if columns is None and matrix.dataset.label_column is not None:
            columns = [
                c for c in matrix.dataset.target_columns
                if c != matrix.dataset.label_column
            ]
        scores = self._lmm_column(matrix.blocked(columns=columns), self.coef_[:, None])
        return scores + self.intercept_

    def predict(self, matrix, columns: Optional[List[str]] = None) -> np.ndarray:
        scores = self.decision_function(matrix, columns)
        if self.task == "logistic":
            return (gd.sigmoid(scores) >= 0.5).astype(int)
        return scores
