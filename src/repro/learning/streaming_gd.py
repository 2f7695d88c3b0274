"""Out-of-core (row-block) gradient descent over factorized matrices.

:class:`StreamingGD` trains linear or logistic regression over an
:class:`~repro.factorized.AmalurMatrix` through its row-block view, so
the working set stays one row block per factor. Combined with factors
spilled to a :class:`~repro.streaming.SpillStore`, models train on
datasets whose materialized form exceeds RAM. The iteration mathematics
is that of the full-batch solvers
(:class:`~repro.learning.LinearRegression` with ``solver="gd"`` and
:class:`~repro.learning.LogisticRegression`), the one loop of
:func:`repro.learning.gd.descend`:

* **linear** — one statistics pass plus ``d × d`` steps. One pass over
  the blocks (:meth:`~repro.factorized.operator_plan.BlockedMatrixView.statistics`)
  gathers the augmented Gram ``[X y]ᵀ[X y]`` and the column sums, the
  label read in the same pass; :func:`~repro.learning.gd.centred_statistics`
  centres them on ``ȳ``, and GD steps over their square root
  (:class:`~repro.learning.gd.GramRoot`, ``d + 1`` rows). The least-squares
  gradient is a function of the Gram alone (Schleich, Olteanu & Ciucanu,
  SIGMOD'16), so the spill is read once however many iterations run, and
  the weights equal the row-space recurrence to rounding (≤ 1e-10
  relative in the parity suite, rank-deficient targets included).
* **logistic** — one pass over the blocks per iteration: every block
  contributes its exact share of the same LMM / transpose-LMM, so the
  weights match full-batch training to reassociation (≤ 1e-8).

Either pass maps the row blocks through ``repro.parallel``'s ordered
bounded-window pipeline: workers pull spilled blocks off the memmap and
compute their partials — overlapping spill I/O with the current matmuls —
while the calling thread reduces the partials in block order and
releases pages as blocks retire. With one worker (``num_workers``, or a
block whose priced work does not pay for the hand-off — see
:func:`repro.parallel.should_parallelize`) the same map is a plain loop
on the calling thread. Results depend on the
``block_rows`` grid only: any worker count, one included, gives the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.exceptions import CheckpointError, FactorizationError
from repro.factorized.operator_plan import BlockedMatrixView
from repro.factorized.ops_counter import charges
from repro.learning import gd
from repro.reliability.checkpoint import CheckpointManager

_LINEAR_DEFAULTS = {"learning_rate": 0.01, "n_iterations": 200}
_LOGISTIC_DEFAULTS = {"learning_rate": 0.1, "n_iterations": 300}


@dataclass
class StreamingGD:
    """Row-block full-batch gradient descent for out-of-core training.

    ``task`` is ``"linear"`` (least squares, mirroring
    ``LinearRegression(solver="gd")``; one statistics pass over the
    blocks, then ``d × d`` steps) or ``"logistic"`` (mirroring
    ``LogisticRegression``; one pass over the blocks per iteration).
    ``learning_rate`` / ``n_iterations`` default to the corresponding
    full-batch model's defaults when left ``None``.

    ``release_pages`` is invoked after every processed block (when given):
    with spilled factors, pass ``SpillStore.release`` so memory-mapped
    pages leave the process RSS as soon as a block is consumed.

    ``num_workers`` overrides the global ``repro.parallel`` worker count
    for this model: ``None`` inherits it (gated by
    :func:`repro.parallel.should_parallelize` on a block's share of the
    pass's charges — ``statistics`` for a linear fit, one ``lmm`` and one
    ``transpose_lmm`` for a logistic iteration — so small fits stay on
    the calling thread), ``1`` runs the
    block map as a plain loop, and any larger value fans blocks over the
    shared pool — with the same bits at every count.

    With a ``checkpoint`` manager, training state — weights, intercept,
    loss history, completed-iteration counter, block cursor — is saved
    atomically every ``checkpoint_every`` completed epochs, and ``fit``
    resumes from the newest valid checkpoint. A linear checkpoint also
    carries the fit's ``(gram, sums)`` statistics (``(d+1)² × 8`` bytes),
    so a linear resume reads no data. Each epoch is a pure function of
    the restored state (full-batch gradient over a fixed block grid), so
    an interrupted run resumed from its last checkpoint produces
    **bit-identical** weights to an uninterrupted run.
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

    def _workers_for(self, view: BlockedMatrixView, m: int, *operators: str) -> int:
        """Workers for a map over ``view``'s blocks whose pass runs
        ``operators`` on an ``m``-column operand: ``num_workers`` when set,
        else the configured count when a full block's share of the price
        list's charges (:func:`~repro.factorized.ops_counter.charges`)
        pays for the hand-off."""
        if self.num_workers is not None:
            return max(1, int(self.num_workers))
        work = sum(
            sum(charges(operator, factor.plan.stats(), m).values())
            for operator in operators for factor in view.factors
        )
        share = min(self.block_rows, view.n_rows) / max(view.n_rows, 1)
        if _parallel.should_parallelize(work * share):
            return _parallel.get_num_workers()
        return 1

    # -- checkpointing ----------------------------------------------------------------
    def _statistics_grid(self, n_rows: int) -> dict:
        """The rows and block grid a linear fit's statistics are summed
        over; a checkpoint's statistics are restored onto the same only."""
        return {"n_rows": int(n_rows), "block_rows": int(self.block_rows)}

    def _restore_state(self, n_rows: int, n_columns: int):
        """``(weights, intercept, loss_history, start_iteration,
        statistics)`` from the newest valid checkpoint, or ``None`` for a
        fresh start. ``statistics`` is the ``(gram, sums)`` pair a linear
        checkpoint carries (``None`` when it carries none); they must have
        been summed over this fit's row count and block grid."""
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
        statistics = None
        if "gram" in restored.arrays:
            statistics = (restored.arrays["gram"], restored.arrays["sums"])
            width = n_columns + 1
            if statistics[0].shape != (width, width) or statistics[1].shape != (width,):
                raise CheckpointError(
                    f"checkpoint at {restored.path} holds statistics of shape "
                    f"{statistics[0].shape}, expected {(width, width)}"
                )
            grid = self._statistics_grid(n_rows)
            saved = {key: restored.metadata.get(key) for key in grid}
            if saved != grid:
                raise CheckpointError(
                    f"checkpoint at {restored.path} holds statistics summed over "
                    f"{saved}, this fit is over {grid}"
                )
        self.resumed_from_ = restored.step
        if _telemetry.ENABLED:
            _telemetry.counter_add("checkpoint.resumes")
        return (
            weights.copy(),
            float(restored.metadata.get("intercept", 0.0)),
            restored.arrays["loss_history"].tolist(),
            restored.step,
            statistics,
        )

    def _save_state(
        self, iteration: int, weights: np.ndarray, intercept: float, n_rows: int,
        statistics=None,
    ) -> None:
        """Persist epoch-boundary state: ``iteration`` epochs are complete,
        so the block cursor is always 0 — the next epoch starts clean. A
        linear fit also saves its ``(gram, sums)`` statistics and the grid
        they were summed over, so a resume reads no data."""
        if self.checkpoint is None:
            return
        every = max(1, int(self.checkpoint_every))
        if iteration % every != 0:
            return
        arrays = {
            "weights": weights,
            "loss_history": np.asarray(self.loss_history_, dtype=np.float64),
        }
        metadata = {
            "task": self.task,
            "intercept": float(intercept),
            "iteration": int(iteration),
            "block_cursor": 0,
        }
        if statistics is not None:
            arrays["gram"], arrays["sums"] = statistics
            metadata.update(self._statistics_grid(n_rows))
        self.checkpoint.save(iteration, arrays, metadata)

    # -- block-wise column products ---------------------------------------------------
    def _lmm_column(self, view: BlockedMatrixView, x: np.ndarray) -> np.ndarray:
        """``(view @ x)[:, 0]``, filled block by block on the fit's block map."""
        out = np.empty(view.n_rows, dtype=np.float64)

        def _fill(bounds: Tuple[int, int]) -> None:
            start, stop = bounds
            out[start:stop] = view.lmm_block(x, start, stop)[:, 0]

        for _ in _parallel.imap_ordered(
            _fill, view.row_blocks(self.block_rows),
            workers=self._workers_for(view, x.shape[1], "lmm"),
        ):
            if self.release_pages is not None:
                self.release_pages()
        return out

    # -- fitting ---------------------------------------------------------------------
    def fit(self, matrix, labels: Optional[np.ndarray] = None) -> "StreamingGD":
        """Train on a factorized matrix, block by block.

        With ``labels=None`` the dataset's label column provides the
        targets and the features are the remaining target columns; with
        explicit ``labels`` every column of ``matrix`` is a feature — the
        same contract as the full-batch estimators.

        Linear: one pass over the blocks gathers the augmented Gram and
        column sums (:meth:`BlockedMatrixView.statistics`, the label
        read in the same pass), and every iteration is a ``d × d`` step
        (:class:`~repro.learning.gd.GramRoot`). Logistic: every iteration
        is one pass over the blocks.
        """
        if self.task not in gd.LINKS:
            raise ValueError(f"unknown task {self.task!r}")
        if labels is None:
            label_column = matrix.dataset.label_column
            if label_column is None:
                raise FactorizationError(
                    "StreamingGD needs explicit labels or a dataset label column"
                )
            feature_columns = [
                c for c in matrix.dataset.target_columns if c != label_column
            ]
        else:
            labels = np.asarray(labels, dtype=float).ravel()
            if labels.shape[0] != matrix.n_rows:
                raise ValueError(
                    f"target vector has {labels.shape[0]} rows, features have {matrix.n_rows}"
                )
        with _telemetry.span(
            "train.streaming_gd", task=self.task, rows=matrix.n_rows,
            block_rows=self.block_rows,
        ):
            if self.task == "linear":
                restored = self._restore_state(
                    matrix.n_rows,
                    len(feature_columns) if labels is None else matrix.n_columns,
                )
                statistics = None if restored is None else restored[4]
                if statistics is None:
                    if labels is None:
                        view = matrix.blocked(columns=feature_columns + [label_column])
                    else:
                        view = matrix.blocked()
                    width = view.n_columns + (labels is not None)
                    statistics = view.statistics(
                        self.block_rows, labels,
                        workers=self._workers_for(view, width, "statistics"),
                        on_block=self.release_pages,
                    )
                gram, sums = statistics
                xtx, xty, yty, offset = gd.centred_statistics(
                    gram, sums, matrix.n_rows, gram.shape[0] - 1, self.fit_intercept
                )
                root = gd.GramRoot(xtx, xty, yty, matrix.n_rows)
                self._descend(
                    root, root.blocks, root.targets, offset, restored, workers=1,
                    statistics=statistics,
                )
            else:
                if labels is None:
                    labels = self._lmm_column(
                        matrix.blocked(columns=[label_column]), np.ones((1, 1))
                    )
                    view = matrix.blocked(columns=feature_columns)
                else:
                    view = matrix.blocked()
                gd.check_binary(labels)
                self._descend(
                    view, view.row_blocks(self.block_rows), labels, 0.0,
                    self._restore_state(view.n_rows, view.n_columns),
                    workers=self._workers_for(view, 1, "lmm", "transpose_lmm"),
                    on_block=self.release_pages,
                )
        return self

    def _descend(
        self, view, blocks, targets: np.ndarray, target_offset: float, restored, *,
        workers: int, on_block: Optional[Callable[[], None]] = None, statistics=None,
    ) -> None:
        """``gd.descend`` from zero or the ``restored`` checkpoint state.
        The model intercept is ``target_offset`` plus what the descent
        learns — linear: the target mean (a pure function of the
        statistics, so a resume recomputes it) and nothing learned;
        logistic: no offset, the intercept is learned. Checkpoints carry
        ``statistics`` when given."""
        weights = np.zeros((view.shape[1], 1))
        intercept = 0.0
        self.loss_history_ = []
        start_iteration = 0
        if restored is not None:
            weights, intercept, self.loss_history_, start_iteration, _ = restored
            intercept -= target_offset
        weights, intercept = gd.descend(
            view, blocks, gd.LINKS[self.task], targets,
            weights, intercept,
            learning_rate=self._hyper("learning_rate"),
            n_iterations=int(self._hyper("n_iterations")),
            l2_penalty=self.l2_penalty,
            learn_intercept=self.fit_intercept and self.task == "logistic",
            tolerance=self.tolerance, loss_history=self.loss_history_,
            loss_metric="gd.streaming.loss", start_iteration=start_iteration,
            workers=workers, on_block=on_block,
            on_epoch=lambda iteration, stepped, learned: self._save_state(
                iteration, stepped, learned + target_offset, view.shape[0], statistics
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
