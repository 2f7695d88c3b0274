"""Factorize-or-materialize decision making and ground-truth measurement."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.amalur_cost import AmalurCostModel, CostBreakdown
from repro.costmodel.morpheus_rule import MorpheusRule
from repro.costmodel.parameters import CostParameters


class Decision(enum.Enum):
    """The optimizer's execution strategies for model training over silos."""

    FACTORIZE = "factorize"
    MATERIALIZE = "materialize"
    FEDERATE = "federate"


@dataclass
class DecisionOutcome:
    """A decision plus the evidence that produced it."""

    decision: Decision
    parameters: CostParameters
    breakdown: Optional[CostBreakdown] = None
    explanation: str = ""


@dataclass
class DecisionAdvisor:
    """Chooses between factorization and materialization.

    ``method="amalur"`` uses the DI-metadata cost model (the paper's
    proposal); ``method="morpheus"`` uses the baseline heuristic.
    """

    method: str = "amalur"
    cost_model: Optional[AmalurCostModel] = None
    morpheus_rule: Optional[MorpheusRule] = None

    def __post_init__(self) -> None:
        if self.cost_model is None:
            self.cost_model = AmalurCostModel()
        if self.morpheus_rule is None:
            self.morpheus_rule = MorpheusRule()

    def decide(
        self, parameters: CostParameters, sequence: Sequence[Tuple[str, int, int]]
    ) -> DecisionOutcome:
        """Decide for the operator ``sequence`` (see :mod:`repro.costmodel.amalur_cost`);
        the Morpheus heuristic does not read it."""
        if self.method == "amalur":
            breakdown = self.cost_model.breakdown(parameters, sequence)
            return DecisionOutcome(
                decision=Decision.FACTORIZE if breakdown.factorize else Decision.MATERIALIZE,
                parameters=parameters,
                breakdown=breakdown,
                explanation=breakdown.explain(),
            )
        if self.method == "morpheus":
            factorize = self.morpheus_rule.predict_factorize(parameters)
            return DecisionOutcome(
                decision=Decision.FACTORIZE if factorize else Decision.MATERIALIZE,
                parameters=parameters,
                explanation=self.morpheus_rule.explain(parameters),
            )
        raise ValueError(f"unknown decision method {self.method!r}")


def measure_ground_truth(
    amalur_matrix,
    sequence: Sequence[Tuple[str, int, int]],
    repeats: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Best-of ``repeats`` wall times ``(factorized, materialized)`` of the
    operator ``sequence`` the cost model prices.

    The factorized run makes the calls on ``amalur_matrix``: ``labels`` on
    the whole target, ``lmm`` and ``transpose_lmm`` on its feature view, as
    the executor does. The materialized run materializes the target, splits
    off the label column and makes the same calls densely, on the same
    operands. The faster strategy is the ground truth for the Table III
    reproduction (the paper computes "the percentage of times that the cost
    estimation procedures correctly predicted factorization").
    """
    dataset = amalur_matrix.dataset
    label = None if dataset.label_column is None else dataset.target_columns.index(
        dataset.label_column
    )
    # Operand rows per operator; the label read takes no operand.
    rows = {
        "labels": 0,
        "lmm": amalur_matrix.n_columns - (label is not None),
        "transpose_lmm": amalur_matrix.n_rows,
    }
    unsupported = {op for op, _, _ in sequence} - set(rows)
    if unsupported:
        raise ValueError(f"no dense twin for operators {sorted(unsupported)}")
    rng = rng or np.random.default_rng(0)
    calls = [(op, rng.standard_normal((rows[op], m)), count) for op, m, count in sequence]

    def factorized_run():
        features = amalur_matrix.feature_matrix_view()
        for op, x, count in calls:
            for _ in range(count):
                if op == "labels":
                    amalur_matrix.labels()
                else:
                    getattr(features, op)(x)

    def materialized_run():
        target = dataset.materialize()
        features = target if label is None else np.delete(target, label, axis=1)
        for op, x, count in calls:
            for _ in range(count):
                if op == "labels":
                    target[:, label].copy()
                else:
                    (features if op == "lmm" else features.T) @ x

    return _best_time(factorized_run, repeats), _best_time(materialized_run, repeats)


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
