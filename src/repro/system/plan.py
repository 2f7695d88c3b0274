"""Execution plans, model specifications and training results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.backends import Backend
from repro.costmodel.amalur_cost import CostBreakdown
from repro.costmodel.decision import Decision
from repro.matrices.builder import IntegratedDataset


@dataclass
class ModelSpec:
    """What the user wants trained (the "ML model" input of Figure 3)."""

    task: str = "classification"  # classification | regression | clustering | nmf
    learning_rate: float = 0.05
    n_iterations: int = 200
    l2_penalty: float = 0.0
    n_clusters: int = 3
    n_components: int = 2
    hyperparameters: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.task} (lr={self.learning_rate}, iters={self.n_iterations})"


@dataclass
class PlanStep:
    """One step of an execution plan, for explainability/logging."""

    description: str
    target: str = ""


@dataclass
class ExecutionPlan:
    """The optimizer's output: a strategy plus the steps to run it.

    ``backend`` is the compute backend the factorized operators should run
    on (``None`` keeps the dense default); the optimizer fills it from the
    same density statistics the cost model used.
    """

    strategy: Decision
    dataset: IntegratedDataset
    model: ModelSpec
    steps: List[PlanStep] = field(default_factory=list)
    cost_breakdown: Optional[CostBreakdown] = None
    explanation: str = ""
    backend: Optional[Backend] = None

    def describe(self) -> str:
        lines = [f"strategy: {self.strategy.value}", f"model: {self.model.describe()}"]
        if self.backend is not None:
            lines.append(f"backend: {self.backend.name}")
        if self.explanation:
            lines.append(f"reason: {self.explanation}")
        for index, step in enumerate(self.steps, start=1):
            suffix = f" [{step.target}]" if step.target else ""
            lines.append(f"  {index}. {step.description}{suffix}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ModelHandle:
    """An explicit reference to a trained, catalog-registered model.

    Returned by :meth:`repro.system.Amalur.train` (on
    :attr:`TrainingResult.handle`) so callers address models by handle
    instead of guessing the facade's internal ``model_{counter}`` naming.
    ``auto_named`` records that the name came from the counter default.
    """

    name: str
    task: str = ""
    dataset: str = ""
    auto_named: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass
class TrainingResult:
    """The executor's output: the trained model plus execution evidence."""

    plan: ExecutionPlan
    model: object
    metrics: Dict[str, float] = field(default_factory=dict)
    predictions: Optional[np.ndarray] = None
    bytes_transferred: int = 0
    n_messages: int = 0
    handle: Optional[ModelHandle] = None

    @property
    def strategy(self) -> Decision:
        return self.plan.strategy
