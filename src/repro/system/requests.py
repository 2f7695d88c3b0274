"""Typed request/config objects — the public contract of the Amalur API.

The facade (:class:`repro.system.Amalur`) and the online serving layer
(:mod:`repro.serving`) share these objects: a batch ``integrate`` call and
a long-lived session are configured by the same :class:`IntegrationConfig`,
and the same :class:`TrainRequest` / :class:`PredictRequest` drive both the
one-shot executor path and the worker pool of
:class:`repro.serving.AmalurService`.

Everything here is plain data: no table handles, no numpy state beyond
request payloads, importable without pulling in the execution layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import BackendSpec
from repro.exceptions import ServiceError
from repro.metadata.mappings import ScenarioType
from repro.system.plan import ExecutionPlan, ModelHandle, ModelSpec


@dataclass
class IntegrationConfig:
    """What to integrate: the two sources, the mediated schema, the scenario.

    The canonical input of :meth:`repro.system.Amalur.integrate` and
    :meth:`repro.system.Amalur.open_session`.
    """

    base: str
    other: str
    target_columns: List[str]
    scenario: ScenarioType
    label_column: Optional[str] = None
    name: str = "T"
    backend: BackendSpec = None

    def __post_init__(self) -> None:
        self.target_columns = list(self.target_columns)
        if not self.target_columns:
            raise ServiceError("integration needs at least one target column")


@dataclass
class TrainRequest:
    """A training request against an integrated dataset.

    ``model_name`` overrides the facade's ``model_{counter}`` default;
    ``warm_start`` seeds gradient-descent models from the weights cached
    under the same handle (serving sessions use this after delta batches).
    """

    model: ModelSpec = field(default_factory=ModelSpec)
    dataset: Optional[object] = None  # IntegratedDataset; None = session-resident
    plan: Optional[ExecutionPlan] = None
    model_name: Optional[str] = None
    warm_start: bool = False
    timeout: Optional[float] = None


@dataclass
class PredictRequest:
    """A prediction request against a trained model.

    ``row_range`` restricts the prediction to target rows ``[start, stop)``
    (served through the zero-copy blocked view — the row-cap friendly
    path); ``None`` predicts every target row. ``version`` optionally pins
    the dataset version the caller prepared against: a mismatch raises
    :class:`repro.exceptions.StaleDatasetError` instead of silently serving
    rows from a newer snapshot.
    """

    model: Union[ModelHandle, str, None] = None
    row_range: Optional[Tuple[int, int]] = None
    version: Optional[int] = None
    timeout: Optional[float] = None

    @property
    def model_name(self) -> Optional[str]:
        if self.model is None:
            return None
        return self.model.name if isinstance(self.model, ModelHandle) else str(self.model)


@dataclass
class DeltaBatch:
    """One batch of mutations against a *source* table of a session.

    ``kind``:

    * ``"append"`` — ``rows`` maps column name → sequence of new values
      (missing columns become NULL);
    * ``"update"`` — ``row_indices`` names existing source rows, ``rows``
      carries the replacement values per column;
    * ``"delete"`` — ``row_indices`` names the source rows to drop.
    """

    table: str
    kind: str = "append"
    rows: Dict[str, Sequence] = field(default_factory=dict)
    row_indices: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("append", "update", "delete"):
            raise ServiceError(f"unknown delta kind {self.kind!r}")
        if self.kind == "append" and not self.rows:
            raise ServiceError("append delta carries no rows")
        if self.kind in ("update", "delete") and self.row_indices is None:
            raise ServiceError(f"{self.kind} delta needs row_indices")

    @property
    def n_rows(self) -> int:
        if self.kind == "append":
            return max((len(v) for v in self.rows.values()), default=0)
        return len(self.row_indices) if self.row_indices is not None else 0


@dataclass
class ServiceResult:
    """The envelope every serving request resolves to.

    ``value`` is request-kind specific: a predictions array for predicts,
    a :class:`~repro.serving.session.SessionModel` for trains, a delta
    summary dict for delta batches.
    """

    request_id: int
    kind: str
    value: object = None
    latency_s: float = 0.0
    version: int = 0
    handle: Optional[ModelHandle] = None

    @property
    def predictions(self) -> Optional[np.ndarray]:
        return self.value if isinstance(self.value, np.ndarray) else None
