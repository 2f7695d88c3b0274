"""Floating-point operation accounting for factorized vs. materialized plans.

This is the price list: one pure function per factorized operator maps a
factor's :class:`FactorStats` and the operand width ``m`` to ``{label:
flops}``. :class:`~repro.factorized.AmalurMatrix` adds those to its
:class:`FlopCounter` after every call and
:class:`~repro.costmodel.AmalurCostModel` sums them over an operator
sequence, so a predicted ``flops.<label>`` is the counter a run leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple

from repro import telemetry as _telemetry


@dataclass
class FlopCounter:
    """Accumulates multiply-add counts per labelled operation.

    When telemetry is enabled (:mod:`repro.telemetry`), every ``add`` is
    mirrored into the session counter ``flops.<operation>`` — same label,
    same value, same accumulation order — so a telemetry run report carries
    the legacy per-operation totals exactly.
    """

    total: float = 0.0
    by_operation: Dict[str, float] = field(default_factory=dict)

    def add(self, operation: str, flops: float) -> None:
        self.total += flops
        self.by_operation[operation] = self.by_operation.get(operation, 0.0) + flops
        if _telemetry.ENABLED:
            _telemetry.counter_add("flops." + operation, flops)

    def reset(self) -> None:
        self.total = 0.0
        self.by_operation.clear()

    def merge(self, other: "FlopCounter") -> None:
        for operation, flops in other.by_operation.items():
            self.add(operation, flops)


def dense_matmul_flops(n: int, k: int, m: int) -> float:
    """Multiply-add count of an ``(n×k) @ (k×m)`` dense matrix product."""
    return float(n) * float(k) * float(m)


def redundancy_apply_flops(n_redundant: int) -> float:
    """Cost of applying a redundancy mask ``R_k`` to a contribution.

    ``R_k`` stores its redundant cells as a CSR complement, so masking zeroes
    exactly those cells — one operation per stored cell of the complement —
    instead of the ``r_T · c_T`` Hadamard product a dense mask paid. A
    trivial (all-ones) mask costs nothing.
    """
    return float(n_redundant)


class FactorStats(NamedTuple):
    """One source factor as the price list reads it.

    ``stored`` is the stored cells of ``D_k``: ``rows · cols`` stored
    dense, the nnz stored as CSR (``csr``). ``rows`` and ``cols``
    count the target rows and columns the factor maps onto (``I_k`` and
    ``M_k``); ``correction`` counts the redundant cells ``R_k`` zeroes,
    which are the stored entries of the factor's correction matrix.
    """

    stored: int
    rows: int
    cols: int
    correction: int = 0
    csr: bool = False


def lmm_charges(factor: FactorStats, m: int) -> Dict[str, float]:
    """``T @ X``: ``D_k (M_kᵀ X)`` once over the stored cells, the
    indicator lift onto the mapped rows, and the correction."""
    priced = {"lmm.local": float(factor.stored) * m, "lmm.lift": float(factor.rows) * m}
    if factor.correction:
        priced["lmm.correction"] = float(factor.correction) * m
    return priced


def transpose_lmm_charges(factor: FactorStats, m: int) -> Dict[str, float]:
    """``Tᵀ @ X``: the row projection ``I_kᵀ X``, ``D_kᵀ`` over the stored
    cells, the scatter onto the mapped columns, and the correction."""
    priced = {
        "tlmm.project": float(factor.rows) * m,
        "tlmm.local": float(factor.stored) * m,
        "tlmm.scatter": float(factor.cols) * m,
    }
    if factor.correction:
        priced["tlmm.correction"] = float(factor.correction) * m
    return priced


def square_charges(factor: FactorStats, m: int = 1) -> Dict[str, float]:
    """``T ∘ T``: one multiply per stored cell; ``m`` is unused."""
    return {"square": float(factor.stored)}


def scale_charges(factor: FactorStats, m: int = 1) -> Dict[str, float]:
    """``alpha · T``: one multiply per stored cell; ``m`` is unused."""
    return {"scale": float(factor.stored)}


def statistics_charges(factor: FactorStats, m: int) -> Dict[str, float]:
    """The Gram and column sums of a target ``m`` columns wide, gathered
    block by block (:meth:`~repro.factorized.operator_plan.BlockedMatrixView.statistics`):
    each stored cell meets at most every column of its row. No counter
    books it; the fan-out rule weighs a streaming fit's statistics pass
    with it."""
    return {"statistics": float(factor.stored) * m}


def charges(operator: str, factor: FactorStats, m: int) -> Dict[str, float]:
    """One call of ``operator`` (an :class:`~repro.factorized.AmalurMatrix`
    method name, or ``statistics``) over one factor. ``labels`` reads the
    label column as one ``lmm`` with a one-column selector."""
    price = {
        "lmm": lmm_charges,
        "labels": lmm_charges,
        "transpose_lmm": transpose_lmm_charges,
        "square": square_charges,
        "scale": scale_charges,
        "statistics": statistics_charges,
    }.get(operator)
    if price is None:
        raise ValueError(f"the price list has no operator {operator!r}")
    return price(factor, m)
