"""Floating-point operation accounting for factorized vs. materialized plans.

The counters let benchmarks and the cost model compare plans analytically
(in FLOPs) in addition to wall-clock time, which keeps the Table III /
Figure 5 reproductions stable across machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

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


def sparse_matmul_flops(nnz: int, m: int) -> float:
    """Multiply-add count of ``A @ X`` when ``A`` is sparse with ``nnz``
    stored cells and ``X`` is dense with ``m`` columns.

    A CSR matmul touches each stored cell once per operand column, so the
    count is ``nnz · m`` regardless of A's nominal shape — the formula the
    dense counter overcounts by ``1/density``.
    """
    return float(nnz) * float(m)


def sparse_crossprod_flops(nnz: int, n_cols: int) -> float:
    """Multiply-add upper bound of ``Aᵀ A`` for a sparse ``A``.

    Each stored cell of ``A`` meets at most ``n_cols`` partners in its row,
    giving ``nnz · n_cols``; the true count (``Σ_rows nnz_row²``) is lower
    for uneven rows, so this is the safe planning estimate.
    """
    return float(nnz) * float(n_cols)


def redundancy_apply_flops(n_redundant: int) -> float:
    """Cost of applying a redundancy mask ``R_k`` to a contribution.

    With the lazy/sparse representations, masking zeroes exactly the
    redundant cells — one operation per stored cell of the complement —
    instead of the ``r_T · c_T`` Hadamard product a dense mask paid. A
    trivial (all-ones) mask costs nothing.
    """
    return float(n_redundant)
