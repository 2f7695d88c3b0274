"""Amalur's analytical cost model for factorize-vs-materialize (paper §IV-B).

The model prices an operator sequence — ``(operator, m, count)`` triples:
``count`` calls of the :class:`~repro.factorized.AmalurMatrix` method
``operator`` with an ``m``-column operand — under the two strategies:

* **materialize** — integrate the sources once (read every source cell,
  resolve redundancy, write every target cell) and ship the target, then
  make every call densely over the ``r_T × c_T`` target;
* **factorize** — make every call through the §IV-A rewrites at the price
  list's charges (:func:`repro.factorized.ops_counter.charges`), so the
  predicted ``flops`` are the counters a run of the sequence leaves, plus
  a fixed overhead per source and call. ``labels`` is priced over the
  whole target's factors, every other operator over the feature view's.

Costs are abstract "cell operations". The pruning rule of Example IV.1
is applied first: when every tgd is full and the target is no larger
than the sources, the target cannot hold more redundancy than the sources
and materialization is chosen outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.costmodel.parameters import CostParameters
from repro.factorized.ops_counter import charges, dense_matmul_flops, redundancy_apply_flops


@dataclass
class CostBreakdown:
    """Per-strategy cost estimate, in abstract cell-operation units.

    ``backend_choices`` records, per source, which kernel the
    density-threshold rule dispatched the factorized plan's per-source
    multiply to ("dense" or "sparse") — the same decision
    :class:`repro.backends.AutoBackend` makes at execution time. ``flops``
    is the factorized side's predicted ``flops.<label>`` counters for the
    priced sequence.
    """

    materialize_integration: float
    materialize_compute: float
    factorize_overhead: float
    transfer: float = 0.0
    pruned_by_tgd_rule: bool = False
    backend_choices: List[str] = field(default_factory=list)
    flops: Dict[str, float] = field(default_factory=dict)

    @property
    def materialized_total(self) -> float:
        return self.materialize_integration + self.materialize_compute + self.transfer

    @property
    def factorize_compute(self) -> float:
        return sum(self.flops.values())

    @property
    def factorized_total(self) -> float:
        return self.factorize_compute + self.factorize_overhead

    @property
    def predicted_speedup(self) -> float:
        """Estimated speedup of factorization over materialization (>1 = faster)."""
        if self.factorized_total == 0:
            return float("inf")
        return self.materialized_total / self.factorized_total

    @property
    def factorize(self) -> bool:
        """The decision: factorize unless pruned or no cheaper."""
        return not self.pruned_by_tgd_rule and self.factorized_total < self.materialized_total

    def explain(self) -> str:
        return (
            f"{'factorize' if self.factorize else 'materialize'}: "
            f"factorized={self.factorized_total:.0f} vs "
            f"materialized={self.materialized_total:.0f} cell-ops "
            f"(integration={self.materialize_integration:.0f}, "
            f"pruned_by_tgd_rule={self.pruned_by_tgd_rule}, "
            f"backends={self.backend_choices})"
        )


@dataclass
class AmalurCostModel:
    """Analytical cost model parameterized by DI metadata.

    Parameters
    ----------
    write_weight:
        Relative cost of writing one materialized target cell (integration
        output) compared to one multiply-add.
    read_weight:
        Relative cost of reading one source cell during integration.
    per_source_overhead:
        Fixed overhead (in cell operations) per participating source and
        call — kernel-launch / orchestration cost that penalizes
        factorization over very small sources.
    transfer_weight:
        Relative cost of shipping one materialized target cell out of the
        silos (0, the default, disables the network term).
    """

    write_weight: float = 2.0
    read_weight: float = 1.0
    per_source_overhead: float = 2000.0
    transfer_weight: float = 0.0

    def breakdown(
        self, parameters: CostParameters, sequence: Sequence[Tuple[str, int, int]]
    ) -> CostBreakdown:
        """Full cost breakdown for both strategies over ``sequence``."""
        # Example IV.1 pruning rule: full tgds and a target no bigger than
        # the sources ⇒ no extra redundancy in the target ⇒ materialize.
        pruned = (
            parameters.has_full_tgds_only
            and parameters.target_cells <= parameters.total_source_cells
        )

        # Integration reads every source cell, resolves redundancy (one
        # zeroed cell per entry of the sparse mask complement) and writes
        # every target cell, once for the whole sequence.
        integration = (
            parameters.total_source_cells * self.read_weight
            + redundancy_apply_flops(parameters.redundant_cells)
            + parameters.target_cells * self.write_weight
        )
        transfer = parameters.target_cells * self.transfer_weight

        flops: Dict[str, float] = {}
        materialize_compute = 0.0
        overhead = 0.0
        for operator, m, count in sequence:
            factors = parameters.factors if operator == "labels" else parameters.feature_factors
            for factor in factors:
                for label, value in charges(operator, factor, m).items():
                    flops[label] = flops.get(label, 0.0) + count * value
            overhead += count * self.per_source_overhead * len(factors)
            materialize_compute += count * dense_matmul_flops(
                parameters.n_target_rows, parameters.n_target_columns, m
            )

        return CostBreakdown(
            materialize_integration=integration,
            materialize_compute=materialize_compute,
            factorize_overhead=overhead,
            transfer=transfer,
            pruned_by_tgd_rule=pruned,
            backend_choices=parameters.backend_choices,
            flops=flops,
        )

    def predict_factorize(
        self, parameters: CostParameters, sequence: Sequence[Tuple[str, int, int]]
    ) -> bool:
        """True when the model chooses factorization for ``sequence``."""
        return self.breakdown(parameters, sequence).factorize

    def explain(
        self, parameters: CostParameters, sequence: Sequence[Tuple[str, int, int]]
    ) -> str:
        return self.breakdown(parameters, sequence).explain()
