"""Figure 5 reproduction: the factorize/materialize decision areas.

Figure 5 is a conceptual sketch: somewhere in the space of workload shapes
there is a boundary between the region where factorization is faster
(Area I — easy wins the Morpheus heuristic already finds), the region
where materialization is faster (Area II), and the hard cases in between
(Area III). The harness makes the figure concrete: it sweeps the tuple
ratio (how often dimension rows are re-used in the target) and the feature
ratio (how much wider the dimension table is than the entity table),
measures the factorized-over-materialized speedup of the LMM workload the
cost model prices (``measure_ground_truth``) at every grid point, and prints the resulting decision map
together with where each predictor places the boundary.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pytest

from repro.costmodel.amalur_cost import AmalurCostModel
from repro.costmodel.decision import measure_ground_truth
from repro.costmodel.morpheus_rule import MorpheusRule
from repro.costmodel.parameters import CostParameters
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair
from repro.factorized.normalized_matrix import AmalurMatrix

TUPLE_RATIOS = [1, 2, 5, 10, 20, 50]
FEATURE_RATIOS = [2, 5, 10, 25, 50]
OTHER_ROWS = 2_000
OPERAND_COLUMNS = 4
REUSE = 10
SEQUENCE = [("lmm", OPERAND_COLUMNS, REUSE)]


def _dataset_for(tuple_ratio: int, feature_ratio: int):
    base_rows = OTHER_ROWS * tuple_ratio
    other_columns = max(2, feature_ratio - 1)
    return generate_integrated_pair(
        SyntheticSiloSpec(
            base_rows=base_rows,
            base_columns=1,
            other_rows=OTHER_ROWS,
            other_columns=other_columns,
            redundancy_in_target=True,
            redundancy_in_sources=False,
            seed=tuple_ratio * 100 + feature_ratio,
        )
    )


def _measure_speedup(dataset) -> float:
    """Measured materialized-time / factorized-time for the LMM workload."""
    factorized, materialized = measure_ground_truth(AmalurMatrix(dataset), SEQUENCE, repeats=1)
    return materialized / factorized if factorized > 0 else float("inf")


def test_report_figure5(report, benchmark):
    amalur_model = AmalurCostModel()
    morpheus_rule = MorpheusRule()
    grid: Dict[Tuple[int, int], Tuple[float, bool, bool]] = {}
    for tuple_ratio in TUPLE_RATIOS:
        for feature_ratio in FEATURE_RATIOS:
            dataset = _dataset_for(tuple_ratio, feature_ratio)
            speedup = _measure_speedup(dataset)
            parameters = CostParameters.from_dataset(dataset)
            grid[(tuple_ratio, feature_ratio)] = (
                speedup,
                amalur_model.predict_factorize(parameters, SEQUENCE),
                morpheus_rule.predict_factorize(parameters),
            )

    lines = [
        "Figure 5: factorize/materialize decision areas",
        f"(measured speedup of factorization; workload = {REUSE} LMM passes, "
        f"{OPERAND_COLUMNS} operand columns; F = factorization faster)",
        "=" * 76,
        "rows: tuple ratio (r_T / r_S2); columns: feature ratio (c_T / c_S1)",
        "",
        "measured speedup (×):",
        "        " + "".join(f"{fr:>9}" for fr in FEATURE_RATIOS),
    ]
    for tuple_ratio in TUPLE_RATIOS:
        row = [f"{grid[(tuple_ratio, fr)][0]:>8.2f}{'F' if grid[(tuple_ratio, fr)][0] > 1 else 'M'}"
               for fr in FEATURE_RATIOS]
        lines.append(f"  tr={tuple_ratio:>3} " + "".join(row))
    lines.append("")
    lines.append("decision agreement (measured / Amalur cost model / Morpheus heuristic):")
    lines.append("        " + "".join(f"{fr:>9}" for fr in FEATURE_RATIOS))
    for tuple_ratio in TUPLE_RATIOS:
        cells = []
        for fr in FEATURE_RATIOS:
            speedup, amalur_says, morpheus_says = grid[(tuple_ratio, fr)]
            truth = "F" if speedup > 1 else "M"
            cells.append(
                f"    {truth}/{'F' if amalur_says else 'M'}/{'F' if morpheus_says else 'M'}"
            )
        lines.append(f"  tr={tuple_ratio:>3} " + "".join(cells))

    measured_factorize = sum(1 for s, _, _ in grid.values() if s > 1)
    amalur_agreement = sum(
        1 for s, a, _ in grid.values() if (s > 1) == a
    ) / len(grid)
    morpheus_agreement = sum(
        1 for s, _, m in grid.values() if (s > 1) == m
    ) / len(grid)
    lines.append("")
    lines.append(
        f"grid points where factorization wins: {measured_factorize}/{len(grid)}; "
        f"Amalur agreement {amalur_agreement:.0%}, Morpheus agreement {morpheus_agreement:.0%}"
    )
    report("figure5_boundary", lines)

    # Shape assertions: the boundary behaves like Figure 5 — factorization
    # wins clearly in the Area I corner (high tuple ratio AND high feature
    # ratio) and materialization wins at tuple ratio 1 (Area II). The points
    # in between are the hard Area III cases the paper argues need a better
    # cost model; the report records how often each predictor matches the
    # stopwatch there.
    assert grid[(max(TUPLE_RATIOS), max(FEATURE_RATIOS))][0] > 1.0
    assert grid[(1, FEATURE_RATIOS[0])][0] <= 1.0

    benchmark(_measure_speedup, _dataset_for(10, 10))


@pytest.mark.parametrize("tuple_ratio", [1, 10, 50])
def test_benchmark_factorized_workload_by_tuple_ratio(benchmark, tuple_ratio):
    dataset = _dataset_for(tuple_ratio, 10)
    matrix = AmalurMatrix(dataset)
    operand = np.random.default_rng(0).standard_normal((matrix.n_columns, OPERAND_COLUMNS))
    benchmark(matrix.lmm, operand)
