"""The Amalur cost model's decision at every seed sweep point is pinned.

Each sweep prices a batch of LMMs, ``[("lmm", m, reuse)]``. The strings
below are the decisions the model made at these points before it priced
operator sequences (``F`` factorize, ``M`` materialize), so a change to
the price list or to the metadata the model reads cannot move a seed
Figure 5, Table III or cost-advisor decision unnoticed. The check is
analytic: no stopwatch runs.
"""

from repro.costmodel.amalur_cost import AmalurCostModel
from repro.costmodel.parameters import CostParameters
from repro.datagen.synthetic import SyntheticSiloSpec, generate_integrated_pair

# benchmarks/bench_figure5_boundary.py: tuple ratio (rows) × feature ratio.
FIGURE5_TUPLE_RATIOS = [1, 2, 5, 10, 20, 50]
FIGURE5_FEATURE_RATIOS = [2, 5, 10, 25, 50]
FIGURE5_DECISIONS = "MMMMM" "MFFFF" "MFFFF" "MFFFF" "FFFFF" "FFFFF"

# benchmarks/bench_table3_decisions.py: (source redundancy, target
# redundancy) cells in order yes/yes, yes/no, no/yes, no/no, each over the
# base-row sweep.
TABLE3_BASE_ROWS = [5_000, 10_000, 20_000, 50_000, 75_000, 100_000, 150_000, 200_000,
                    250_000, 300_000]
TABLE3_DECISIONS = "FFFFFFFFFF" "MMMMMMMMMM" "FFFFFFFFFF" "MMMMMMMMMM"

# examples/cost_advisor.py, in its order.
ADVISOR_CONFIGURATIONS = [
    dict(base_rows=100_000, base_columns=2, other_rows=500, other_columns=80,
         redundancy_in_target=True),
    dict(base_rows=20_000, base_columns=40, other_rows=20_000, other_columns=40,
         redundancy_in_target=False),
    dict(base_rows=2_000, base_columns=5, other_rows=500, other_columns=10,
         redundancy_in_target=True),
    dict(base_rows=30_000, base_columns=1, other_rows=3_000, other_columns=120,
         redundancy_in_target=True),
    dict(base_rows=50_000, base_columns=10, other_rows=1_000, other_columns=60,
         redundancy_in_target=True, redundancy_in_sources=True),
]
ADVISOR_DECISIONS = "FFFFF"


def _decisions(specs, sequence) -> str:
    model = AmalurCostModel()
    return "".join(
        "F" if model.predict_factorize(
            CostParameters.from_dataset(generate_integrated_pair(spec)), sequence
        ) else "M"
        for spec in specs
    )


def test_figure5_decisions_are_pinned():
    specs = [
        SyntheticSiloSpec(
            base_rows=2_000 * tuple_ratio,
            base_columns=1,
            other_rows=2_000,
            other_columns=max(2, feature_ratio - 1),
            redundancy_in_target=True,
            redundancy_in_sources=False,
            seed=tuple_ratio * 100 + feature_ratio,
        )
        for tuple_ratio in FIGURE5_TUPLE_RATIOS
        for feature_ratio in FIGURE5_FEATURE_RATIOS
    ]
    assert _decisions(specs, [("lmm", 4, 10)]) == FIGURE5_DECISIONS


def test_table3_decisions_are_pinned():
    specs = [
        SyntheticSiloSpec(
            base_rows=base_rows,
            base_columns=1,
            other_rows=max(1, int(round(0.2 * base_rows))),
            other_columns=100,
            redundancy_in_target=in_target,
            redundancy_in_sources=in_sources,
            overlap_row_fraction=1.0 if in_target else 0.5,
            seed=seed,
        )
        for in_sources in (True, False)
        for in_target in (True, False)
        for seed, base_rows in enumerate(TABLE3_BASE_ROWS)
    ]
    assert _decisions(specs, [("lmm", 8, 10)]) == TABLE3_DECISIONS


def test_cost_advisor_decisions_are_pinned():
    specs = [SyntheticSiloSpec(seed=1, **kwargs) for kwargs in ADVISOR_CONFIGURATIONS]
    assert _decisions(specs, [("lmm", 4, 10)]) == ADVISOR_DECISIONS
