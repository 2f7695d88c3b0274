"""Figure 2 reproduction: traditional integration of data silos for ML.

The figure walks through the manual pipeline the paper argues is too
expensive: schema mapping (matching), entity resolution, materialization
of the target table, and export to the downstream ML task. The harness
runs exactly that pipeline on the running example and on a scaled-up
version, timing every stage, and checks the materialized target equals
Figure 2d. The full outer join is the factor builder's
(``integrate_tables``), materialized with ``materialize()``.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.hospital import hospital_tables
from repro.datagen.scenarios import ScenarioSpec, generate_scenario_tables
from repro.learning.logistic_regression import LogisticRegression
from repro.matrices.builder import integrate_tables
from repro.metadata.entity_resolution import resolve_entities
from repro.metadata.mappings import ScenarioType
from repro.metadata.schema_matching import match_schemas

FIGURE_2D_TARGET = np.array(
    [
        [0, 20, 60, 0],
        [1, 35, 58, 0],
        [0, 22, 65, 0],
        [1, 37, 70, 92],
        [1, 45, 0, 95],
        [0, 20, 0, 97],
    ],
    dtype=float,
)


def traditional_pipeline(base, other, target_columns):
    """Schema matching → entity resolution → full outer join → export matrix."""
    column_matches = match_schemas(base, other)
    row_matches = resolve_entities(base, other, column_matches=column_matches)
    return integrate_tables(
        base, other, column_matches, row_matches, target_columns,
        ScenarioType.FULL_OUTER_JOIN,
    ).materialize()


def test_benchmark_traditional_pipeline_running_example(benchmark):
    s1, s2 = hospital_tables()
    exported = benchmark(traditional_pipeline, s1, s2, ["m", "a", "hr", "o"])
    assert np.array_equal(exported, FIGURE_2D_TARGET)


def test_benchmark_traditional_pipeline_scaled(benchmark):
    spec = ScenarioSpec(
        scenario=ScenarioType.FULL_OUTER_JOIN,
        base_rows=1_000,
        other_rows=600,
        base_features=5,
        other_features=6,
        overlap_rows=400,
        overlap_columns=1,
        seed=0,
    )
    base, other, _, _, target_columns = generate_scenario_tables(spec)
    exported = benchmark(traditional_pipeline, base, other, target_columns)
    assert exported.shape[0] == 1_200


def test_report_figure2(report, benchmark):
    """Regenerate the Figure 2 walk-through: stages, metadata, target table."""
    s1, s2 = hospital_tables()
    column_matches = match_schemas(s1, s2)
    row_matches = resolve_entities(s1, s2, column_matches=column_matches)
    exported = traditional_pipeline(s1, s2, ["m", "a", "hr", "o"])

    lines = ["Figure 2: traditional integration of data silos for ML", "=" * 64]
    lines.append("(a) base table S1(m, n, a, hr): 4 rows from the ER department")
    lines.append("(b) discovered table S2(m, n, a, o, dd): 3 rows from pulmonary")
    lines.append("(c) schema matching output:")
    for match in column_matches:
        lines.append(
            f"    S1.{match.left_column} ≈ S2.{match.right_column} (score {match.score:.2f})"
        )
    lines.append("    entity resolution output:")
    for match in row_matches:
        lines.append(
            f"    S1 row {match.left_row} ({s1.cell(match.left_row, 'n')}) == "
            f"S2 row {match.right_row} ({s2.cell(match.right_row, 'n')})"
        )
    lines.append("(d) materialized target table T(m, a, hr, o):")
    for row in exported:
        lines.append("    " + "  ".join(f"{v:5.0f}" for v in row))
    label = exported[:, 0]
    model = LogisticRegression(learning_rate=0.01, n_iterations=100).fit(exported[:, 1:], label)
    lines.append(f"downstream task: mortality prediction accuracy on T = "
                 f"{model.score(exported[:, 1:], label):.2f}")
    report("figure2_pipeline", lines)

    assert np.array_equal(np.sort(exported, axis=0), np.sort(FIGURE_2D_TARGET, axis=0))
    benchmark(traditional_pipeline, s1, s2, ["m", "a", "hr", "o"])
